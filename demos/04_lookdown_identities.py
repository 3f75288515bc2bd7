#!/usr/bin/env python3
"""Labeled particles: the symmetric and lookdown dynamics.

In the lookdown model only the higher label jumps onto lower ones, so the
bottom particle is a free walker and dropping the top particle never
disturbs the rest.  Averaging labels out recovers the unlabeled system,
which is how the removal intertwining is proved without computation.
"""
import numpy as np

from siplab import (Level, build_labeled_generators, check_labeled_identities,
                    check_stationary_law, labeled_index, labeled_stationary_measure,
                    path_graph, random_connected_graph)

g = path_graph(2)
sym, look = build_labeled_generators(g, 2)
src = labeled_index((0, 1), 2)
print("two labeled particles on two sites, unit weights:")
print("  lookdown  rate top->bottom site:", look[src, labeled_index((0, 0), 2)])
print("  symmetric rate top->bottom site:", sym[src, labeled_index((0, 0), 2)])
print("  lookdown  rate bottom->top site:", look[src, labeled_index((1, 1), 2)])
print()

omega = labeled_stationary_measure(g, 2)
print("shared stationary law over ordered pairs:")
for pos in [(0, 0), (0, 1), (1, 0), (1, 1)]:
    print(f"  {pos}: {omega[labeled_index(pos, 2)]:.6f}")
print()

report = check_stationary_law(Level(g, 2))
for check in report.checks:
    print(f"  {check.identity:45s} residual {check.residual:.2e}  pass={check.passed}")
# the witness pair a, b maximizes |F_ab - F_ba| / max(F_ab, F_ba), with
# F_ab = omega(a) L(a, b) the stationary flux: a ratio with no unit
src, dst, ratio = report.nonreversibility_witness
print(f"  lookdown flux asymmetry witness: states ({src}, {dst}), "
      f"relative asymmetry {ratio:.4f}")
print()

# The full identity suite on a random weighted triangle with three particles:
# top-drop intertwining, label averaging, the eight-step replay of the
# removal intertwining, and the bottom-particle marginal.
rng = np.random.default_rng(3)
g3 = random_connected_graph(3, rng)
print("identity suite on a random 3-site graph, k = 3:")
for check in check_labeled_identities(Level(g3, 3)):
    print(f"  {check.identity:45s} residual {check.residual:.2e}  pass={check.passed}")
