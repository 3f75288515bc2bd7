#!/usr/bin/env python3
"""The interacting system's spectral gap against the single walk's.

For any graph and site weights the k-particle gap sits between
(1 ^ alpha_min) * gap_rw and gap_rw; with alpha_min >= 1 the two ends
meet and the interacting system relaxes exactly as fast as one walker.
"""
import numpy as np

from siplab import (Level, build_sip_generator, complete_graph, gap_sandwich_report,
                    path_graph, random_connected_graph, sip_spectrum)

np.set_printoptions(precision=6, suppress=True)

# Exact spectra for two particles on two sites: {0, 2, 6}.
gen = build_sip_generator(path_graph(2), 2)
print("two particles, two sites, unit weights:")
print(gen.matrix.toarray())
print("spectrum:", sip_spectrum(gen, want_vectors=False).eigenvalues)
print()

# Unit site weights on a path: the gap is the same at every particle number.
report = gap_sandwich_report(Level(path_graph(4), 6))
assert report.passed, report.failures
print("path(4), alpha = 1, gap_rw =", f"{report.gap_rw:.12f}")
for k, gap_k in sorted(report.gaps.items()):
    print(f"  k={k}: gap = {gap_k:.12f}  ratio = {report.ratios[k]:.12f}")
print()

# Small site weights: interaction dominates and the gap may drop, but never
# below alpha_min * gap_rw.
g = path_graph(2, alpha=[0.2, 0.2])
report = gap_sandwich_report(Level(g, 6))
assert report.passed, report.failures
print("path(2), alpha = 0.2:")
print(f"  lower bound {report.lower_bound:.6f} <= gap_sip {report.gap_sip:.6f}"
      f" <= gap_rw {report.gap_rw:.6f}")
for k, ratio in sorted(report.ratios.items()):
    print(f"  k={k}: ratio = {ratio:.6f}")
print()

# On the complete graph the spectrum is fully explicit and the gap equals
# |alpha| / n for every particle number, with no restriction on alpha.
rng = np.random.default_rng(1)
alpha = rng.uniform(0.2, 2.0, size=4)
g = complete_graph(4, alpha)
report = gap_sandwich_report(Level(g, 5))
assert report.passed, report.failures
print("complete(4), random alpha (alpha_min = %.3f):" % g.alpha_min)
print("  |alpha| / n =", f"{g.alpha_total / 4:.12f}")
print("  gaps:", {k: round(v, 12) for k, v in sorted(report.gaps.items())})
print()

# A random weighted graph for good measure; the report validates the
# sandwich, monotonicity in k, and equality when it applies.
g = random_connected_graph(5, rng, alpha_range=(1.0, 2.5))
report = gap_sandwich_report(Level(g, 4))
assert report.passed, report.failures
print("random graph n=5, alpha_min >= 1: all checks pass ->", report.passed)
