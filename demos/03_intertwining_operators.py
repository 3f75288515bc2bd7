#!/usr/bin/env python3
"""Removal and addition operators between particle levels.

Removing a particle uniformly at random commutes with running the
dynamics; weighted addition is its adjoint.  Together they split every
eigenspace at level k into functions lifted from level k-1 and fresh
ones annihilated by the addition operator.
"""
import numpy as np

from siplab import (Level, check_adjoint, check_intertwinings, eigen_dichotomy, eigen_groups,
                    fresh_basis, invert_annihilation, lift_eigenfunction, peeling_block,
                    random_connected_graph, build_rw_generator, rw_spectrum,
                    build_sip_generator)

rng = np.random.default_rng(7)
g = random_connected_graph(3, rng, alpha_range=(0.5, 2.0))
k = 3

level = Level(g, k)
ann, cre = level.annihilation, level.creation
print(f"removal matrix: {ann.shape}, addition matrix: {cre.shape}")
print("removal applied to constants counts particles:",
      np.unique(ann @ np.ones(ann.shape[1])))

print("\nadjoint identity:", check_adjoint(level))
for check in check_intertwinings(level):
    print("intertwining:", check)

# The constructive inverse: one row per level-(k-1) state, taken by
# decreasing largest occupancy, makes a lower triangular block of the
# removal operator with integer diagonal, so it is injective with no
# tolerance, and a function at level k-1 is peeled back from its lift by
# one sweep over that block per value of the largest occupancy.
print("\npeeling margin (exactly 1 when the block is triangular):", peeling_block(level)[3])
gvec = rng.standard_normal(ann.shape[1])
recovered = invert_annihilation(level, ann @ gvec)
print("exact recovery of the pre-image, max error:",
      np.abs(recovered - gvec).max())

# Lifting the slow walk mode gives a slow mode at every particle number.
spec = rw_spectrum(build_rw_generator(g))
f, lam = lift_eigenfunction(g, spec.eigenfunctions[:, 1], k)
gen = build_sip_generator(g, k)
print(f"\nlifted slow mode: eigenvalue {lam:.9f}, residual "
      f"{np.abs(-gen.matrix @ f - lam * f).max():.2e}")

# Every eigenvalue at level k is either inherited through the lift or
# newly created inside the kernel of the addition operator.  The split is
# checked with no eigensolve; the spectrum is then level k-1's joined with
# the fresh block's.
result = eigen_dichotomy(level)
size_low, size_high = level.lower.space.size, level.space.size
print(f"\neigenspace split at k={k} passes: {result.passed} "
      f"(image total {size_low}, kernel total {size_high - size_low}):")
for group in eigen_groups(level):
    origin = "lifted" if group.dim_image else "new"
    print(f"  eigenvalue {group.eigenvalue:10.6f}  dim {group.dim}  -> {origin}")

kernel_dim = fresh_basis(level).shape[1]
print("\nkernel dimension:", kernel_dim,
      "= level-k size minus level-(k-1) size:", size_high - size_low)
assert kernel_dim == size_high - size_low
