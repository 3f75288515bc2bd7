"""Shared oracles for the test suite.

These implement each quantity by the most direct route available
(explicit double sums, scipy expm, exhaustive enumeration) so the
library code is always checked against an independent computation.
"""

import math

import numpy as np
import scipy.linalg

from siplab.configs import ConfigSpace
from siplab.errors import InputError
from siplab.graphs import Graph
from siplab.intertwiners import build_annihilation


def symmetric_dirichlet_oracle(graph: Graph, phi) -> float:
    """(1 / 2|alpha|) sum_{x,y} c_xy alpha_x alpha_y (phi(x) - phi(y))^2."""
    a = graph.site_weights
    total = 0.0
    for x in range(graph.n):
        for y in range(graph.n):
            total += graph.edge_weights[x, y] * a[x] * a[y] * (phi[x] - phi[y]) ** 2
    return total / (2.0 * a.sum())


def sip_dirichlet_oracle(gen, f) -> float:
    """(1/2) sum over ordered state pairs of mu(eta) rate(eta -> eta')
    (f(eta) - f(eta'))^2, straight from the rate matrix."""
    mu = gen.measure.probabilities
    m = gen.matrix
    total = 0.0
    for s in range(gen.space.size):
        for t in range(gen.space.size):
            if s == t:
                continue
            total += mu[s] * m[s, t] * (f[s] - f[t]) ** 2
    return 0.5 * total


def hausdorff_gap(values_a, values_b) -> float:
    """Largest distance from any point of either set to the other set."""
    a = np.asarray(sorted(values_a), dtype=float)
    b = np.asarray(sorted(values_b), dtype=float)
    d_ab = max(float(np.abs(b - x).min()) for x in a)
    d_ba = max(float(np.abs(a - x).min()) for x in b)
    return max(d_ab, d_ba)


def injectivity_margin(matrix: np.ndarray) -> float:
    """Smallest over largest singular value; positive means full column rank."""
    sv = scipy.linalg.svdvals(matrix)
    return float(sv[min(matrix.shape) - 1] / sv[0])


def removal_composition(graph: Graph, k: int, level: int) -> np.ndarray:
    """Product of removal matrices taking functions on level `level` up to k.

    Equals (k - level)! times `binomial_removal_matrix` because every
    removal order of the same particle subset contributes once.
    """
    if not 0 <= level < k:
        raise InputError(f"need 0 <= level < k, got level={level}, k={k}")
    m = build_annihilation(graph, level + 1).matrix
    for j in range(level + 2, k + 1):
        m = build_annihilation(graph, j).matrix @ m
    return m


def binomial_removal_matrix(space_high: ConfigSpace, space_low: ConfigSpace) -> np.ndarray:
    """Subset-count form of the composed removal: entry (eta, zeta) is
    prod_x binom(eta_x, zeta_x), the number of ways to pick zeta inside eta.

    Removing particles one at a time reaches each sub-configuration
    through every removal order, so the matrix product form equals
    (k - level)! times this matrix.
    """
    m = np.zeros((space_high.size, space_low.size))
    for s in range(space_high.size):
        eta = space_high.occupations[s]
        for t in range(space_low.size):
            zeta = space_low.occupations[t]
            if np.any(zeta > eta):
                continue
            m[s, t] = math.prod(math.comb(int(e), int(z)) for e, z in zip(eta, zeta))
    return m
