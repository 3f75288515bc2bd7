"""Reference computations the harness checks siplab's outputs against.

Everything here is stdlib and numpy only and shares no code with siplab,
so a defect in the program cannot be hidden by the same defect in its
check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def edge_matrix(n: int, edges) -> np.ndarray:
    c = np.zeros((n, n))
    for x, y, w in edges:
        c[x, y] = c[y, x] = w
    return c


def walk_gap(n: int, edges, alpha) -> float:
    """Second eigenvalue of minus the walk generator with rates c[x,y] * alpha[y].

    Symmetrised by D^(1/2) with D = diag(alpha), the off-diagonal entries
    become -c[x,y] sqrt(alpha[x] alpha[y]).
    """
    c = edge_matrix(n, edges)
    a = np.asarray(alpha, dtype=float)
    root = np.sqrt(a)
    sym = -c * np.outer(root, root)
    np.fill_diagonal(sym, (c * a[None, :]).sum(axis=1))
    return float(np.linalg.eigvalsh(sym)[1])


def compositions(n: int, k: int):
    """Occupation vectors of k particles on n sites in lexicographic order."""
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in compositions(n - 1, k - first):
            yield (first,) + rest


def _rising(base: float, count: int) -> float:
    return math.prod(base + j for j in range(count))


def inclusion_law(alpha, k: int) -> np.ndarray:
    """Stationary law of k inclusion particles, indexed by lexicographic rank:
    prod_x Gamma(alpha_x + eta_x) / (Gamma(alpha_x) eta_x!), normalised."""
    weights = np.array([math.prod(_rising(a, m) / math.factorial(m) for a, m in zip(alpha, eta))
                        for eta in compositions(len(alpha), k)])
    return weights / weights.sum()


def lookdown_law(alpha, k: int) -> np.ndarray:
    """Stationary law of k labeled lookdown particles, indexed by the
    mixed-radix index with the lowest label as the leading digit: particle
    i weighs alpha at its site plus its lower-labeled companions there."""
    n = len(alpha)
    weights = np.empty(n ** k)
    for index, positions in enumerate(itertools.product(range(n), repeat=k)):
        w = 1.0
        for i, x in enumerate(positions):
            w *= alpha[x] + positions[:i].count(x)
        weights[index] = w
    return weights / weights.sum()


def chi2_sf(stat: float, df: int) -> float:
    """Upper tail of the chi-square distribution: the regularised upper
    incomplete gamma function Q(df/2, stat/2), by series or continued fraction."""
    a, x = 0.5 * df, 0.5 * stat
    if x <= 0.0:
        return 1.0
    log_front = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        denom = a
        while abs(term) > abs(total) * 1e-15:
            denom += 1.0
            term *= x / denom
            total += term
        return max(0.0, 1.0 - total * math.exp(log_front))
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < 1e-15:
            break
    return math.exp(log_front) * h


def chi_square_pvalue(counts: dict, probs: np.ndarray, min_expected: float = 5.0) -> float:
    """Goodness of fit of counts {index: count} to exact cell probabilities,
    pooling the cells expected to hold fewer than min_expected samples."""
    observed = np.zeros(probs.size)
    for index, count in counts.items():
        observed[index] += count
    expected = probs * observed.sum()
    if observed[expected == 0.0].sum() > 0:
        return 0.0
    pool = expected < min_expected
    if pool.any():
        observed = np.append(observed[~pool], observed[pool].sum())
        expected = np.append(expected[~pool], expected[pool].sum())
    if observed.size < 2:
        return 1.0
    stat = float(((observed - expected) ** 2 / expected).sum())
    return chi2_sf(stat, observed.size - 1)
