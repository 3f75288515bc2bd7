"""Residual reports for identity and inequality checks.

Every verification routine in the package returns one or more CheckResult
records; a check passes when its residual is within tolerance (for
inequalities the residual is the amount of violation, clipped at zero).
Tolerances shared by several checks are the relative bounds named here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import InputError

# identities hold up to the rounding of sums of products: x max(1, largest entry)
IDENTITY_RTOL = 1e-10
# eigenpairs and reversibility carry a solve's or a transform's rounding: x max(1, largest rate)
SPECTRAL_RTOL = 1e-8
# energy comparisons sum over shifted walks and test functions: x max(1, largest term)
ENERGY_RTOL = 1e-9
# gap statements: x gap_rw, which a change of time scale multiplies with every gap
GAP_RTOL = 1e-8
# twice a total-variation distance lies in [0, 2], with no time scale: absolute
TV_SLACK = 1e-8


def residual_tol(scale):
    """SPECTRAL_RTOL * max(1, scale), elementwise for an array of scales."""
    return SPECTRAL_RTOL * np.maximum(1.0, scale)


def max_abs(m) -> float:
    """Largest |entry| of a dense or scipy.sparse matrix, a sparse one read from
    its stored values with no index sort: scipy's products, sums and broadcast
    multiplies store each coordinate once; a COO one has its duplicates summed."""
    if not scipy.sparse.issparse(m):
        return float(np.abs(m).max(initial=0.0))
    if m.format == "coo" and not m.has_canonical_format:
        m = m.tocsr()
    return float(np.abs(m.data).max(initial=0.0))


def require_reversible(asym, scale) -> None:
    """Refuse symmetrization defects, dense or sparse, over `residual_tol(scale)` or NaN."""
    bad = ~(asym <= residual_tol(scale))
    if np.any(bad):
        raise InputError(f"generator is not reversible for the given measure "
                         f"(symmetrization defect {float(np.max(asym * bad)):.3e})")


def gap_tolerance(graph) -> float:
    """GAP_RTOL * gap_rw, for gap statements about `graph`, a `graphs.Graph`
    whose `walk_spectrum` holds gap_rw.  On a disconnected graph every gap
    is zero, and the walk's largest rate sets the rounding scale instead."""
    if graph.connected:
        return GAP_RTOL * graph.walk_spectrum.gap
    return GAP_RTOL * max_abs(graph.walk.matrix)


def sandwich(graph, gap: float) -> dict:
    """The paper's sandwich (1 ^ alpha_min) gap_rw <= gap <= gap_rw as residuals, each
    held to `gap_tolerance(graph)`: `lower` and `upper`, the violations clipped at zero
    (at gap 0, `lower` is the bound), and `equality`, |gap - gap_rw|, if alpha_min >= 1."""
    gap_rw, a_min = graph.walk_spectrum.gap, graph.alpha_min
    sides = {"lower": max(0.0, min(1.0, a_min) * gap_rw - gap), "upper": max(0.0, gap - gap_rw)}
    return sides | ({"equality": abs(gap - gap_rw)} if a_min >= 1.0 else {})


@dataclass(frozen=True)
class CheckResult:
    identity: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        d = {
            "identity": self.identity,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.detail:
            d["detail"] = self.detail
        return d


def make_check(identity: str, residual: float, tolerance: float, detail: str = "") -> CheckResult:
    return CheckResult(identity, float(residual), float(tolerance),
                       bool(residual <= tolerance), detail)


def identity_check(identity: str, lhs, rhs) -> CheckResult:
    """Matrix identity lhs = rhs: the largest entrywise residual against
    IDENTITY_RTOL times the largest entry of either side (at least 1).  Sides
    may be scipy.sparse; a difference of two sparse sides stays sparse."""
    scale = max(1.0, max_abs(lhs), max_abs(rhs))
    return make_check(identity, max_abs(lhs - rhs), IDENTITY_RTOL * scale)


def pattern_identity_check(identity: str, pattern, weights, rows, cols, terms) -> tuple:
    """diag(weights) pattern = the `terms` summed at their cells (rows, cols), by
    `identity_check` on the cells the CSR `pattern` stores, found by `np.searchsorted` in
    its keys row * S + column, which ascend as each row's columns do; a term off the
    pattern is compared with 0.  Returns the check and the sums, one per stored cell."""
    size = np.int64(pattern.shape[1])  # int32 indices times S would wrap in int32
    stored = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    keys, cells = stored * size + pattern.indices, rows * size + cols
    at = np.searchsorted(keys, cells)
    found = at < keys.size
    found[found] = keys[at[found]] == cells[found]
    sums, lost = np.bincount(at[found], terms[found], minlength=keys.size), terms[~found]
    lhs = np.append(weights[stored] * pattern.data, np.zeros(lost.size))
    return identity_check(identity, lhs, np.append(sums, lost)), sums


@dataclass(frozen=True)
class CheckSuite:
    """A named bundle of check results, serializable for CLI reports."""

    name: str
    checks: tuple = field(default_factory=tuple)
    note: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        d = {
            "suite": self.name,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.note:
            d["note"] = self.note
        return d
