"""The k-particle inclusion process: generator, spectra, gap comparisons.

A particle at x jumps to y at rate c[x, y] * (alpha[y] + eta[y]), so the
total jump rate out of eta along (x, y) is eta[x] * c[x, y] *
(alpha[y] + eta[y]).  The chain is reversible for the gamma-product law
from `configs.sip_measure`.  The generator is a CSR array written in one
pass, with no scipy.sparse arithmetic, from tables of each pair's moves by
key offset.  Its symmetric form D^(1/2) (-L) D^(-1/2), D = diag(mu), has
its pattern; each entry against its reverse's is the one reversibility check.

`sip_gap` is the gap-only path: `sweep` calls it, and `Level.gap` caches
it once per level for the gap report and the diffusion report.  It finds
the two lowest eigenpairs of the symmetric form by shift-invert Lanczos,
with the eigenpair-residual checks of the dense path.  The shifted
operator is positive definite; its inverse steps solve with a banded
Cholesky factor, the states put in reverse Cuthill-McKee order to narrow
the band.  Full spectra, the semigroup and the total-variation table solve
a dense copy of the symmetric form.

The gap report machine-checks the sandwich

    (1 ^ alpha_min) * gap_rw  <=  gap_k  <=  gap_rw       for 2 <= k <= K,

with equality when alpha_min >= 1 (`reporting.sandwich`), and monotonicity
of gap_k in k, all at a tolerance relative to gap_rw.  The total-variation table
checks the classical semigroup bounds

    exp(-gap t)  <=  sup_eta 2 ||law_t(eta) - mu||_TV
                 <=  (min mu)^(-1/2) exp(-gap t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .configs import ConfigSpace, SipMeasure, enumerate_configs, sip_measure
from .errors import EigensolverError, InputError, VerificationError
from .graphs import Graph, Spectrum, symmetric_spectrum
from .reporting import (GAP_RTOL, TV_SLACK, gap_tolerance, require_reversible, residual_tol,
                        sandwich)

if TYPE_CHECKING:
    from .intertwiners import Level


@dataclass(frozen=True)
class SipGenerator:
    """Level k: its `space`, reversible law `measure` and generator `matrix`,
    CSR with at most n(n-1)+1 entries a row, minus the exit rates on the diagonal,
    and `symmetric`, D^(1/2) (-matrix) D^(-1/2) on the same indices, checked as built."""

    graph: Graph
    space: ConfigSpace
    matrix: scipy.sparse.csr_array
    measure: SipMeasure
    symmetric: scipy.sparse.csr_array


@np.errstate(over="ignore")  # an overflow is refused by name below
def _move_table(graph: Graph, space: ConfigSpace):
    """Level k's moves as (P, B) tables of sources, targets and rates: a row per pair (x, y) of
    np.nonzero(c), a column per state with a particle at x (B for every x), ascending.  Also the
    exit rates, summed row by row, and the offsets place[y] - place[x]; inf is an InputError."""
    occ, c, alpha = space.occupations, graph.edge_weights, graph.site_weights
    xs, ys = np.nonzero(c)
    sources = np.nonzero(occ.T)[1].reshape(graph.n, -1)[xs]
    rates = occ[sources, xs[:, None]] * c[xs, ys][:, None]
    rates *= alpha[ys][:, None] + occ[sources, ys[:, None]]
    exits = np.bincount(sources.ravel(), rates.ravel(), minlength=space.size)
    if not np.all(np.isfinite(exits)):
        raise InputError(f"jump rates of level k={space.k} overflow to infinity")
    offsets = space.place[ys] - space.place[xs]
    targets = space.rank_keys((space.keys[sources] + offsets[:, None]).ravel())
    return sources, targets.reshape(sources.shape), rates, exits, offsets


def _jumps(graph: Graph, space: ConfigSpace):
    """COO triplets (source, target, rate) of every jump of level k from
    `_move_table`, pair by pair in np.nonzero(c) order, sources ascending."""
    return tuple(table.ravel() for table in _move_table(graph, space)[:3])


def build_sip_generator(graph: Graph, k: int) -> SipGenerator:
    """Level k in one pass over `_move_table`, rows in key-offset order: keys are base-(k+1)
    numerals, so offsets are distinct, targets ascend with the row, and the moves read row by row
    (the diagonal, offset 0, mid-way) then stably by state are CSR.  Row P-1-j reverses row j."""
    if k < 1:
        raise InputError(f"need k >= 1 particles, got {k}")
    space = enumerate_configs(graph.n, k)
    mu = sip_measure(graph, space)
    if not np.all(mu.probabilities > 0.0):  # the symmetric form divides by sqrt(mu)
        raise InputError(f"the law of level k={k} underflows to zero on a state")
    sources, targets, rates, exits, offsets = _move_table(graph, space)
    order = np.argsort(offsets)
    sources, targets, rates = sources[order], targets[order], rates[order]
    if not np.array_equal(targets, sources[::-1]):
        raise VerificationError("assembled rate matrix: a move has no reverse move")
    d = np.sqrt(mu.probabilities)
    sym = -rates * (d[sources] / d[targets])
    try:
        require_reversible(float(np.abs(sym - sym[::-1]).max(initial=0.0)), float(exits.max()))
    except InputError as exc:
        raise VerificationError(f"assembled rate matrix: {exc}") from exc
    half, moving = len(order) // 2, np.flatnonzero(exits)  # a zero exit rate stores no entry
    def listed(table, diagonal):  # the rows in order, the diagonal mid-way
        return np.concatenate([table[:half].ravel(), diagonal, table[half:].ravel()])
    sources, exits = listed(sources, moving), exits[moving]  # rebinding frees each table
    at = np.argsort(sources, kind="stable")
    targets, counts = listed(targets, moving)[at], np.bincount(sources, minlength=space.size)
    matrix, symmetric = (
        scipy.sparse.csr_array((listed(*cells)[at], targets, np.append(0, np.cumsum(counts))),
                               shape=(space.size,) * 2)
        for cells in ((rates, -exits), (0.5 * (sym + sym[::-1]), 0.5 * (exits + exits))))
    return SipGenerator(graph, space, matrix, mu, symmetric)


def sip_spectrum(gen: SipGenerator, want_vectors: bool = True) -> Spectrum:
    return symmetric_spectrum(gen.symmetric.toarray(), gen.measure.probabilities, want_vectors)


# Levels with fewer states than this take the gap from a dense symmetric
# solve; shift-invert ARPACK needs a few states beyond the two wanted
# eigenpairs.  The measured crossover with the banded Cholesky route lies
# lower, between 84 states (dense 0.7-0.8 ms, banded 1.3-1.8 ms) and 210
# states (dense 2.7-3.1 ms, banded 1.7-1.9 ms), best of 30 on path(7) and
# cycle(7) levels with one BLAS thread.  The bound stays at 300: lowering
# it saves about a millisecond a level and moves small-level gaps by ulps.
SPARSE_GAP_MIN_STATES = 300
# The shift sits this fraction of the largest exit rate below zero, the
# bottom of the spectrum, so the two lowest eigenvalues dominate the
# inverted operator.  It follows the operator's own scale with no floor,
# so rescaling every edge weight rescales the whole solve.  Nearer zero,
# ARPACK needs fewer inverse solves: 606 against 882 at 1e-2 on 24 levels of
# 462-1716 states of path(7) and cycle(7) with random site weights, every
# gap within 1e-13 relative of the 1e-2 one.  sym - sigma I stays positive
# definite, with a condition number near 2e3.
GAP_SHIFT_FRACTION = 1e-3


def _banded_cholesky_solver(sym, sigma: float):
    """x -> (sym - sigma I)^(-1) x, through a banded Cholesky factor of the
    states in reverse Cuthill-McKee order, which narrows the band.  A matrix
    that is not positive definite raises `LinAlgError`.

    The lower band of the permuted matrix goes into LAPACK's layout, a
    (bw + 1, S) array whose row i - j holds entry (i, j).  It is Fortran
    ordered so that LAPACK factors it in place, without a copy of the band.
    """
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(sym, symmetric_mode=True)
    place = np.empty_like(perm)
    place[perm] = np.arange(perm.size, dtype=perm.dtype)
    coo = sym.tocoo()
    rows, cols = place[coo.row], place[coo.col]
    lower = rows >= cols
    offsets, cols, values = rows[lower] - cols[lower], cols[lower], coo.data[lower]
    del coo, rows, lower  # the band is the largest array: drop the rest first
    band = np.zeros((int(offsets.max()) + 1, perm.size), order="F")
    band[offsets, cols] = values
    band[0] -= sigma
    factor = scipy.linalg.cholesky_banded(band, lower=True, overwrite_ab=True,
                                          check_finite=False)

    def solve(x):
        out = np.empty_like(x)
        out[perm] = scipy.linalg.cho_solve_banded((factor, True), x[perm],
                                                  check_finite=False)
        return out

    return solve


def sip_gap(gen: SipGenerator) -> float:
    """Spectral gap of a level, the second eigenvalue of `gen.symmetric`.  Its
    two lowest eigenpairs come from shift-invert Lanczos (`eigsh` with a fixed
    start vector, so results repeat exactly), or from a dense solve on small
    levels; either way both eigenpair residuals must pass
    `residual_tol(scale)`.  The shifted operator sym - sigma I is solved
    through a banded Cholesky factor in reverse Cuthill-McKee order; if it is
    not positive definite, the factor fails and so does the solve, with
    `EigensolverError`."""
    k, sym, size = gen.space.k, gen.symmetric, gen.space.size
    rate_scale = float(sym.diagonal().max())
    if rate_scale == 0.0:
        return 0.0  # no edges: the generator is zero and so is every eigenvalue
    scale = max(1.0, rate_scale)
    try:
        if size < SPARSE_GAP_MIN_STATES:
            vals, vecs = scipy.linalg.eigh(sym.toarray(), subset_by_index=(0, 1))
        else:
            sigma = -GAP_SHIFT_FRACTION * rate_scale
            solve = _banded_cholesky_solver(sym, sigma)
            inverse = scipy.sparse.linalg.LinearOperator(sym.shape, matvec=solve,
                                                         dtype=float)
            vals, vecs = scipy.sparse.linalg.eigsh(
                sym, k=2, sigma=sigma, which="LM", OPinv=inverse,
                v0=np.random.default_rng(0).standard_normal(size))
    except (RuntimeError, scipy.linalg.LinAlgError) as exc:
        raise EigensolverError(f"gap eigensolve failed at k={k}: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    # both pairs must solve the eigenproblem, and the lower one is the
    # zero eigenvalue every generator has
    defect = float(np.abs(sym @ vecs - vecs * vals[None, :]).max())
    if defect > residual_tol(scale) or abs(vals[0]) > residual_tol(scale):
        raise EigensolverError(f"gap eigensolve at k={k}: residual {defect:.3e}, "
                               f"lowest eigenvalue {vals[0]:.3e} at scale {scale:.3e}")
    return float(vals[1])


def sip_dirichlet_form(gen: SipGenerator, f) -> float:
    """Quadratic form <f, -L f> under the reversible law."""
    f = np.asarray(f, dtype=float)
    if f.shape != (gen.space.size,):
        raise InputError(f"f must have length {gen.space.size}, got {f.shape}")
    return float(gen.measure.probabilities @ (f * (-gen.matrix @ f)))


@dataclass(frozen=True)
class GapReport:
    """Spectral gaps of the interacting system against the single walk."""

    gap_rw: float
    gaps: dict
    gap_sip: float
    alpha_min: float
    lower_bound: float
    ratios: dict
    equality_expected: bool
    failures: tuple
    tolerance: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "gap_rw": self.gap_rw,
            "gap_k": {str(k): v for k, v in sorted(self.gaps.items())},
            "gap_sip": self.gap_sip,
            "alpha_min": self.alpha_min,
            "lower_bound": self.lower_bound,
            "ratio_k": {str(k): v for k, v in sorted(self.ratios.items())},
            "equality_check": "applies" if self.equality_expected else "not-applicable",
            "pass": self.passed,
            "failures": list(self.failures),
            "tolerance": self.tolerance,
            "relative_tolerance": GAP_RTOL,
            "note": "gap_sip is the minimum over the computed particle numbers only; "
                    "the sandwich bounds hold for every k",
        }


def gap_sandwich_report(top: Level) -> GapReport:
    """Read gap_k from `Level.gap` of each level of `top.down_to(2)`, and write a failure
    line for each `reporting.sandwich` residual over `reporting.gap_tolerance`, the
    report's `tolerance`, and for a gap above the one at k-1 from k=3 on (at k=2 that
    is gap_rw, the upper bound again).  A disconnected graph is a failure: every gap
    vanishes there, and the ratios are None.  A failure is reported, not raised.
    """
    graph = top.graph
    if top.k < 2:
        raise InputError(f"need k_max >= 2, got {top.k}")
    gaps = {level.k: level.gap for level in top.down_to(2)}
    gap_rw, atol, a_min = graph.walk_spectrum.gap, gap_tolerance(graph), graph.alpha_min
    lower = sandwich(graph, 0.0)["lower"]
    failures = []
    if not graph.connected:
        failures.append(f"graph is disconnected ({graph.components} components), "
                        f"so every gap vanishes and the ratios are undefined")
    for k, gap_k in gaps.items():
        residuals = sandwich(graph, gap_k)
        if residuals["lower"] > atol:
            failures.append(f"k={k}: gap_k={gap_k:.12g} below lower bound {lower:.12g}")
        if residuals["upper"] > atol:
            failures.append(f"k={k}: gap_k={gap_k:.12g} above gap_rw={gap_rw:.12g}")
        if residuals.get("equality", 0.0) > atol:
            failures.append(f"k={k}: expected equality, |gap_k - gap_rw|="
                            f"{residuals['equality']:.3e}")
        if k > 2 and gap_k > gaps[k - 1] + atol:
            failures.append(f"k={k}: gap_k={gap_k:.12g} exceeds gap at k-1={gaps[k - 1]:.12g}")
    return GapReport(
        gap_rw=gap_rw,
        gaps=gaps,
        gap_sip=min(gaps.values()),
        alpha_min=a_min,
        lower_bound=lower,
        ratios={k: (v / gap_rw if graph.connected else None) for k, v in gaps.items()},
        equality_expected=a_min >= 1.0,
        failures=tuple(failures),
        tolerance=atol,
    )


def transition_matrix(gen: SipGenerator, t: float, spec: Spectrum | None = None) -> np.ndarray:
    """exp(t L) from the symmetric eigendecomposition; rows are laws at time t."""
    if t < 0:
        raise InputError("time must be nonnegative")
    if spec is None:
        spec = sip_spectrum(gen)
    if spec.eigenfunctions is None:
        raise InputError("transition_matrix needs a spectrum with eigenfunctions")
    d = np.sqrt(gen.measure.probabilities)
    vecs = spec.eigenfunctions * d[:, None]
    decay = np.exp(-t * spec.eigenvalues)
    p = (vecs * decay[None, :]) @ vecs.T
    return (p / d[:, None]) * d[None, :]


@dataclass(frozen=True)
class TvRow:
    t: float
    value: float
    lower: float
    upper: float
    passed: bool


@dataclass(frozen=True)
class TvTable:
    rows: tuple
    gap: float
    min_mass: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def tv_sandwich(gen: SipGenerator, times) -> TvTable:
    """Exact worst-start total variation distance against its two bounds.

    value(t) = sup over starting states of the L1 distance between the
    time-t law and the reversible law (that is twice the TV distance).
    Each row records its own verdict; a failure is reported, not raised.
    """
    times = sorted(float(t) for t in times)
    # NaN fails every comparison, so it is refused here too
    if not all(0 <= t < math.inf for t in times):
        raise InputError("times must be finite and nonnegative")
    if len(set(times)) < len(times):
        raise InputError("times must be distinct")
    spec = sip_spectrum(gen)
    mu = gen.measure.probabilities
    gap = spec.gap
    min_mass = float(mu.min())
    rows = []
    for t in times:
        p = transition_matrix(gen, t, spec)
        value = float(np.abs(p - mu[None, :]).sum(axis=1).max())
        lower = float(np.exp(-gap * t))
        upper = float(min_mass ** -0.5 * np.exp(-gap * t))
        ok = (value >= lower - TV_SLACK) and (value <= upper + TV_SLACK)
        rows.append(TvRow(t, value, lower, upper, ok))
    return TvTable(tuple(rows), gap, min_mass)
