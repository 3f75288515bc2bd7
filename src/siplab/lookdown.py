"""Labeled-particle calculus behind the inclusion process.

States are ordered tuples of k vertex positions, indexed in mixed radix
with the first (bottom) particle as the most significant digit.  Two
labeled dynamics share the non-interacting part (a particle at x jumps
to y at rate c[x, y] * alpha[y]) and differ in the interaction:

  * symmetric model: particle i additionally jumps onto any site y at
    rate c[x_i, y] times the number of particles already at y;
  * lookdown model: the factor counts only particles with a lower
    label, doubled, so high labels chase low ones and never the
    reverse.

Forgetting labels in either model reproduces the unlabeled inclusion
dynamics, and the whole removal intertwining can be replayed through
the labeled operators (symmetrization, top-particle drop, label
forgetting).  This module builds all of those as sparse matrices and
checks each identity, plus the shared stationary law and its failure of
detailed balance for the lookdown (but not the symmetric) model.

The symmetrizer S_k, the average over all k! label permutations, is
never formed densely: S_k = P_k Q_k through the unlabeled space, with
P_k = `unlabel_pullback` and Q_k[eta, b] = 1[occ(b) = eta] prod_x eta_x! / k!
(both from `symmetrizer`), so S_k X is P_k (Q_k X).  Each `intertwiners.Level`
builds its `LabeledLevel` once; the dense symmetrizer is a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse

from .configs import ConfigSpace
from .errors import InputError, StateCapError
from .graphs import Graph, build_rw_generator, detailed_balance_residual
from .reporting import IDENTITY_RTOL, CheckResult, identity_check, make_check, max_abs

if TYPE_CHECKING:
    from .intertwiners import Level

LABELED_CAP = 4096


def labeled_states(n: int, k: int) -> np.ndarray:
    """All position tuples, ordered by mixed-radix index (bottom digit first),
    refused with StateCapError over LABELED_CAP."""
    size = n ** k
    if size > LABELED_CAP:
        raise StateCapError(f"labeled space n^k = {size} exceeds cap {LABELED_CAP}")
    return np.arange(size)[:, None] // n ** np.arange(k - 1, -1, -1) % n


def labeled_index(positions, n: int) -> int:
    idx = 0
    for p in positions:
        idx = idx * n + int(p)
    return idx


def _sparse(values, rows, cols, shape) -> scipy.sparse.csr_array:
    return scipy.sparse.csr_array((values, (rows, cols)), shape=shape)


def _labeled_jumps(graph: Graph, k: int, lookdown: bool):
    """COO triplets (source, target, rate) of every jump of a labeled model.

    One block per (label i, target site y): every state whose particle i
    sits next to y moves it there, which shifts the index by
    (y - x) n^(k-1-i).  Each (source, target) pair occurs once, and the
    blocks come label-major, site-minor.
    """
    n, c, alpha = graph.n, graph.edge_weights, graph.site_weights
    states = labeled_states(n, k)
    blocks = []
    for i in range(k):
        x = states[:, i]
        others = states[:, :i] if lookdown else states
        for y in range(n):
            s = np.flatnonzero(c[x, y])
            company = (2 if lookdown else 1) * np.sum(others[s] == y, axis=1)
            blocks.append((s, s + (y - x[s]) * n ** (k - 1 - i),
                           c[x[s], y] * (alpha[y] + company)))
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _labeled_generator(graph: Graph, k: int, lookdown: bool) -> scipy.sparse.csr_array:
    sources, targets, rates = _labeled_jumps(graph, k, lookdown)
    rows = np.arange(graph.n ** k)
    # each row's exit rate sums its jumps in block order
    exits = np.bincount(sources, weights=rates, minlength=rows.size)
    return _sparse(np.concatenate([rates, -exits]), np.concatenate([sources, rows]),
                   np.concatenate([targets, rows]), (rows.size, rows.size))


def build_labeled_generators(graph: Graph, k: int) -> tuple:
    """(symmetric, lookdown) generator pair on the labeled state space."""
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    return (_labeled_generator(graph, k, lookdown=False),
            _labeled_generator(graph, k, lookdown=True))


def drop_top_pullback(n: int, k: int) -> scipy.sparse.csr_array:
    """Pull a function of k-1 labeled particles back through dropping the top
    one, the last digit."""
    rows = np.arange(labeled_states(n, k).shape[0])
    return _sparse(np.ones(rows.size), rows, rows // n, (rows.size, n ** (k - 1)))


def unlabel_pullback(space: ConfigSpace) -> scipy.sparse.csr_array:
    """P_k: f -> f(label-forgetting(.)), labeled states to occupation ranks."""
    states = labeled_states(space.n, space.k)
    occ = np.sum(states[:, :, None] == np.arange(space.n), axis=1)
    rows = np.arange(states.shape[0])
    return _sparse(np.ones(rows.size), rows, space.rank_keys(occ @ space.place),
                   (rows.size, space.size))


def symmetrizer(space: ConfigSpace) -> tuple:
    """The factors (P_k, Q_k) of S_k = P_k Q_k: Q_k is P_k transposed with each
    row divided by its length, the k! / prod eta_x! labelings of eta."""
    unlabel = unlabel_pullback(space)
    ranks, rows = unlabel.indices, np.arange(unlabel.shape[0])
    labelings = np.bincount(ranks, minlength=space.size)
    return unlabel, _sparse(1.0 / labelings[ranks], ranks, rows, unlabel.shape[::-1])


def labeled_stationary_measure(graph: Graph, k: int) -> np.ndarray:
    """Shared stationary law: particle i carries weight alpha at its site
    plus the number of lower-labeled companions there."""
    states = labeled_states(graph.n, k)
    omega = np.ones(states.shape[0])
    for i in range(k):
        company = np.sum(states[:, :i] == states[:, i:i + 1], axis=1)
        omega *= graph.site_weights[states[:, i]] + company
    omega /= math.prod(graph.alpha_total + i for i in range(k))
    omega.setflags(write=False)
    return omega


class LabeledLevel:
    """The labeled pieces of one `Level`: the `symmetric` and `lookdown`
    generators, `unlabel` (P_k), `average` (Q_k), `drop` (J_k) and `omega`."""

    def __init__(self, level: Level):
        graph, k = level.graph, level.k
        self.symmetric, self.lookdown = build_labeled_generators(graph, k)
        self.unlabel, self.average = symmetrizer(level.space)
        self.drop = drop_top_pullback(graph.n, k)
        self.omega = labeled_stationary_measure(graph, k)

    def symmetrize(self, x):
        """S_k x, applied as P_k (Q_k x)."""
        return self.unlabel @ (self.average @ x)


def check_labeled_identities(level: Level) -> list[CheckResult]:
    """All matrix identities tying the labeled models to the unlabeled one.

    Includes the top-drop intertwining, the exchange of symmetrization
    with both labeled generators, label forgetting onto the unlabeled
    generator, and the full removal-intertwining chain replayed through
    the labeled route, with the endpoints compared against the directly
    assembled removal matrices.  The unlabeled and labeled pieces come
    from `level` and its `lower`.
    """
    graph, k = level.graph, level.k
    if k < 2:
        raise InputError("labeled identity suite needs k >= 2")
    hi, lo = level.labeled, level.lower.labeled
    gen_hi, gen_lo = level.generator.matrix, level.lower.generator.matrix
    ann = level.annihilation
    s_hi = hi.unlabel @ hi.average
    unlabeled_hi = hi.unlabel @ gen_hi
    checks = [
        identity_check(f"symmetrizer-projection[k={k}]", s_hi @ s_hi, s_hi),
        identity_check(f"removal-as-labeled[k={k}]", hi.unlabel @ ann,
                       k * hi.symmetrize(hi.drop @ lo.unlabel)),
        identity_check(f"top-drop-intertwining[k={k}]", hi.drop @ lo.lookdown,
                       hi.lookdown @ hi.drop),
        identity_check(f"symmetrize-lookdown[k={k}]", hi.symmetrize(hi.lookdown),
                       hi.symmetric @ hi.unlabel @ hi.average),
        identity_check(f"unlabel-symmetric[k={k}]", hi.symmetric @ hi.unlabel, unlabeled_hi),
        identity_check(f"unlabel-symmetric-averaged[k={k}]",
                       hi.symmetrize(hi.symmetric @ hi.unlabel), unlabeled_hi),
        identity_check(f"unlabel-lookdown-averaged[k={k}]",
                       hi.symmetrize(hi.lookdown @ hi.unlabel), unlabeled_hi),
    ]
    # labeled replay of the removal intertwining, step by step, each
    # product applied right to left; J_k P_{k-1} drops the top particle
    # of an unlabeled function
    drop = hi.drop @ lo.unlabel
    t = [
        hi.unlabel @ (ann @ gen_lo) / k,
        hi.symmetrize(hi.drop @ (lo.unlabel @ gen_lo)),
        hi.symmetrize(hi.drop @ (lo.symmetric @ lo.symmetrize(lo.unlabel))),
        hi.symmetrize(hi.drop @ lo.symmetrize(lo.lookdown @ lo.unlabel)),
        hi.symmetrize(hi.drop @ (lo.lookdown @ lo.unlabel)),
        hi.symmetrize(hi.lookdown @ drop),
        hi.symmetric @ hi.symmetrize(drop),
        hi.symmetric @ hi.symmetrize(hi.unlabel @ ann) / k,
        hi.unlabel @ (gen_hi @ ann) / k,
    ]
    for step, (lhs, rhs) in enumerate(zip(t[:-1], t[1:])):
        checks.append(identity_check(f"labeled-chain-step-{step + 1}[k={k}]", lhs, rhs))
    checks.append(identity_check(f"labeled-chain-endpoints[k={k}]", ann @ gen_lo, gen_hi @ ann))
    checks.append(identity_check(f"flatten-then-drop[k={k}]", hi.symmetrize(hi.drop),
                                 hi.symmetrize(drop) @ lo.average))
    # bottom particle of the lookdown model moves as the plain walk
    rows = np.arange(graph.n ** k)
    bottom = _sparse(np.ones(rows.size), rows, rows // graph.n ** (k - 1), (rows.size, graph.n))
    checks.append(identity_check(f"bottom-particle-walk[k={k}]", hi.lookdown @ bottom,
                                 bottom @ build_rw_generator(graph).matrix))
    return checks


@dataclass(frozen=True)
class StationaryLawReport:
    checks: tuple
    nonreversibility_witness: tuple | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_stationary_law(level: Level) -> StationaryLawReport:
    """Stationarity and reversibility structure of the shared labeled law.

    The law is stationary for both labeled generators; the symmetric one
    is reversible for it while the lookdown one must break detailed
    balance on at least one pair (for k >= 2 on any graph with an edge),
    and forgetting labels pushes the law onto the unlabeled reversible
    measure of `level`.  The witness of that failure is the pair a, b with
    the largest relative flux asymmetry |F_ab - F_ba| / max(F_ab, F_ba),
    which has no unit and must exceed 1e-6.
    """
    graph, k = level.graph, level.k
    omega, sym, look = level.labeled.omega, level.labeled.symmetric, level.labeled.lookdown
    tol = IDENTITY_RTOL * max(1.0, max_abs(sym), max_abs(look))
    checks = [
        # a probability, unitless at every rate scale: 4096 terms round within 9e-13
        make_check(f"stationary-mass[k={k}]", abs(float(omega.sum()) - 1.0), 1e-12),
        make_check(f"stationary-symmetric[k={k}]", float(np.abs(omega @ sym).max()), tol),
        make_check(f"stationary-lookdown[k={k}]", float(np.abs(omega @ look).max()), tol),
        make_check(f"detailed-balance-symmetric[k={k}]",
                   detailed_balance_residual(sym, omega), tol),
    ]
    witness = None
    if k >= 2 and float(graph.edge_weights.max()) > 0.0:
        flux = scipy.sparse.csr_array(look * omega[:, None])
        asym = abs(flux - flux.T).tocoo()
        # off the diagonal the flux is nonnegative, so the larger flux of a
        # pair with an asymmetry is positive
        ratio = asym.data / flux.maximum(flux.T)[asym.row, asym.col]
        worst = float(ratio.max(initial=0.0))
        # the first largest ratio in row-major order, the one a dense argmax
        # over the zero-diagonal ratios picks
        flat = asym.row.astype(np.int64) * asym.shape[1] + asym.col
        first = int(flat[ratio == worst].min()) if worst > 0.0 else 0
        pair = tuple(tuple(int(v) for v in np.unravel_index(i, (graph.n,) * k))
                     for i in divmod(first, asym.shape[1]))
        witness = (pair[0], pair[1], worst)
        # here the check asserts a FAILURE of detailed balance: some pair
        # must carry a flux asymmetry that is not rounding of its own flux
        checks.append(make_check(f"lookdown-breaks-detailed-balance[k={k}]",
                                 max(0.0, 1e-6 - worst), 0.0,
                                 detail=f"max relative flux asymmetry {worst:.6g} between "
                                        f"positions {list(pair[0])} and {list(pair[1])}"))
    push = omega @ level.labeled.unlabel
    checks.append(make_check(f"unlabel-pushforward[k={k}]",
                             float(np.abs(push - level.measure.probabilities).max()),
                             IDENTITY_RTOL))
    if k >= 2:
        marginal = omega.reshape(-1, graph.n).sum(axis=1)
        # unitless probabilities: n-term sums of k-factor products round below 1e-14
        checks.append(make_check(f"top-marginal[k={k}]",
                                 float(np.abs(marginal - level.lower.labeled.omega).max()),
                                 1e-14))
    return StationaryLawReport(tuple(checks), witness)
