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
forgetting).  This module builds the two generators as sparse matrices
and checks each identity, plus the shared stationary law and its failure
of detailed balance for the lookdown (but not the symmetric) model.

The symmetrizer S_k, the average over all k! label permutations, factors
through the unlabeled space as S_k = P_k Q_k: P_k pulls a function back
through label forgetting, and Q_k[eta, b] = 1[occ(b) = eta] prod_x eta_x! / k!.
`symmetrizer` builds P_k and Q_k and `drop_top_pullback` the top drop J_k,
each as CSR; the identity suite multiplies them as such and never forms
S_k.  Each `intertwiners.Level` builds its `LabeledLevel` once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse

from .configs import ConfigSpace
from .errors import InputError, StateCapError, VerificationError
from .graphs import Graph, detailed_balance_residual
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


def _pullback(index: np.ndarray, ncols: int) -> scipy.sparse.csr_array:
    """f -> f(index[.]) as CSR: one entry 1 per row, in column index[row]."""
    return scipy.sparse.csr_array((np.ones(index.size), index, np.arange(index.size + 1)),
                                  shape=(index.size, ncols))


def drop_top_pullback(n: int, k: int) -> scipy.sparse.csr_array:
    """J_k: pull a function of k-1 labeled particles back through dropping the
    top one, the last digit."""
    return _pullback(np.arange(labeled_states(n, k).shape[0]) // n, n ** (k - 1))


def unlabel_map(space: ConfigSpace) -> np.ndarray:
    """Label forgetting as a map: the occupation rank of each labeled state."""
    states = labeled_states(space.n, space.k)
    # the key of a state's occupation sums the place value of each particle's site
    return space.rank_keys(space.place[states].sum(axis=1))


def symmetrizer(unlabel: np.ndarray, average: np.ndarray) -> tuple:
    """The factors (P_k, Q_k) of S_k = P_k Q_k as CSR, from label forgetting
    as a map `unlabel` and Q_k's value on each rank's row `average`: P_k
    pulls back through `unlabel`, and Q_k is P_k transposed with row r
    scaled by average[r]."""
    fibers = np.bincount(unlabel, minlength=average.size)
    # row r of Q_k holds the states of rank r, in increasing order
    q = scipy.sparse.csr_array((np.repeat(average, fibers), np.argsort(unlabel, kind="stable"),
                                np.concatenate([[0], np.cumsum(fibers)])),
                               shape=(average.size, unlabel.size))
    return _pullback(unlabel, average.size), q


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
    generators as CSR, the shared law `omega`, and the label maps as
    arrays.  `unlabel` is P_k as a map, the occupation rank of each labeled
    state; `average` holds Q_k's value on each rank's row, prod eta_x! / k!,
    one over the rank's labelings.  The top drop J_k sends labeled state a
    to a // n, and the bottom particle of a sits at a // n^(k-1)."""

    def __init__(self, level: Level):
        graph, k = level.graph, level.k
        self.symmetric, self.lookdown = build_labeled_generators(graph, k)
        self.unlabel = unlabel_map(level.space)
        # each rank's labelings, k! / prod eta_x!, are the states it holds
        self.average = 1.0 / np.bincount(self.unlabel, minlength=level.space.size)
        self.omega = labeled_stationary_measure(graph, k)


def _block_check(identity: str, y, x, unlabel: np.ndarray, average: np.ndarray) -> CheckResult:
    """`identity_check` of P Y against X Q, both n^k x n^k, from the CSR
    factors Y (ranks x states) and X (states x ranks) alone.  On the block of
    rows F_r and columns F_s, F_r the states of rank r, the sides read
    y = Y[r, c] and x = X[a, s] average[s], so the block's largest |y - x| is
    max(max y - min x, max x - min y), and it stays exact under rounding: a
    rounded subtraction is monotone in each operand."""
    size = average.size
    fibers = np.bincount(unlabel, minlength=size)
    x_vals = x.data * average[x.indices]
    y_keys = np.repeat(np.arange(size) * size, np.diff(y.indptr)) + unlabel[y.indices]
    x_keys = np.repeat(unlabel * size, np.diff(x.indptr)) + x.indices
    blocks, where = np.unique(np.concatenate([y_keys, x_keys]), return_inverse=True)
    highs, lows = [], []
    for at, vals, width in ((where[:y_keys.size], y.data, fibers[blocks % size]),
                            (where[y_keys.size:], x_vals, fibers[blocks // size])):
        high, low = np.full(blocks.size, -np.inf), np.full(blocks.size, np.inf)
        np.maximum.at(high, at, vals)
        np.minimum.at(low, at, vals)
        # a block with fewer stored entries than its width holds a zero too
        sparse = np.bincount(at, minlength=blocks.size) < width
        high[sparse], low[sparse] = np.maximum(high[sparse], 0.0), np.minimum(low[sparse], 0.0)
        highs.append(high)
        lows.append(low)
    residual = np.maximum(highs[0] - lows[1], highs[1] - lows[0]).max(initial=0.0)
    scale = max(1.0, float(np.abs(y.data).max(initial=0.0)),
                float(np.abs(x_vals).max(initial=0.0)))
    return make_check(identity, float(residual), IDENTITY_RTOL * scale)


def check_labeled_identities(level: Level) -> list[CheckResult]:
    """All matrix identities tying the labeled models to the unlabeled one.

    Includes the top-drop intertwining, the exchange of symmetrization
    with both labeled generators, label forgetting onto the unlabeled
    generator, and the full removal-intertwining chain replayed through
    the labeled route, with the endpoints compared against the directly
    assembled removal matrices.  The unlabeled and labeled pieces come
    from `level` and its `lower`.

    P_k, Q_k and J_k are CSR matrices, and every product is applied right
    to left.  Sides with the level-(k-1) ranks as columns are dense arrays,
    under LABELED_CAP none over 560k entries; the others stay CSR.  P
    gathers rows and reaches every rank, so sides P X and P Y are compared
    as X and Y; S S = P (Q P) Q is compared with S through
    Q P = diag(fibers * average), and S = P Q is never formed.
    """
    k, n = level.k, level.graph.n
    if k < 2:
        raise InputError("labeled identity suite needs k >= 2")
    hi, lo = level.labeled, level.lower.labeled
    unlabel, average = symmetrizer(hi.unlabel, hi.average)
    unlabel_lo, average_lo = symmetrizer(lo.unlabel, lo.average)
    drop, look, sym = drop_top_pullback(n, k), hi.lookdown, hi.symmetric
    gen_hi, gen_lo = level.generator.matrix, level.lower.generator.matrix.toarray()
    ann = level.annihilation.toarray()
    ann_gen, gen_ann = ann @ gen_lo, gen_hi @ ann
    flat_lo = unlabel_lo.toarray()  # P_{k-1}
    dropped = drop @ flat_lo  # J P_{k-1}
    lowered = average @ dropped  # Q J P_{k-1}
    look_lo_flat, sym_unlabel = lo.lookdown @ flat_lo, sym @ unlabel
    square = np.bincount(hi.unlabel, minlength=hi.average.size) * hi.average ** 2
    checks = [
        make_check(f"symmetrizer-projection[k={k}]", float(np.abs(square - hi.average).max()),
                   IDENTITY_RTOL * max(1.0, float(square.max()), float(hi.average.max()))),
        identity_check(f"removal-as-labeled[k={k}]", ann, k * lowered),
        identity_check(f"top-drop-intertwining[k={k}]", drop @ lo.lookdown, look @ drop),
        _block_check(f"symmetrize-lookdown[k={k}]", average @ look, sym_unlabel,
                     hi.unlabel, hi.average),
        identity_check(f"unlabel-symmetric[k={k}]", sym_unlabel, unlabel @ gen_hi),
        identity_check(f"unlabel-symmetric-averaged[k={k}]", average @ sym_unlabel, gen_hi),
        identity_check(f"unlabel-lookdown-averaged[k={k}]", average @ (look @ unlabel), gen_hi),
    ]
    # labeled replay of the removal intertwining, step by step: the first
    # six sides, P a, are compared as a
    steps = itertools.count(1)

    def step(lhs, rhs):
        checks.append(identity_check(f"labeled-chain-step-{next(steps)}[k={k}]", lhs, rhs))
        return rhs

    side = step(ann_gen / k, average @ (drop @ (unlabel_lo @ gen_lo)))
    side = step(side, average @ (drop @ (lo.symmetric @ (unlabel_lo @ (average_lo @ flat_lo)))))
    side = step(side, average @ (drop @ (unlabel_lo @ (average_lo @ look_lo_flat))))
    side = step(side, average @ (drop @ look_lo_flat))
    side = step(side, average @ (look @ dropped))
    side = step(unlabel @ side, sym @ (unlabel @ lowered))
    side = step(side, sym @ (unlabel @ (average @ (unlabel @ ann))) / k)
    step(side, unlabel @ gen_ann / k)
    checks.append(identity_check(f"labeled-chain-endpoints[k={k}]", ann_gen, gen_ann))
    # S J against S (J P_{k-1}) Q_{k-1}, compared as Q J against (Q J P_{k-1}) Q_{k-1}
    checks.append(identity_check(f"flatten-then-drop[k={k}]", average @ drop,
                                 lowered @ average_lo))
    # bottom particle of the lookdown model moves as the plain walk
    bottom = np.arange(n ** k) // n ** (k - 1)
    checks.append(identity_check(f"bottom-particle-walk[k={k}]", look @ _pullback(bottom, n),
                                 level.walk.matrix[bottom]))
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
        # every lookdown move has its reverse, so the flux F_ab = omega_a L_ab
        # and its transpose store the same pairs, both in row-major order
        rows = np.repeat(np.arange(look.shape[0]), np.diff(look.indptr))
        flux = scipy.sparse.csr_array((omega[rows] * look.data, look.indices, look.indptr),
                                      shape=look.shape)
        back = flux.T.tocsr()
        if not (np.array_equal(flux.indptr, back.indptr)
                and np.array_equal(flux.indices, back.indices)):
            raise VerificationError("a lookdown move has no reverse move")
        asym = np.abs(flux.data - back.data)
        # off the diagonal the flux is positive, and the diagonal has no asymmetry
        ratio = np.divide(asym, np.maximum(flux.data, back.data), out=np.zeros_like(asym),
                          where=asym > 0.0)
        # the first largest ratio in row-major order, the one a dense argmax picks
        first = int(ratio.argmax())
        worst = float(ratio[first])
        pair = tuple(tuple(int(v) for v in np.unravel_index(i, (graph.n,) * k))
                     for i in (rows[first], flux.indices[first]))
        witness = (pair[0], pair[1], worst)
        # here the check asserts a FAILURE of detailed balance: some pair
        # must carry a flux asymmetry that is not rounding of its own flux
        checks.append(make_check(f"lookdown-breaks-detailed-balance[k={k}]",
                                 max(0.0, 1e-6 - worst), 0.0,
                                 detail=f"max relative flux asymmetry {worst:.6g} between "
                                        f"positions {list(pair[0])} and {list(pair[1])}"))
    push = np.bincount(level.labeled.unlabel, weights=omega, minlength=level.space.size)
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
