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
through the unlabeled space as S_k = P_k Q_k, with P_k = `unlabel_pullback`
and Q_k[eta, b] = 1[occ(b) = eta] prod_x eta_x! / k! (both from
`symmetrizer`).  The identity suite applies P_k, Q_k and the top drop J_k
as maps between state spaces, by gathers and scatter-adds on index
arrays, and forms neither S_k nor any label map as a matrix.  Each
`intertwiners.Level` builds its `LabeledLevel` once; the matrices P_k,
Q_k and J_k and the dense symmetrizer are test references.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import scipy.sparse

from .configs import ConfigSpace
from .errors import InputError, StateCapError
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


def drop_top_pullback(n: int, k: int) -> scipy.sparse.csr_array:
    """Pull a function of k-1 labeled particles back through dropping the top
    one, the last digit."""
    rows = np.arange(labeled_states(n, k).shape[0])
    return _sparse(np.ones(rows.size), rows, rows // n, (rows.size, n ** (k - 1)))


def unlabel_map(space: ConfigSpace) -> np.ndarray:
    """Label forgetting as a map: the occupation rank of each labeled state."""
    states = labeled_states(space.n, space.k)
    # the key of a state's occupation sums the place value of each particle's site
    return space.rank_keys(space.place[states].sum(axis=1))


def unlabel_pullback(space: ConfigSpace) -> scipy.sparse.csr_array:
    """P_k: f -> f(label-forgetting(.)), labeled states to occupation ranks."""
    ranks = unlabel_map(space)
    rows = np.arange(ranks.size)
    return _sparse(np.ones(rows.size), rows, ranks, (rows.size, space.size))


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


class _Sparse(NamedTuple):
    """A sparse matrix by its stored entries: the row, column and value of
    each, in row order."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    ncols: int

    @classmethod
    def of(cls, m: scipy.sparse.csr_array) -> _Sparse:
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        return cls(rows, m.indices, m.data, m.shape[1])


def _gather(m: scipy.sparse.csr_array, index: np.ndarray) -> _Sparse:
    """Rows index[0], index[1], .. of m: the product of m with a label map
    on its left, P X = X[u] or J X = X[a // n]."""
    starts = m.indptr[index]
    counts = m.indptr[index + 1] - starts
    ends = np.cumsum(counts)
    at = np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)
    return _Sparse(np.repeat(np.arange(index.size), counts), m.indices[at], m.data[at],
                   m.shape[1])


def _sums(keys: np.ndarray, vals: np.ndarray) -> tuple:
    """(the distinct keys ascending, the sum of the values of each, added in
    the order given), as scipy's csr_matmat adds the terms of one entry of a
    product: a stable sort keeps that order among equal keys, and
    np.bincount adds in it."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first], np.bincount(np.cumsum(first) - 1, weights=vals[order])


def _collect(rows, cols, vals, ncols: int) -> _Sparse:
    """The sparse matrix holding at each (row, col) the `_sums` of its values."""
    keys, sums = _sums(rows * ncols + cols, vals)
    return _Sparse(*np.divmod(keys, ncols), sums, ncols)


def _tally(rows, cols, vals, shape) -> np.ndarray:
    """`_collect` into a dense array of the given shape: the sum at each
    (row, col), added in the order given; rows, cols and vals broadcast."""
    keys = np.broadcast_to(rows * shape[1] + cols, np.shape(vals))
    return np.bincount(keys.ravel(), weights=np.ravel(vals),
                       minlength=shape[0] * shape[1]).reshape(shape)


def _repeated_sums(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """counts[i] copies of values[i], added one at a time: an entry of a
    product whose terms are all equal."""
    terms = np.where(np.arange(counts.max()) < counts[:, None], values[:, None], 0.0)
    return np.cumsum(terms, axis=1)[:, -1]


def _residual_check(identity: str, lhs: _Sparse, rhs: _Sparse) -> CheckResult:
    """`identity_check` of two sparse sides of one shape, each holding every
    (row, col) at most once: at each, the lhs value, then the negated rhs value."""
    keys = np.concatenate([lhs.rows * lhs.ncols + lhs.cols, rhs.rows * rhs.ncols + rhs.cols])
    vals = np.concatenate([lhs.vals, -rhs.vals])
    scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
    return make_check(identity, float(np.abs(_sums(keys, vals)[1]).max(initial=0.0)),
                      IDENTITY_RTOL * scale)


def _block_check(identity: str, y: _Sparse, x: _Sparse, ranks, fibers) -> CheckResult:
    """`identity_check` of P Y against X Q, both n^k x n^k, from Y (ranks x
    states) and X (states x ranks) alone, where X's column s already carries
    Q's value on row s.  On the block of rows F_r and columns F_s, F_r the
    states of rank r, the sides read y = Y[r, c] and x = X[a, s], so the
    block's largest |y - x| is max(max y - min x, max x - min y), and it stays
    exact under rounding: a rounded subtraction is monotone in each operand."""
    size = fibers.size
    y_keys = y.rows * size + ranks[y.cols]
    x_keys = ranks[x.rows] * size + x.cols
    blocks, where = np.unique(np.concatenate([y_keys, x_keys]), return_inverse=True)
    highs, lows = [], []
    for at, vals, width in ((where[:y_keys.size], y.vals, fibers[blocks % size]),
                            (where[y_keys.size:], x.vals, fibers[blocks // size])):
        high, low = np.full(blocks.size, -np.inf), np.full(blocks.size, np.inf)
        np.maximum.at(high, at, vals)
        np.minimum.at(low, at, vals)
        # a block with fewer stored entries than its width holds a zero too
        sparse = np.bincount(at, minlength=blocks.size) < width
        high[sparse], low[sparse] = np.maximum(high[sparse], 0.0), np.minimum(low[sparse], 0.0)
        highs.append(high)
        lows.append(low)
    residual = np.maximum(highs[0] - lows[1], highs[1] - lows[0]).max(initial=0.0)
    scale = max(1.0, float(np.abs(y.vals).max(initial=0.0)),
                float(np.abs(x.vals).max(initial=0.0)))
    return make_check(identity, float(residual), IDENTITY_RTOL * scale)


def check_labeled_identities(level: Level) -> list[CheckResult]:
    """All matrix identities tying the labeled models to the unlabeled one.

    Includes the top-drop intertwining, the exchange of symmetrization
    with both labeled generators, label forgetting onto the unlabeled
    generator, and the full removal-intertwining chain replayed through
    the labeled route, with the endpoints compared against the directly
    assembled removal matrices.  The unlabeled and labeled pieces come
    from `level` and its `lower`.

    No label map is a matrix: P X = X[u] and J X = X[a // n] gather rows,
    X Q = X[:, u] * average[u] gathers columns, and X P, X J and Q X add
    each entry's terms in stored order, as scipy's sparse products do, so
    every residual has the bits of those products of the same factors.
    Every map reaches every row, so sides P X and P Y are compared as X
    and Y, and S = P Q is never formed.  Sides of n^k x S_{k-1},
    S_k x S_{k-1}, S_k x n^(k-1) or n^k x n entries are dense arrays: under
    LABELED_CAP none holds more than 560k entries.  Sides of n^k x n^(k-1),
    n^k x S_k, S_k x n^k or S_k x S_k entries stay sparse.
    """
    k, n = level.k, level.graph.n
    if k < 2:
        raise InputError("labeled identity suite needs k >= 2")
    hi, lo = level.labeled, level.lower.labeled
    ranks, ranks_lo, average, average_lo = hi.unlabel, lo.unlabel, hi.average, lo.average
    size, size_lo, states_lo = level.space.size, level.lower.space.size, n ** (k - 1)
    fibers, fibers_lo = np.bincount(ranks, minlength=size), np.bincount(ranks_lo, minlength=size_lo)
    states = np.arange(n * states_lo)
    drop, bottom = states // n, states // states_lo
    drop_rank = ranks_lo[drop]  # J_k P_{k-1} as a map
    sym, look = _Sparse.of(hi.symmetric), _Sparse.of(hi.lookdown)
    sym_lo, look_lo = _Sparse.of(lo.symmetric), _Sparse.of(lo.lookdown)
    gen_hi, gen_lo, ann = level.generator.matrix, level.lower.generator.matrix, level.annihilation
    ann_gen, gen_ann = ann @ gen_lo, gen_hi @ ann

    def averaged(x: _Sparse) -> _Sparse:
        """Q X: row r adds Q's value times each row of X at a state of rank
        r, in increasing state order."""
        r = ranks[x.rows]
        return _collect(r, x.cols, average[r] * x.vals, x.ncols)

    def averaged_dense(x: np.ndarray, maps=ranks, weights=average, rows=size) -> np.ndarray:
        """`averaged` for a dense X, by default at level k."""
        return _tally(maps[:, None], np.arange(x.shape[1]), weights[maps][:, None] * x,
                      (rows, x.shape[1]))

    # S S and S on the block of rank r: fibers[r] equal terms average^2, and average
    square = _repeated_sums(fibers, average * average)
    checks = [make_check(f"symmetrizer-projection[k={k}]", float(np.abs(square - average).max()),
                         IDENTITY_RTOL * max(1.0, float(square.max()), float(average.max())))]
    # Q J P_{k-1}: the share of rank r's states whose lower k-1 particles have rank j
    lowered = _tally(ranks, drop_rank, average[ranks], (size, size_lo))
    sym_unlabel = _collect(sym.rows, ranks[sym.cols], sym.vals, size)
    gen = _Sparse.of(gen_hi)
    removal = ann.toarray()
    checks += [
        identity_check(f"removal-as-labeled[k={k}]", removal, k * lowered),
        _residual_check(f"top-drop-intertwining[k={k}]", _gather(lo.lookdown, drop),
                        _collect(look.rows, drop[look.cols], look.vals, states_lo)),
        _block_check(f"symmetrize-lookdown[k={k}]", averaged(look),
                     sym_unlabel._replace(vals=sym_unlabel.vals * average[sym_unlabel.cols]),
                     ranks, fibers),
        _residual_check(f"unlabel-symmetric[k={k}]", sym_unlabel, _gather(gen_hi, ranks)),
        _residual_check(f"unlabel-symmetric-averaged[k={k}]", averaged(sym_unlabel), gen),
        _residual_check(f"unlabel-lookdown-averaged[k={k}]",
                        averaged(_collect(look.rows, ranks[look.cols], look.vals, size)), gen),
    ]
    # labeled replay of the removal intertwining, step by step, each product
    # applied right to left: the first six sides, P a, are compared as a
    look_lo_unlabel = _tally(look_lo.rows, ranks_lo[look_lo.cols], look_lo.vals,
                             (states_lo, size_lo))
    # S_{k-1} P_{k-1} = P_{k-1} diag(Q_{k-1} P_{k-1}): each rank's fiber of equal terms
    flat_lo = _repeated_sums(fibers_lo, average_lo)[ranks_lo]
    steps = itertools.count(1)

    def step(lhs, rhs):
        checks.append(identity_check(f"labeled-chain-step-{next(steps)}[k={k}]", lhs, rhs))
        return rhs

    side = step((ann_gen / k).toarray(), averaged_dense(gen_lo.toarray()[drop_rank]))
    side = step(side, averaged_dense(_tally(sym_lo.rows, ranks_lo[sym_lo.cols],
                                            sym_lo.vals * flat_lo[sym_lo.cols],
                                            (states_lo, size_lo))[drop]))
    side = step(side, averaged_dense(averaged_dense(look_lo_unlabel, ranks_lo, average_lo,
                                                    size_lo)[drop_rank]))
    side = step(side, averaged_dense(look_lo_unlabel[drop]))
    side = step(side, averaged_dense(_tally(look.rows, drop_rank[look.cols], look.vals,
                                            (states.size, size_lo))))
    # a generator times a gathered dense side adds its terms as the sparse
    # product does, and scipy divides a sparse matrix by k as a product with 1 / k
    side = step(side[ranks], hi.symmetric @ lowered[ranks])
    side = step(side, (hi.symmetric @ averaged_dense(removal[ranks])[ranks]) * (1.0 / k))
    step(side, (gen_ann / k).toarray()[ranks])
    checks.append(identity_check(f"labeled-chain-endpoints[k={k}]", ann_gen, gen_ann))
    # S J against S (J P_{k-1}) Q_{k-1}, compared as Q J against (Q J P_{k-1}) Q_{k-1}
    checks.append(identity_check(f"flatten-then-drop[k={k}]",
                                 _tally(ranks, drop, average[ranks], (size, states_lo)),
                                 lowered[:, ranks_lo] * average_lo[ranks_lo]))
    # bottom particle of the lookdown model moves as the plain walk
    checks.append(identity_check(f"bottom-particle-walk[k={k}]",
                                 _tally(look.rows, bottom[look.cols], look.vals, (states.size, n)),
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
