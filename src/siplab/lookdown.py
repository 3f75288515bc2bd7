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
forgetting).  This module builds all of those as explicit matrices and
checks each identity, plus the shared stationary law and its failure of
detailed balance for the lookdown (but not the symmetric) model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .configs import ConfigSpace, enumerate_configs, sip_measure
from .errors import InputError, StateCapError
from .graphs import Graph, build_rw_generator, detailed_balance_residual
from .intertwiners import Level
from .reporting import CheckResult, identity_check, make_check

DEFAULT_LABELED_CAP = 4096


def labeled_states(n: int, k: int, cap: int = DEFAULT_LABELED_CAP) -> np.ndarray:
    """All position tuples, ordered by mixed-radix index (bottom digit first)."""
    size = n ** k
    if size > cap:
        raise StateCapError(f"labeled space n^k = {size} exceeds cap {cap}")
    return np.array(list(itertools.product(range(n), repeat=k)), dtype=np.int64)


def labeled_index(positions, n: int) -> int:
    idx = 0
    for p in positions:
        idx = idx * n + int(p)
    return idx


@dataclass(frozen=True)
class LabeledOperator:
    role: str
    k: int
    matrix: np.ndarray


def _labeled_generator(graph: Graph, k: int, lookdown: bool, cap: int) -> np.ndarray:
    n = graph.n
    c = graph.edge_weights
    alpha = graph.site_weights
    states = labeled_states(n, k, cap)
    rows = np.arange(states.shape[0])
    m = np.zeros((rows.size, rows.size))
    # one block per (label i, target site y): every state whose particle i
    # sits next to y moves it there, which shifts the index by (y - x) n^(k-1-i)
    for i in range(k):
        x = states[:, i]
        others = states[:, :i] if lookdown else states
        for y in range(n):
            s = np.flatnonzero(c[x, y])
            company = (2 if lookdown else 1) * np.sum(others[s] == y, axis=1)
            m[s, s + (y - x[s]) * n ** (k - 1 - i)] = c[x[s], y] * (alpha[y] + company)
    np.fill_diagonal(m, -m.sum(axis=1))
    m.setflags(write=False)
    return m


def build_labeled_generators(graph: Graph, k: int,
                             cap: int = DEFAULT_LABELED_CAP) -> tuple[LabeledOperator, LabeledOperator]:
    """(symmetric, lookdown) generator pair on the labeled state space."""
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    sym = _labeled_generator(graph, k, lookdown=False, cap=cap)
    look = _labeled_generator(graph, k, lookdown=True, cap=cap)
    return (LabeledOperator("symmetric", k, sym), LabeledOperator("lookdown", k, look))


def symmetrizer(n: int, k: int, cap: int = DEFAULT_LABELED_CAP) -> LabeledOperator:
    """Average over all k! label permutations; a stochastic projection."""
    states = labeled_states(n, k, cap)
    rows = np.arange(states.shape[0])
    m = np.zeros((rows.size, rows.size))
    place = n ** np.arange(k - 1, -1, -1)
    # each permutation moves every state to exactly one target
    for sigma in itertools.permutations(range(k)):
        m[rows, states[:, sigma] @ place] += 1.0 / math.factorial(k)
    m.setflags(write=False)
    return LabeledOperator("symmetrizer", k, m)


def drop_top_pullback(n: int, k: int, cap: int = DEFAULT_LABELED_CAP) -> LabeledOperator:
    """Pull a function of k-1 labeled particles back through dropping the top one."""
    rows = np.arange(labeled_states(n, k, cap).shape[0])
    m = np.zeros((rows.size, n ** (k - 1)))
    m[rows, rows // n] = 1.0  # the top particle is the last digit
    m.setflags(write=False)
    return LabeledOperator("top-annihilation", k, m)


def unlabel_pullback(space: ConfigSpace, cap: int = DEFAULT_LABELED_CAP) -> np.ndarray:
    """Matrix of f -> f(label-forgetting(.)), labeled states to occupation ranks."""
    states = labeled_states(space.n, space.k, cap)
    occ = np.sum(states[:, :, None] == np.arange(space.n), axis=1)
    m = np.zeros((states.shape[0], space.size))
    m[np.arange(states.shape[0]), space.rank_keys(occ @ space.place)] = 1.0
    m.setflags(write=False)
    return m


def labeled_stationary_measure(graph: Graph, k: int,
                               cap: int = DEFAULT_LABELED_CAP) -> np.ndarray:
    """Shared stationary law: particle i carries weight alpha at its site
    plus the number of lower-labeled companions there."""
    states = labeled_states(graph.n, k, cap)
    omega = np.ones(states.shape[0])
    for i in range(k):
        company = np.sum(states[:, :i] == states[:, i:i + 1], axis=1)
        omega *= graph.site_weights[states[:, i]] + company
    omega /= math.prod(graph.alpha_total + i for i in range(k))
    omega.setflags(write=False)
    return omega


def check_labeled_identities(level: Level, rtol: float = 1e-10,
                             cap: int = DEFAULT_LABELED_CAP) -> list[CheckResult]:
    """All matrix identities tying the labeled models to the unlabeled one.

    Includes the top-drop intertwining, the exchange of symmetrization
    with both labeled generators, label forgetting onto the unlabeled
    generator, and the full removal-intertwining chain replayed through
    the labeled route, with the endpoints compared against the directly
    assembled removal matrices.  The unlabeled pieces come from `level`
    and its `lower`.
    """
    graph, k = level.graph, level.k
    if k < 2:
        raise InputError("labeled identity suite needs k >= 2")
    n = graph.n
    lab_sym_hi, lab_look_hi = (op.matrix for op in build_labeled_generators(graph, k, cap))
    lab_sym_lo, lab_look_lo = (op.matrix for op in build_labeled_generators(graph, k - 1, cap))
    s_hi = symmetrizer(n, k, cap).matrix
    s_lo = symmetrizer(n, k - 1, cap).matrix
    j_hi = drop_top_pullback(n, k, cap).matrix
    gen_hi, gen_lo = level.generator, level.lower.generator
    p_hi = unlabel_pullback(gen_hi.space, cap)
    p_lo = unlabel_pullback(gen_lo.space, cap)
    ann = level.annihilation

    def check(name, lhs, rhs):
        return identity_check(name, lhs, rhs, rtol)

    checks = [
        check(f"symmetrizer-projection[k={k}]", s_hi @ s_hi, s_hi),
        check(f"removal-as-labeled[k={k}]", p_hi @ ann.matrix, k * s_hi @ j_hi @ p_lo),
        check(f"top-drop-intertwining[k={k}]", j_hi @ lab_look_lo, lab_look_hi @ j_hi),
        check(f"symmetrize-lookdown[k={k}]", s_hi @ lab_look_hi, lab_sym_hi @ s_hi),
        check(f"unlabel-symmetric[k={k}]", lab_sym_hi @ p_hi, p_hi @ gen_hi.matrix),
        check(f"unlabel-symmetric-averaged[k={k}]",
              s_hi @ lab_sym_hi @ p_hi, p_hi @ gen_hi.matrix),
        check(f"unlabel-lookdown-averaged[k={k}]",
              s_hi @ lab_look_hi @ p_hi, p_hi @ gen_hi.matrix),
    ]
    # labeled replay of the removal intertwining, step by step
    t = [
        p_hi @ ann.matrix @ gen_lo.matrix / k,
        s_hi @ j_hi @ p_lo @ gen_lo.matrix,
        s_hi @ j_hi @ lab_sym_lo @ s_lo @ p_lo,
        s_hi @ j_hi @ s_lo @ lab_look_lo @ p_lo,
        s_hi @ j_hi @ lab_look_lo @ p_lo,
        s_hi @ lab_look_hi @ j_hi @ p_lo,
        lab_sym_hi @ s_hi @ j_hi @ p_lo,
        lab_sym_hi @ s_hi @ p_hi @ ann.matrix / k,
        p_hi @ gen_hi.matrix @ ann.matrix / k,
    ]
    for step, (lhs, rhs) in enumerate(zip(t[:-1], t[1:])):
        checks.append(check(f"labeled-chain-step-{step + 1}[k={k}]", lhs, rhs))
    checks.append(check(f"labeled-chain-endpoints[k={k}]",
                        ann.matrix @ gen_lo.matrix, gen_hi.matrix @ ann.matrix))
    checks.append(check(f"flatten-then-drop[k={k}]", s_hi @ j_hi, s_hi @ j_hi @ s_lo))
    # bottom particle of the lookdown model moves as the plain walk
    rw = build_rw_generator(graph).matrix
    bottom = np.zeros((n ** k, n))
    bottom[np.arange(n ** k), labeled_states(n, k, cap)[:, 0]] = 1.0
    checks.append(check(f"bottom-particle-walk[k={k}]",
                        lab_look_hi @ bottom, bottom @ rw))
    return checks


@dataclass(frozen=True)
class StationaryLawReport:
    checks: tuple
    nonreversibility_witness: tuple | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_stationary_law(graph: Graph, k: int, rtol: float = 1e-10,
                         cap: int = DEFAULT_LABELED_CAP) -> StationaryLawReport:
    """Stationarity and reversibility structure of the shared labeled law.

    The law is stationary for both labeled generators; the symmetric one
    is reversible for it while the lookdown one must break detailed
    balance on at least one pair (for k >= 2 on any graph with an edge),
    and forgetting labels pushes the law onto the unlabeled reversible
    measure.
    """
    omega = labeled_stationary_measure(graph, k, cap)
    sym, look = build_labeled_generators(graph, k, cap)
    scale = max(1.0, float(np.abs(sym.matrix).max()), float(np.abs(look.matrix).max()))
    checks = [
        make_check(f"stationary-mass[k={k}]", abs(float(omega.sum()) - 1.0), 1e-12),
        make_check(f"stationary-symmetric[k={k}]",
                   float(np.abs(omega @ sym.matrix).max()), rtol * scale),
        make_check(f"stationary-lookdown[k={k}]",
                   float(np.abs(omega @ look.matrix).max()), rtol * scale),
        make_check(f"detailed-balance-symmetric[k={k}]",
                   detailed_balance_residual(sym.matrix, omega), rtol * scale),
    ]
    witness = None
    if k >= 2 and float(graph.edge_weights.max()) > 0.0:
        flux = omega[:, None] * look.matrix
        asym = np.abs(flux - flux.T)
        np.fill_diagonal(asym, 0.0)
        worst = float(asym.max())
        idx = np.unravel_index(int(asym.argmax()), asym.shape)
        states = labeled_states(graph.n, k, cap)
        pair = (tuple(int(v) for v in states[idx[0]]),
                tuple(int(v) for v in states[idx[1]]))
        witness = (pair[0], pair[1], worst)
        # here the check asserts a FAILURE of detailed balance: some pair
        # must carry a macroscopic flux asymmetry
        floor = 1e-6 * scale
        checks.append(make_check(f"lookdown-breaks-detailed-balance[k={k}]",
                                 max(0.0, floor - worst), 0.0,
                                 detail=f"max flux asymmetry {worst:.6g} between "
                                        f"positions {list(pair[0])} and {list(pair[1])}"))
    space = enumerate_configs(graph.n, k)
    mu = sip_measure(graph, space)
    push = omega @ unlabel_pullback(space, cap)
    checks.append(make_check(f"unlabel-pushforward[k={k}]",
                             float(np.abs(push - mu.probabilities).max()), rtol))
    if k >= 2:
        marginal = omega.reshape(-1, graph.n).sum(axis=1)
        checks.append(make_check(f"top-marginal[k={k}]",
                                 float(np.abs(marginal - labeled_stationary_measure(graph, k - 1, cap)).max()),
                                 1e-14))
    return StationaryLawReport(tuple(checks), witness)
