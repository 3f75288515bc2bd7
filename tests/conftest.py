"""Shared oracles for the test suite.

These implement each quantity by the most direct route available
(explicit double sums, scipy expm, exhaustive enumeration) so the
library code is always checked against an independent computation.
"""

import functools
import importlib
import itertools
import json
import math
import os
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from siplab.configs import (ConfigSpace, enumerate_configs, rank_composition, sip_measure,
                            space_size, unrank_composition, variance)
from siplab.errors import InputError, VerificationError
from siplab.graphs import (Graph, Spectrum, build_rw_generator, detailed_balance_residual,
                           rw_dirichlet_form, rw_spectrum)
from siplab.intertwiners import EigenGroup, Level, build_annihilation, project_to_kernel
from siplab.lookdown import (build_labeled_generators, drop_top_pullback, labeled_states,
                             labeled_stationary_measure, symmetrizer, unlabel_map)
from siplab.reporting import identity_check, make_check, max_abs, require_reversible
from siplab.sip import SipGenerator, sip_spectrum


# Two graphs at extreme weights where mu spans up to 17 decades: the
# dichotomy and the lookdown witness must read no rounding as a failure.
DEGENERATE_GRAPHS = {
    "G1": {"n": 3, "edges": [[0, 1, 162754.791419], [1, 2, 5.2059]],
           "alpha": [6.14421235e-06, 6.42363213e-05, 79.9795611]},
    "G2": {"n": 4, "edges": [[0, 1, 162754.791419], [1, 2, 1e-9], [2, 3, 54.5693],
                             [0, 3, 162754.791419]],
           "alpha": [6.14421235e-06, 6.14421235e-06, 1.76079682e-04, 6.93692007]},
}


def unreaped(pids) -> list:
    """The pids of `pids` not reaped yet: os.waitpid raises ChildProcessError
    for a reaped one.  A child that has exited unreaped is reaped here."""
    left = []
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        left.append(pid)
    return left


@pytest.fixture(autouse=True)
def forked(monkeypatch):
    """The pids of the children the test forks, each of which must be reaped
    by the end of the test, as the sweep reaps every child it forks."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    assert unreaped(pids) == []


# The contract between the outputs of two builds: the same keys, strings,
# integers, booleans and verdicts; every other float within CONTRACT_RTOL
# relative; and each check's residual within CONTRACT_RESIDUAL of its own
# tolerance of the old residual.
CONTRACT_RTOL = 1e-12
CONTRACT_RESIDUAL = 1e-3


def output_mismatch(old, new, where: str = "output") -> str | None:
    """Where `new` first breaks the contract with `old`, or None.  A dict
    with an identity, a residual and a tolerance is a check."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return f"{where}: keys {sorted(old)} became {sorted(new)}"
        keys = sorted(old)
        if {"identity", "residual", "tolerance"} <= old.keys():
            bound = CONTRACT_RESIDUAL * old["tolerance"]
            if not abs(new["residual"] - old["residual"]) <= bound:
                return f"{where}: residual {old['residual']!r} became {new['residual']!r}"
            keys.remove("residual")
        pairs = ((f"{where}.{key}", old[key], new[key]) for key in keys)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return f"{where}: {len(old)} entries became {len(new)}"
        pairs = ((f"{where}[{i}]", a, b) for i, (a, b) in enumerate(zip(old, new)))
    elif type(old) is not type(new):
        return f"{where}: {old!r} became {new!r}"
    elif isinstance(old, float):
        close = (old == new or (math.isnan(old) and math.isnan(new))
                 or abs(new - old) <= CONTRACT_RTOL * max(abs(old), abs(new)))
        return None if close else f"{where}: {old!r} became {new!r}"
    else:
        return None if old == new else f"{where}: {old!r} became {new!r}"
    return next(filter(None, (output_mismatch(a, b, at) for at, a, b in pairs)), None)


def outputs_equivalent(old, new) -> bool:
    """Whether `new` keeps the contract with `old`, both as `read_output` gives them."""
    return output_mismatch(old, new) is None


def _csv_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_output(path) -> dict | list:
    """A CLI output file: JSON as parsed, or a CSV as its manifest, header
    and rows, each cell a float where it reads as one."""
    text = open(path).read()
    if str(path).endswith(".json"):
        return json.loads(text)
    manifest, header, *rows = text.splitlines()
    return {"manifest": json.loads(manifest.removeprefix("# manifest ")),
            "header": header.split(","),
            "rows": [[_csv_cell(cell) for cell in row.split(",")] for row in rows]}


def label_maps(space: ConfigSpace) -> tuple:
    """(P_k, Q_k) from `symmetrizer` for the labeled states of `space`."""
    unlabel = unlabel_map(space)
    return symmetrizer(unlabel, 1.0 / np.bincount(unlabel, minlength=space.size))


def zero_multiplicity(spec: Spectrum, rtol: float = 1e-9) -> int:
    """Eigenvalues within rtol times the largest one (at least 1) of zero."""
    tol = rtol * max(1.0, float(np.abs(spec.eigenvalues).max()))
    return int(np.sum(np.abs(spec.eigenvalues) <= tol))


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
    m = gen.matrix.toarray()
    total = 0.0
    for s in range(gen.space.size):
        for t in range(gen.space.size):
            if s == t:
                continue
            total += mu[s] * m[s, t] * (f[s] - f[t]) ** 2
    return 0.5 * total


def loop_sip_generator(graph: Graph, k: int) -> np.ndarray:
    """Dense L_k state by state from the jump rates: a particle at x moves to
    y at rate eta_x c[x, y] (alpha_y + eta_y), and each diagonal entry is
    minus its row's sum.  The oracle of `build_sip_generator`."""
    size = space_size(graph.n, k)
    m = np.zeros((size, size))
    for s in range(size):
        eta = unrank_composition(s, graph.n, k)
        for x in np.flatnonzero(eta):
            for y in np.flatnonzero(graph.edge_weights[x]):
                target = list(eta)
                target[x] -= 1
                target[y] += 1
                rate = eta[x] * graph.edge_weights[x, y] * (graph.site_weights[y] + eta[y])
                m[s, rank_composition(target)] = rate
        m[s, s] = -m[s].sum()
    return m


def reference_jumps(graph: Graph, space: ConfigSpace):
    """COO triplets (source, target, rate) of every jump of level k, one block
    per ordered pair (x, y) with c[x, y] > 0 in np.nonzero(c) order, ranked
    one pair at a time.  The oracle of `sip._jumps`."""
    occ = space.occupations
    c = graph.edge_weights
    alpha = graph.site_weights
    empty = np.zeros(0, dtype=np.int64)
    sources, targets, rates = [empty], [empty], [np.zeros(0)]
    for x, y in zip(*np.nonzero(c)):
        s = np.flatnonzero(occ[:, x])
        sources.append(s)
        targets.append(space.rank_keys(space.keys[s] - space.place[x] + space.place[y]))
        rates.append(occ[s, x] * c[x, y] * (alpha[y] + occ[s, y]))
    return np.concatenate(sources), np.concatenate(targets), np.concatenate(rates)


def reference_sip_generator(graph: Graph, k: int) -> SipGenerator:
    """Level k assembled by scipy.sparse arithmetic on the COO triplets of
    `reference_jumps`: a CSR conversion, the exit rates subtracted as a
    diagonal, and the symmetric form checked as sym - sym.T and averaged
    with its transpose.  The oracle of `build_sip_generator`."""
    if k < 1:
        raise InputError(f"need k >= 1 particles, got {k}")
    space = enumerate_configs(graph.n, k)
    mu = sip_measure(graph, space)
    size = space.size
    sources, targets, rates = reference_jumps(graph, space)
    exits = np.bincount(sources, weights=rates, minlength=size)
    m = (scipy.sparse.csr_array((rates, (sources, targets)), shape=(size, size))
         - scipy.sparse.diags_array(exits, dtype=float))
    d = np.sqrt(mu.probabilities)
    rows = np.repeat(np.arange(size), np.diff(m.indptr))
    sym = scipy.sparse.csr_array((-m.data * (d[rows] / d[m.indices]), m.indices, m.indptr),
                                 shape=m.shape)
    try:
        require_reversible(max_abs(sym - sym.T), float(exits.max()))
    except InputError as exc:
        raise VerificationError(f"assembled rate matrix: {exc}") from exc
    return SipGenerator(graph, space, m, mu, 0.5 * (sym + sym.T))


def loop_eigen_groups(level: Level, tol: float = 1e-8) -> tuple:
    """`eigen_dichotomy`'s groups, one searchsorted and one mean per group:
    each group is anchored at its first value.  The oracle of its grouping."""
    low_vals, basis, s = level.lower.spectrum.eigenvalues, level.qr, level.lower.space.size
    m = basis.T @ (-level.measure.probabilities[:, None] * (level.generator.matrix @ basis))
    vals = np.concatenate([low_vals, scipy.linalg.eigvalsh(m[s:, s:])])
    order = np.argsort(vals, kind="stable")
    vals, is_image = vals[order], order < s
    groups, i = [], 0
    while i < len(vals):
        j = int(np.searchsorted(vals, vals[i] + tol * (1.0 + abs(vals[i])), side="right"))
        n_im = int(is_image[i:j].sum())
        groups.append(EigenGroup(float(vals[i:j].mean()), j - i, n_im, j - i - n_im))
        i = j
    return tuple(groups)


def loop_annihilation(graph: Graph, k: int) -> np.ndarray:
    """Dense A_k state by state: A[eta, eta - delta_x] = eta_x."""
    m = np.zeros((space_size(graph.n, k), space_size(graph.n, k - 1)))
    for s in range(m.shape[0]):
        eta = unrank_composition(s, graph.n, k)
        for x in range(graph.n):
            if eta[x] > 0:
                lower = list(eta)
                lower[x] -= 1
                m[s, rank_composition(lower)] = eta[x]
    return m


def loop_creation(graph: Graph, k: int) -> np.ndarray:
    """Dense C_k state by state: C[xi, xi + delta_x] = xi_x + alpha_x."""
    m = np.zeros((space_size(graph.n, k - 1), space_size(graph.n, k)))
    for t in range(m.shape[0]):
        xi = unrank_composition(t, graph.n, k - 1)
        for x in range(graph.n):
            upper = list(xi)
            upper[x] += 1
            m[t, rank_composition(upper)] = xi[x] + graph.site_weights[x]
    return m


def _add_term(acc: dict, expo: tuple, coeff: float) -> None:
    if coeff == 0.0:
        return
    new = acc.get(expo, 0.0) + coeff
    if new == 0.0:
        acc.pop(expo, None)
    else:
        acc[expo] = new


def _diff(poly: dict, x: int) -> dict:
    out = {}
    for expo, coeff in poly.items():
        if expo[x] == 0:
            continue
        lowered = list(expo)
        lowered[x] -= 1
        _add_term(out, tuple(lowered), coeff * expo[x])
    return out


def _mul_site(poly: dict, x: int) -> dict:
    out = {}
    for expo, coeff in poly.items():
        raised = list(expo)
        raised[x] += 1
        _add_term(out, tuple(raised), coeff)
    return out


def _axpy(acc: dict, poly: dict, scale: float) -> None:
    for expo, coeff in poly.items():
        _add_term(acc, expo, scale * coeff)


def dict_bep_generator(poly: dict, graph: Graph) -> dict:
    """The diffusion generator on a polynomial held as an exponent-to-
    coefficient dict, one term at a time, with the edges x < y taken once:
    the oracle of the batched calculus of `siplab.bep`."""
    c, alpha = graph.edge_weights, graph.site_weights
    acc: dict = {}
    for x in range(graph.n):
        dx = _diff(poly, x)
        for y in range(x + 1, graph.n):
            if c[x, y] == 0.0:
                continue
            first = dict(dx)
            _axpy(first, _diff(poly, y), -1.0)
            # drift: -(alpha_y z_x - alpha_x z_y) (d_x - d_y)
            _axpy(acc, _mul_site(first, x), -c[x, y] * alpha[y])
            _axpy(acc, _mul_site(first, y), c[x, y] * alpha[x])
            # diffusion: z_x z_y (d_x - d_y)^2
            second = _diff(first, x)
            _axpy(second, _diff(first, y), -1.0)
            _axpy(acc, _mul_site(_mul_site(second, x), y), c[x, y])
    return acc


def dict_bep_matrix(graph: Graph, k: int) -> np.ndarray:
    """Dense diffusion matrix on the degree-k scaled monomials z^eta / eta!,
    a column per monomial from `dict_bep_generator`, ranked by
    `rank_composition`."""
    size = space_size(graph.n, k)
    m = np.zeros((size, size))
    for col in range(size):
        eta = unrank_composition(col, graph.n, k)
        image = dict_bep_generator({eta: 1.0 / math.prod(map(math.factorial, eta))}, graph)
        for expo, coeff in image.items():
            m[rank_composition(expo), col] = coeff * math.prod(map(math.factorial, expo))
    return m


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
    spaces = [enumerate_configs(graph.n, j) for j in range(level, k + 1)]
    m = build_annihilation(spaces[0], spaces[1]).toarray()
    for low, high in zip(spaces[1:], spaces[2:]):
        m = build_annihilation(low, high) @ m
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


@functools.cache
def dense_symmetrizer(n: int, k: int) -> np.ndarray:
    """Dense average over all k! label permutations of k labeled particles
    on n sites: the oracle for the factored symmetrizer P_k Q_k.  Kept per
    (n, k) and read-only, since k = 8 takes about a second."""
    states = labeled_states(n, k)
    rows = np.arange(states.shape[0])
    m = np.zeros((rows.size, rows.size))
    place = n ** np.arange(k - 1, -1, -1)
    # each permutation moves every state to exactly one target
    for sigma in itertools.permutations(range(k)):
        m[rows, states[:, sigma] @ place] += 1.0 / math.factorial(k)
    m.setflags(write=False)
    return m


def _dense_labeled(graph: Graph, k: int) -> tuple:
    """(symmetric, lookdown, symmetrizer, top drop) as dense matrices."""
    sym, look = (m.toarray() for m in build_labeled_generators(graph, k))
    return sym, look, dense_symmetrizer(graph.n, k), drop_top_pullback(graph.n, k).toarray()


class SparseLabeled:
    """The labeled pieces of one level as scipy.sparse matrices, as
    `reference_labeled_identities` multiplies them: the level's `symmetric`
    and `lookdown` generators, `unlabel` (P_k) and `average` (Q_k) from
    `label_maps`, and `drop` (J_k)."""

    def __init__(self, level: Level):
        self.symmetric, self.lookdown = level.labeled.symmetric, level.labeled.lookdown
        self.unlabel, self.average = label_maps(level.space)
        self.drop = drop_top_pullback(level.graph.n, level.k)

    def symmetrize(self, x):
        """S_k x, applied as P_k (Q_k x)."""
        return self.unlabel @ (self.average @ x)


def reference_labeled_identities(level: Level) -> list:
    """The labeled identity suite with every label map a scipy.sparse matrix
    and every step a sparse product, in the suite's order: the reference for
    `check_labeled_identities`, which applies the maps by index arithmetic."""
    graph, k = level.graph, level.k
    hi, lo = SparseLabeled(level), SparseLabeled(level.lower)
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
    bottom = scipy.sparse.csr_array((np.ones(rows.size), (rows, rows // graph.n ** (k - 1))),
                                    shape=(rows.size, graph.n))
    checks.append(identity_check(f"bottom-particle-walk[k={k}]", hi.lookdown @ bottom,
                                 bottom @ build_rw_generator(graph).matrix))
    return checks


def dense_labeled_identities(level: Level) -> list:
    """The labeled identity suite replayed with dense n^k x n^k products
    and the dense symmetrizer, in the suite's order."""
    graph, k, n = level.graph, level.k, level.graph.n
    lab_sym_hi, lab_look_hi, s_hi, j_hi = _dense_labeled(graph, k)
    lab_sym_lo, lab_look_lo, s_lo, _ = _dense_labeled(graph, k - 1)
    gen_hi, gen_lo = level.generator.matrix.toarray(), level.lower.generator.matrix.toarray()
    p_hi = label_maps(level.space)[0].toarray()
    p_lo = label_maps(level.lower.space)[0].toarray()
    ann = level.annihilation.toarray()
    checks = [
        identity_check(f"symmetrizer-projection[k={k}]", s_hi @ s_hi, s_hi),
        identity_check(f"removal-as-labeled[k={k}]", p_hi @ ann, k * s_hi @ j_hi @ p_lo),
        identity_check(f"top-drop-intertwining[k={k}]", j_hi @ lab_look_lo, lab_look_hi @ j_hi),
        identity_check(f"symmetrize-lookdown[k={k}]", s_hi @ lab_look_hi, lab_sym_hi @ s_hi),
        identity_check(f"unlabel-symmetric[k={k}]", lab_sym_hi @ p_hi, p_hi @ gen_hi),
        identity_check(f"unlabel-symmetric-averaged[k={k}]", s_hi @ lab_sym_hi @ p_hi,
                       p_hi @ gen_hi),
        identity_check(f"unlabel-lookdown-averaged[k={k}]", s_hi @ lab_look_hi @ p_hi,
                       p_hi @ gen_hi),
    ]
    t = [
        p_hi @ ann @ gen_lo / k,
        s_hi @ j_hi @ p_lo @ gen_lo,
        s_hi @ j_hi @ lab_sym_lo @ s_lo @ p_lo,
        s_hi @ j_hi @ s_lo @ lab_look_lo @ p_lo,
        s_hi @ j_hi @ lab_look_lo @ p_lo,
        s_hi @ lab_look_hi @ j_hi @ p_lo,
        lab_sym_hi @ s_hi @ j_hi @ p_lo,
        lab_sym_hi @ s_hi @ p_hi @ ann / k,
        p_hi @ gen_hi @ ann / k,
    ]
    for step, (lhs, rhs) in enumerate(zip(t[:-1], t[1:])):
        checks.append(identity_check(f"labeled-chain-step-{step + 1}[k={k}]", lhs, rhs))
    checks.append(identity_check(f"labeled-chain-endpoints[k={k}]", ann @ gen_lo, gen_hi @ ann))
    checks.append(identity_check(f"flatten-then-drop[k={k}]", s_hi @ j_hi, s_hi @ j_hi @ s_lo))
    bottom = np.zeros((n ** k, n))
    bottom[np.arange(n ** k), labeled_states(n, k)[:, 0]] = 1.0
    checks.append(identity_check(f"bottom-particle-walk[k={k}]", lab_look_hi @ bottom,
                                 bottom @ build_rw_generator(graph).matrix))
    return checks


def dense_stationary_law(level: Level, rtol: float = 1e-10) -> tuple:
    """(checks, witness) of the stationary-law suite on the dense flux,
    the witness at the dense row-major argmax of the flux asymmetry
    relative to the pair's larger flux."""
    graph, k = level.graph, level.k
    omega = labeled_stationary_measure(graph, k)
    sym, look, _, _ = _dense_labeled(graph, k)
    scale = max(1.0, float(np.abs(sym).max()), float(np.abs(look).max()))
    checks = [
        make_check(f"stationary-mass[k={k}]", abs(float(omega.sum()) - 1.0), 1e-12),
        make_check(f"stationary-symmetric[k={k}]", float(np.abs(omega @ sym).max()), rtol * scale),
        make_check(f"stationary-lookdown[k={k}]", float(np.abs(omega @ look).max()), rtol * scale),
        make_check(f"detailed-balance-symmetric[k={k}]",
                   detailed_balance_residual(sym, omega), rtol * scale),
    ]
    witness = None
    if k >= 2 and float(graph.edge_weights.max()) > 0.0:
        flux = omega[:, None] * look
        asym = np.abs(flux - flux.T)
        np.fill_diagonal(asym, 0.0)
        ratio = np.divide(asym, np.maximum(flux, flux.T), out=np.zeros_like(asym),
                          where=asym > 0.0)
        worst = float(ratio.max())
        states = labeled_states(graph.n, k)
        pair = tuple(tuple(int(v) for v in states[i])
                     for i in np.unravel_index(int(ratio.argmax()), ratio.shape))
        witness = (pair[0], pair[1], worst)
        checks.append(make_check(f"lookdown-breaks-detailed-balance[k={k}]",
                                 max(0.0, 1e-6 - worst), 0.0,
                                 detail=f"max relative flux asymmetry {worst:.6g} between "
                                        f"positions {list(pair[0])} and {list(pair[1])}"))
    push = omega @ label_maps(level.space)[0].toarray()
    checks.append(make_check(f"unlabel-pushforward[k={k}]",
                             float(np.abs(push - level.measure.probabilities).max()), rtol))
    if k >= 2:
        marginal = omega.reshape(-1, graph.n).sum(axis=1)
        lower = labeled_stationary_measure(graph, k - 1)
        checks.append(make_check(f"top-marginal[k={k}]",
                                 float(np.abs(marginal - lower).max()), 1e-14))
    return checks, witness


def spectrum_included(small: np.ndarray, large: np.ndarray, rtol: float = 1e-8) -> bool:
    """Greedy sorted pairing: every value of `small` matched in `large`,
    with multiplicity, within rtol * (1 + |value|)."""
    small = np.sort(np.asarray(small, dtype=float))
    large = np.sort(np.asarray(large, dtype=float))
    used = np.zeros(large.size, dtype=bool)
    j = 0
    for s in small:
        tol = rtol * (1.0 + abs(s))
        while j < large.size and (used[j] or large[j] < s - tol):
            j += 1
        if j >= large.size or large[j] > s + tol:
            return False
        used[j] = True
        j += 1
    return True


def kernel_gap(level: Level) -> float:
    """Smallest eigenvalue of the negative generator restricted to Ker C.

    The generator preserves Ker C, and in a mu-orthonormal basis B of it
    the restriction is B^T diag(mu) (-L) B, symmetric by reversibility.
    """
    gen, basis = level.generator, level.kernel
    restricted = basis.T @ (gen.measure.probabilities[:, None] * -gen.matrix.toarray()) @ basis
    return float(scipy.linalg.eigvalsh(0.5 * (restricted + restricted.T))[0])


def svd_kernel_basis(level: Level) -> np.ndarray:
    """Basis of Ker C_k from the full SVD of the addition matrix, cut at
    1e-10 of the top singular value, then made orthonormal in the
    reversible inner product through the Cholesky factor of its Gram
    matrix.  The oracle of `Level.kernel`."""
    _, sv, vt = scipy.linalg.svd(level.creation.toarray(), full_matrices=True)
    basis = vt[int(np.sum(sv > 1e-10 * sv[0])):].T
    gram = basis.T @ (level.measure.probabilities[:, None] * basis)
    chol = scipy.linalg.cholesky(gram, lower=False)
    return scipy.linalg.solve_triangular(chol, basis.T, trans="T").T


class DenseDichotomy(NamedTuple):
    """groups holds (eigenvalue, dim, dim_image, dim_kernel, carried) for
    each eigenvalue cluster of the dense level-k spectrum."""

    groups: tuple
    dim_image_total: int
    dim_kernel_total: int
    passed: bool


def dense_eigen_dichotomy(level: Level, tol: float = 1e-8) -> DenseDichotomy:
    """The eigenspace dichotomy eigenvector by eigenvector: cluster the
    dense level-k eigenpairs, and classify each cluster by the singular
    values of its overlap with an orthonormal basis of D^(1/2) Range A_k,
    at least 1 - tol for a lifted vector and at most tol for a fresh one;
    a vector in between fails.  `carried` marks a cluster whose eigenvalue
    the dense level-(k-1) spectrum holds.  The oracle of `eigen_dichotomy`."""
    spec = sip_spectrum(level.generator)
    low_vals = sip_spectrum(level.lower.generator, want_vectors=False).eigenvalues
    d = np.sqrt(level.measure.probabilities)
    vecs = spec.eigenfunctions * d[:, None]
    q_im = scipy.linalg.orth(d[:, None] * level.annihilation.toarray())
    vals = spec.eigenvalues
    groups, ok, i = [], True, 0
    while i < len(vals):
        j = i + 1
        group_tol = tol * (1.0 + abs(vals[i]))
        while j < len(vals) and vals[j] - vals[i] <= group_tol:
            j += 1
        sv = scipy.linalg.svdvals(q_im.T @ vecs[:, i:j])
        sv = np.concatenate([sv, np.zeros(j - i - sv.size)])
        n_im, n_ker = int(np.sum(sv >= 1.0 - tol)), int(np.sum(sv <= tol))
        ok = ok and n_im + n_ker == j - i
        lam = float(vals[i:j].mean())
        carried = bool(np.any(np.abs(low_vals - lam) <= tol * (1.0 + abs(lam))))
        groups.append((lam, j - i, n_im, n_ker, carried))
        i = j
    dim_im = sum(g[2] for g in groups)
    dim_ker = sum(g[3] for g in groups)
    ok = ok and dim_im == low_vals.size and dim_ker == vals.size - low_vals.size
    return DenseDichotomy(tuple(groups), dim_im, dim_ker, ok)


def assert_dichotomy_matches_dense(level: Level, result) -> None:
    """`eigen_dichotomy`'s verdict and groups equal the dense oracle's:
    eigenvalues to 1e-10 of the largest rate (at least 1), dimensions
    exactly, and the oracle's totals are the level sizes."""
    dense = dense_eigen_dichotomy(level)
    assert result.passed == dense.passed
    assert dense.dim_image_total == result.size_low
    assert dense.dim_kernel_total == result.size_high - result.size_low
    scale = max(1.0, float(np.abs(level.generator.matrix).max()))
    assert len(result.groups) == len(dense.groups)
    for group, (lam, dim, dim_image, dim_kernel, carried) in zip(result.groups, dense.groups):
        assert abs(group.eigenvalue - lam) <= 1e-10 * scale
        assert (group.dim, group.dim_image, group.dim_kernel) == (dim, dim_image, dim_kernel)
        assert carried == (group.dim_image > 0)


def loop_shifted_walks(level: Level) -> list:
    """(xi, walk, eigenvalues) for each level-(k-1) configuration xi in rank
    order, one walk generator and one eigensolve at a time: the oracle of
    `build_shifted_walks`."""
    graph = level.graph
    walks = []
    for xi in level.lower.space.occupations:
        walk = build_rw_generator(graph.with_site_weights(graph.site_weights + xi))
        walks.append((xi, walk, rw_spectrum(walk, want_vectors=False).eigenvalues))
    return walks


def loop_dirichlet_decomposition(level: Level, f, rtol: float = 1e-9) -> tuple:
    """The checks of `dirichlet_decomposition_check`, one walk and one
    section at a time."""
    graph, k, gen = level.graph, level.k, level.generator
    f = project_to_kernel(level, f)
    space, low, mu_low = gen.space, level.lower.space, level.lower.measure
    a_total = graph.alpha_total
    z_ratio = math.exp(mu_low.log_normalization - gen.measure.log_normalization)
    energy = float(gen.measure.probabilities @ (f * (-gen.matrix.toarray() @ f)))
    shifted_sum = 0.0
    var_residual = 0.0
    scale_f = max(1.0, float(np.abs(f).max()) ** 2)
    walks = loop_shifted_walks(level)
    for t, (xi, walk, _) in enumerate(walks):
        section = np.array([f[space.rank(xi + np.eye(graph.n, dtype=int)[x])]
                            for x in range(graph.n)])
        shifted_sum += mu_low.probabilities[t] * rw_dirichlet_form(walk, section)
        weights = (graph.site_weights + xi) / (a_total + k - 1)
        plain_second = float(weights @ (section * section))
        sec_mean = float(weights @ section)
        var = plain_second - sec_mean ** 2
        var_residual = max(var_residual, abs(var - plain_second))
    decomposed = (a_total + k - 1) * z_ratio * shifted_sum
    scale_e = max(1.0, abs(energy), abs(decomposed))
    inf_gap = min(float(vals[1]) for _, _, vals in walks)
    bound = k * inf_gap * variance(gen.measure, f)
    return (
        make_check(f"dirichlet-decomposition[k={k}]",
                   abs(energy - decomposed), rtol * scale_e),
        make_check(f"section-variance-reduction[k={k}]", var_residual, rtol * scale_f),
        make_check(f"kernel-energy-lower-bound[k={k}]",
                   max(0.0, bound - energy), rtol * max(1.0, abs(bound))),
    )


def loop_minmax_comparison(level: Level, n_phi: int = 50, rng=None, rtol: float = 1e-9) -> tuple:
    """The checks of `minmax_comparison_check`, one walk and one test
    function at a time, from the same single draw of test functions."""
    if rng is None:
        rng = np.random.default_rng(0)
    graph, k = level.graph, level.k
    alpha = graph.site_weights
    a_total = graph.alpha_total
    a_min = graph.alpha_min
    base_gen = build_rw_generator(graph)
    base_vals = rw_spectrum(base_gen, want_vectors=False).eigenvalues
    phis = rng.standard_normal((n_phi, graph.n))
    dirichlet_factor = a_total / (a_total + k - 1)
    norm_factor = a_min * (a_total + k - 1) / (a_total * (a_min + k - 1))
    eig_factor = a_min / (a_min + k - 1)
    worst_dir = 0.0
    worst_norm = 0.0
    worst_eig = 0.0
    base_d = np.array([rw_dirichlet_form(base_gen, phi) for phi in phis])
    base_norm = np.array([float((alpha / a_total) @ (phi * phi)) for phi in phis])
    for xi, sh_gen, sh_vals in loop_shifted_walks(level):
        beta = alpha + xi
        for i, phi in enumerate(phis):
            d_shift = rw_dirichlet_form(sh_gen, phi)
            worst_dir = max(worst_dir, dirichlet_factor * base_d[i] - d_shift)
            n_shift = float((beta / beta.sum()) @ (phi * phi))
            worst_norm = max(worst_norm, norm_factor * n_shift - base_norm[i])
        worst_eig = max(worst_eig, float((eig_factor * base_vals - sh_vals).max()))
    scale = max(1.0, float(np.abs(base_vals).max()))
    scalar_gap = min(1.0, a_min) - a_min * k / (a_min + k - 1) if k >= 2 else 0.0
    return (
        make_check(f"dirichlet-comparison[k={k}]", max(0.0, worst_dir), rtol * scale),
        make_check(f"norm-comparison[k={k}]", max(0.0, worst_norm), rtol),
        make_check(f"eigenvalue-comparison[k={k}]", max(0.0, worst_eig), rtol * scale),
        make_check(f"scalar-bound[k={k}]", max(0.0, scalar_gap), 1e-15),
    )


def _rate_channels(cfg):
    """(rates, move, number of channels) of the rate-by-rate stepper:
    `rates(states)` gives every channel rate of every row, `move(states,
    rows, channel)` applies one chosen channel per listed row in place and
    asserts conservation over the whole batch."""
    c, alpha, n, k = cfg.graph.edge_weights, cfg.graph.site_weights, cfg.graph.n, cfg.k
    if cfg.mode == "sip":
        # channel j moves one particle from src[j] to dst[j]
        src, dst = np.nonzero(c)
        weight = c[src, dst]

        def rates(eta):
            return eta[:, src] * weight * (alpha[dst] + eta[:, dst])

        def move(eta, rows, channel):
            eta[rows, src[channel]] -= 1
            eta[rows, dst[channel]] += 1
            assert np.all(eta >= 0) and np.all(eta.sum(axis=1) == k), \
                "particle number not conserved"
        return rates, move, src.size

    # channel i * n + y moves particle i to site y; c has a zero diagonal
    def rates(pos):
        rows = np.arange(pos.shape[0])
        out = c[pos]
        weight = np.tile(alpha, (rows.size, 1))  # alpha_y + 2 #{j < i : x_j = y}
        for i in range(k):
            out[:, i] *= weight
            weight[rows, pos[:, i]] += 2
        return out.reshape(rows.size, k * n)

    def move(pos, rows, channel):
        pos[rows, channel // n] = channel % n
        assert np.all((pos >= 0) & (pos < n)), "particle left the graph"
    return rates, move, k * n


def rate_pick(rates: np.ndarray, cum: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per row, the channel j with cum[j-1] <= target < cum[j], which has a
    positive rate; when target = u * total rounds up to the total, the last
    channel with a positive rate."""
    channel = np.sum(cum <= target[:, None], axis=1)
    over = channel == cum.shape[1]
    if over.any():
        channel[over] = cum.shape[1] - 1 - np.argmax(rates[over, ::-1] > 0.0, axis=1)
    return channel


def _rate_advance(cfg, rates, move, state: np.ndarray, rng):
    """Advance one batch of (P, width) states past the last sampling time;
    returns the (P, T, width) sampled states and the number of absorbed paths."""
    times = np.asarray(cfg.times)
    P, T = state.shape[0], times.size
    samples = np.empty((P, T, cfg.width), dtype=np.int64)
    clock = np.zeros(P)
    taken = np.zeros(P, dtype=np.int64)
    n_absorbed = 0
    live = np.arange(P)
    while live.size:
        r = rates(state[live])
        cum = np.cumsum(r, axis=1)
        total = cum[:, -1] if r.shape[1] else np.zeros(live.size)
        hold = rng.standard_exponential(live.size)
        u = rng.random(live.size)
        stuck = total <= 0.0
        n_absorbed += int(stuck.sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            jump_at = np.where(stuck, np.inf, clock[live] + hold / total)
        reached = np.searchsorted(times, jump_at)
        fresh = reached - taken[live]
        rows = np.repeat(live, fresh)
        cols = np.repeat(reached - np.cumsum(fresh), fresh) + np.arange(rows.size)
        samples[rows, cols] = state[rows]
        taken[live] = reached
        go = reached < T
        live = live[go]
        move(state, live, rate_pick(r[go], cum[go], (u * total)[go]))
        clock[live] = jump_at[go]
    return samples, n_absorbed


def rate_simulate(cfg, initial=None, observable=None) -> tuple:
    """Oracle for `simulate`: paths as (P, width) state arrays, every channel
    rate evaluated from the dynamics' formula at every round, the same draws
    from the same stream and the same batch split.  Returns the histograms,
    the absorbed count and the observable samples."""
    rng = np.random.default_rng(cfg.seed)
    rates, move, n_channels = _rate_channels(cfg)
    if initial is None:
        if cfg.mode == "sip":
            space = enumerate_configs(cfg.graph.n, cfg.k)
            states, probs = space.occupations, sip_measure(cfg.graph, space).probabilities
        else:
            states = labeled_states(cfg.graph.n, cfg.k)
            probs = labeled_stationary_measure(cfg.graph, cfg.k)
        initial = lambda rng, P: states[rng.choice(states.shape[0], size=P, p=probs)]
    T = len(cfg.times)
    entries = importlib.import_module("siplab.simulate").BATCH_ENTRIES  # the package rebinds the name
    per_batch = max(1, entries // max(n_channels, T * cfg.width))
    histograms = {t: {} for t in cfg.times}
    obs = np.empty((cfg.n_paths, T)) if observable is not None else None
    n_absorbed = 0
    for first in range(0, cfg.n_paths, per_batch):
        P = min(per_batch, cfg.n_paths - first)
        batch = initial(rng, P) if callable(initial) else np.tile(initial, (P, 1))
        state = np.array(batch, dtype=np.int64)
        samples, absorbed = _rate_advance(cfg, rates, move, state, rng)
        n_absorbed += absorbed
        for j, t in enumerate(cfg.times):
            seen, counts = np.unique(samples[:, j], axis=0, return_counts=True)
            for key, count in zip(map(tuple, seen.tolist()), counts.tolist()):
                histograms[t][key] = histograms[t].get(key, 0) + count
        if obs is not None:
            values = observable(samples.reshape(-1, cfg.width))
            obs[first:first + P] = np.asarray(values, dtype=float).reshape(-1, T)
    return histograms, n_absorbed, obs
