"""Particle removal and addition operators between occupation levels.

The annihilation operator averages a function of k-1 particles over the
k ways of removing one particle, (A g)(eta) = sum_x eta_x g(eta - delta_x),
and the creation operator is its weighted-addition adjoint,
(C f)(xi) = sum_x (xi_x + alpha_x) f(xi + delta_x).  Both intertwine
consecutive inclusion generators, A L_{k-1} = L_k A and C L_k = L_{k-1} C,
so eigenfunctions at level k either come from level k-1 through A or live
in Ker C, and the two parts are orthogonal in the reversible inner product
(the recursion of Caputo, Liggett and Richthammer).  A_k is injective by an
integer peeling argument read off A_k itself (`peeling_block`), whose
triangular block, solved by Jacobi sweeps, also gives the fresh part, Ker C_k, in
the balanced W_k = D_k^(1/2) A_k D_{k-1}^(-1/2), D_j = diag(mu_j), free of the
scale of mu (`fresh_basis`); the checks read three of its columns.  This
module builds A_k, C_k and W_k as CSR, checks every one of those
identities, the split with no eigensolve, the Dirichlet-form decomposition
for every f as one identity of quadratic forms and on given functions of
Ker C_k, and the comparison with the walks of site weights alpha + xi, a
row per (k-1)-configuration xi, for every test function, edge by edge and
site by site; no check draws a random function.  The two facts together give
the paper's recursion: gap_k = gap_{k-1} whenever b_k = k inf_xi gap_rw(alpha + xi)
>= gap_{k-1}; `ladder_covered` walks the levels it covers, and `sweep` decides each
from the n x n shifted walks alone, by a Cholesky factor of `coverage_forms` and no
eigensolve (`shifted_walks_clear`).  The checks take a `Level`, which builds
each level-k piece once and keeps it; `Level.down_to` walks one chain of
levels, each holding the one below as its `lower`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .configs import (ConfigSpace, SipMeasure, capped_size, enumerate_configs, sip_measure,
                      variance)
from .errors import InputError
from .graphs import Graph, Spectrum, rw_dirichlet_forms
from .lookdown import LabeledLevel
from .reporting import (ENERGY_RTOL, SPECTRAL_RTOL, CheckResult, gap_tolerance, identity_check,
                        make_check, max_abs, pattern_identity_check, residual_tol)
from .sip import SipGenerator, build_sip_generator, sip_dirichlet_form, sip_gap, sip_spectrum


def build_annihilation(low: ConfigSpace, high: ConfigSpace) -> scipy.sparse.csr_array:
    """A_k as CSR, functions on `low` (level k-1) to functions on `high` (level k)."""
    if (high.n, high.k) != (low.n, low.k + 1):
        raise InputError("need the spaces of levels k-1 and k on the same sites")
    occ = high.occupations
    # keys are linear in the occupations: a level-k state read in the level-(k-1)
    # base, less place[x], is the key of eta - delta_x; one entry per occupied x
    s, x = np.nonzero(occ)
    cols = low.rank_keys(low.keys_of(occ)[s] - low.place[x])
    return scipy.sparse.csr_array((occ[s, x].astype(float), (s, cols)),
                                  shape=(high.size, low.size))


def build_creation(graph: Graph, low: ConfigSpace, high: ConfigSpace) -> scipy.sparse.csr_array:
    """C_k as CSR, functions on `high` (level k) to functions on `low` (level k-1)."""
    if (high.n, high.k) != (low.n, low.k + 1):
        raise InputError("need the spaces of levels k-1 and k on the same sites")
    occ = low.occupations
    # one entry per (state, site x): every state gains a particle at each site
    cols = high.rank_keys((high.keys_of(occ)[:, None] + high.place).ravel())
    rows = np.repeat(np.arange(low.size), graph.n)
    return scipy.sparse.csr_array(((occ + graph.site_weights).ravel(), (rows, cols)),
                                  shape=(low.size, high.size))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by name below
def shifted_walk_forms(graph: Graph, beta) -> np.ndarray:
    """H(beta), (len(beta), n, n): D^(1/2) (-Q) D^(-1/2) for the walk of each row of site
    weights beta, -c_xy sqrt(beta_x beta_y) off the diagonal and sum_y c_xy beta_y on it."""
    root, sites = np.sqrt(beta), np.arange(graph.n)
    forms = -graph.edge_weights * root[:, :, None] * root[:, None, :]
    forms[:, sites, sites] = beta @ graph.edge_weights
    if not np.isfinite(forms).all():
        raise InputError("shifted walk rates c[x, y] * (alpha + xi)[y] overflow to infinity")
    return forms


def build_shifted_walks(graph: Graph, space: ConfigSpace) -> tuple[np.ndarray, np.ndarray]:
    """(beta, eigenvalues), both (space.size, n): row s of beta is alpha + xi for
    the s-th configuration xi of `space`, and row s of eigenvalues the ascending
    spectrum of its walk, from one stack of `shifted_walk_forms` solved at once."""
    beta = graph.site_weights + space.occupations
    vals = np.linalg.eigvalsh(shifted_walk_forms(graph, beta))
    beta.setflags(write=False)
    vals.setflags(write=False)
    return beta, vals


LADDER_CHUNK_BYTES = 4 << 20  # of walk forms per factor: 10,700 walks of 7 x 7, 13 of 199 x 199


@np.errstate(over="ignore", invalid="ignore")  # a non-finite form is refused by the caller
def coverage_forms(graph: Graph, beta, floor: float) -> np.ndarray:
    """H(beta) - floor I + 2 floor u u^T, u = sqrt(beta / |beta|), for each row of site
    weights beta, in one array: (2 floor / |beta| - c_xy) sqrt(beta_x beta_y), plus
    sum_y c_xy beta_y - floor on the diagonal."""
    root = np.sqrt(beta)
    forms = 2 * floor / beta.sum(axis=1)[:, None, None] - graph.edge_weights
    forms *= root[:, :, None]
    forms *= root[:, None, :]
    forms.reshape(len(beta), -1)[:, ::graph.n + 1] += beta @ graph.edge_weights - floor
    return forms


def shifted_walks_clear(graph: Graph, space: ConfigSpace, floor: float) -> bool:
    """Whether each walk of `build_shifted_walks` on `space` has its gap, the second
    eigenvalue of H = H(beta), above `floor` > 0, with no eigensolve: H u = 0 for u =
    sqrt(beta / |beta|), so H - floor I + 2 floor u u^T, `coverage_forms`, is positive
    definite exactly then.  One Cholesky factor per LADDER_CHUNK_BYTES of forms, up to
    one that fails or whose forms or factor are not finite."""
    rows = max(1, LADDER_CHUNK_BYTES // (8 * graph.n ** 2))
    for part in np.split(graph.site_weights + space.occupations, range(rows, space.size, rows)):
        form = coverage_forms(graph, part, floor)
        try:
            if not (np.isfinite(form).all() and np.isfinite(np.linalg.cholesky(form)).all()):
                return False
        except np.linalg.LinAlgError:
            return False
    return True


class Level:
    """Level k of the inclusion process on a graph, with the operators
    that tie it to level k-1.

    Each piece is built on first use and kept: `generator` (with `space`
    and `measure`); as CSR, `annihilation` (A_k), `creation` (C_k),
    `balanced_removal`, W_k = D_k^(1/2) A_k D_{k-1}^(-1/2), D_j = diag(mu_j), and
    `removal_sides`, the two sides (A_k L_{k-1}, L_k A_k); the dense `spectrum`
    (eigenvalues only); `gap` from `sip_gap`; `peeling` from `peeling_block`;
    `fresh`, the `fresh_basis` columns of the first three free states, the last repeated if fewer;
    `shifted_walks` from `build_shifted_walks`, and `sections`, the level-k
    ranks of xi + delta_x for its rows xi; and `labeled`, the labeled
    generators, label maps and law.  `lower` is level k-1, the one given or
    one made on first use; `down_to` walks down those.  Level 0 has one state and a 1x1 CSR zero
    generator, its own symmetric form.  Every level reads the single-particle
    walk from the graph, `graph.walk` and `graph.walk_spectrum`.
    """

    def __init__(self, graph: Graph, k: int, lower: Level | None = None):
        if k < 0:
            raise InputError(f"need k >= 0 particles, got {k}")
        if lower is not None and (lower.graph is not graph or lower.k != k - 1):
            raise InputError(f"lower must be level {k - 1} of the same graph")
        self.graph = graph
        self.k = k
        self._lower = lower

    @property
    def lower(self) -> Level:
        if self._lower is None:
            self._lower = Level(self.graph, self.k - 1)
        return self._lower

    def down_to(self, lowest: int) -> list:
        """Levels `lowest`..k, ascending: this level is refused over the state cap
        first, so an over-cap top makes no level below it, then each `lower`."""
        capped_size(self.graph.n, self.k)
        levels = [self]
        while levels[-1].k > lowest:
            levels.append(levels[-1].lower)
        return levels[::-1]

    @cached_property
    def generator(self) -> SipGenerator:
        if self.k == 0:
            space = enumerate_configs(self.graph.n, 0)
            zero = scipy.sparse.csr_array((1, 1))
            return SipGenerator(self.graph, space, zero, sip_measure(self.graph, space), zero)
        return build_sip_generator(self.graph, self.k)

    @property
    def space(self) -> ConfigSpace:
        return self.generator.space

    @property
    def measure(self) -> SipMeasure:
        return self.generator.measure

    @cached_property
    def annihilation(self) -> scipy.sparse.csr_array:
        return build_annihilation(self.lower.space, self.space)

    @cached_property
    def creation(self) -> scipy.sparse.csr_array:
        return build_creation(self.graph, self.lower.space, self.space)

    @cached_property
    def balanced_removal(self) -> scipy.sparse.csr_array:
        return self.balance(self.annihilation)

    @cached_property
    def removal_sides(self) -> tuple:
        ann = self.annihilation
        return ann @ self.lower.generator.matrix, self.generator.matrix @ ann

    def balance(self, m: scipy.sparse.csr_array) -> scipy.sparse.csr_array:
        """D_k^(1/2) m D_{k-1}^(-1/2) for a CSR m from level k-1 to k, and D_{k-1}^(1/2)
        m D_k^(-1/2) for one from level k to k-1, on m's own pattern."""
        d, d_low = np.sqrt(self.measure.probabilities), np.sqrt(self.lower.measure.probabilities)
        left, right = (d, d_low) if m.shape[0] == d.size else (d_low, d)
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        return scipy.sparse.csr_array((m.data * (left[rows] / right[m.indices]), m.indices,
                                       m.indptr), shape=m.shape)

    @cached_property
    def spectrum(self) -> Spectrum:
        return sip_spectrum(self.generator, want_vectors=False)

    @cached_property
    def gap(self) -> float:
        return sip_gap(self.generator)

    @cached_property
    def peeling(self) -> tuple:
        return peeling_block(self)

    @cached_property
    def fresh(self) -> np.ndarray:
        fresh_size = self.space.size - self.lower.space.size
        return fresh_basis(self, np.minimum(np.arange(3), fresh_size - 1))

    @cached_property
    def shifted_walks(self) -> tuple:
        return build_shifted_walks(self.graph, self.lower.space)

    @cached_property
    def sections(self) -> np.ndarray:
        """(S_{k-1}, n) ranks: row t holds the level-k ranks of xi + delta_x, x = 0..n-1,
        xi the t-th configuration of level k-1, the rows of `shifted_walks`."""
        space, low = self.space, self.lower.space
        raised = space.keys_of(low.occupations)[:, None] + space.place
        ranks = space.rank_keys(raised.ravel()).reshape(low.size, self.graph.n)
        ranks.setflags(write=False)
        return ranks

    @cached_property
    def labeled(self) -> LabeledLevel:
        return LabeledLevel(self)


def peeling_block(level: Level) -> tuple:
    """(rows, cols, block, margin) of the peeling argument that A_k is injective.
    `cols` takes the level-(k-1) states xi by decreasing largest occupancy,
    stable, and `rows` the states xi + delta_y, y the first site of largest
    occupancy of xi.  The other states xi + delta_y - delta_x a row reaches
    have a larger largest occupancy, so `block` = A_k[rows][:, cols] is lower
    triangular with diagonal xi_y + 1.  `margin` is 0 if A_k puts an entry off
    that diagonal that reaches no larger largest occupancy, else the least min/max
    ratio of a diagonal entry to its xi_y + 1: exactly 1.0 when the argument holds."""
    occ = level.lower.space.occupations
    cols = np.argsort(-occ.max(axis=1), kind="stable")
    top, y = occ[cols].max(axis=1), occ[cols].argmax(axis=1)
    space = level.space
    rows = space.rank_keys(space.keys_of(occ[cols]) + space.place[y])
    block = level.annihilation[rows][:, cols]
    coo, pivots, diag = block.tocoo(), occ[cols, y] + 1.0, block.diagonal()
    margin = (0.0 if np.any((coo.row != coo.col) & (top[coo.col] <= top[coo.row]))
              else float((np.minimum(diag, pivots) / np.maximum(diag, pivots)).min()))
    return rows, cols, block, margin


def _peeling_sweeps(level: Level, block, rhs: np.ndarray) -> np.ndarray:
    """x with block x = rhs, `peeling_block`'s block or its transpose: off the diagonal it
    reaches larger largest occupancies, of <= max(k-1, 1) values, so as many sweeps solve it."""
    x, diagonal = np.zeros_like(rhs), block.diagonal()[:, None]
    for _ in range(max(level.k - 1, 1)):
        x += (rhs - block @ x) / diagonal
    return x


def invert_annihilation(level: Level, h) -> np.ndarray:
    """The g with A_k g = h, for h in Range A_k: `_peeling_sweeps` on the rows of
    `peeling_block`."""
    h = np.asarray(h, dtype=float)
    if h.shape != (level.space.size,):
        raise InputError(f"h must have length {level.space.size}")
    rows, cols, block, margin = level.peeling
    if margin != 1.0:
        raise InputError("the removal matrix fails the peeling check")
    g = np.empty(cols.size)
    g[cols] = _peeling_sweeps(level, block, h[rows, None])[:, 0]
    return g


def fresh_basis(level: Level, columns=slice(None)) -> np.ndarray:
    """G, S_k x (S_k - S_{k-1}), unit columns spanning Ker W_k^T, not orthogonal, or its
    `columns`.  Each state off the rows of `peeling_block` is free; 1 there, 0 at the other
    free states and x on the rows, block^T x = -A_k[free][:, cols]^T by `_peeling_sweeps`,
    is a g in Ker A_k^T, so D_k^(-1/2) g, scaled to a unit column of G, is in Ker W_k^T; G
    is diagonal on the free states.  The block must pass the peeling order, diagonal nonzero."""
    rows, cols, block, margin = level.peeling
    if not margin > 0.0:
        raise InputError("the peeling block is not triangular with a nonzero diagonal")
    free = np.setdiff1d(np.arange(level.space.size), rows, assume_unique=True)[columns]
    g = np.zeros((level.space.size, free.size))
    g[free, np.arange(free.size)] = 1.0
    g[rows] = _peeling_sweeps(level, block.T, -level.annihilation[free][:, cols].T.toarray())
    g /= np.sqrt(level.measure.probabilities)[:, None]
    g /= np.linalg.norm(g, axis=0)
    g.setflags(write=False)
    return g


def check_adjoint(level: Level) -> CheckResult:
    """<A g, f>_k = (k / (|alpha| + k - 1)) <g, C f>_{k-1} as a matrix identity,
    A_k^T D_k against c D_{k-1} C_k, c that factor, on C_k's CSR pattern by
    `pattern_identity_check`: A_k^T shares it, {(xi, xi + delta_x)}."""
    k = level.k
    factor = k / (level.graph.alpha_total + k - 1)
    ann, cre = level.annihilation.tocoo(), level.creation.sorted_indices()
    return pattern_identity_check(f"adjoint[k={k}]", cre,
                                  factor * level.lower.measure.probabilities, ann.col, ann.row,
                                  ann.data * level.measure.probabilities[ann.row])[0]


def check_intertwinings(level: Level) -> tuple[CheckResult, CheckResult]:
    """Residuals of A L_{k-1} - L_k A and C L_k - L_{k-1} C."""
    k, cre = level.k, level.creation
    high, low = level.generator.matrix, level.lower.generator.matrix
    return (identity_check(f"removal-intertwining[k={k}]", *level.removal_sides),
            identity_check(f"addition-intertwining[k={k}]", cre @ high, low @ cre))


def lift_eigenfunction(graph: Graph, psi, k: int):
    """(f, eigenvalue): a walk eigenfunction psi lifted to level k as
    f(eta) = sum_x psi(x) eta_x.  psi is rejected unless it is an actual
    eigenfunction of the negative walk generator."""
    psi = np.asarray(psi, dtype=float)
    gen = graph.walk
    if psi.shape != (graph.n,):
        raise InputError(f"psi must have length {graph.n}")
    norm = float(np.abs(psi).max())
    if norm == 0.0:
        raise InputError("psi must be nonzero")
    pi = gen.stationary
    lam = float(pi @ (psi * (-gen.matrix @ psi))) / float(pi @ (psi * psi))
    defect = float(np.abs(-gen.matrix @ psi - lam * psi).max())
    scale = max(1.0, float(np.abs(gen.matrix).max())) * norm
    if defect > SPECTRAL_RTOL * scale:
        raise InputError(f"psi is not an eigenfunction (defect {defect:.3e})")
    space = enumerate_configs(graph.n, k)
    return space.occupations @ psi, lam


@dataclass(frozen=True)
class EigenGroup:
    eigenvalue: float
    dim: int
    dim_image: int
    dim_kernel: int


@dataclass(frozen=True)
class EigenDichotomy:
    """The peeling margin and three residuals of `eigen_dichotomy`."""

    injectivity: float
    off_diagonal: float
    image_spectrum: float
    kernel_residual: float
    passed: bool


def eigen_dichotomy(level: Level) -> EigenDichotomy:
    """Check with no eigensolve that L_k splits into Range A_k, which carries
    level k-1's spectrum, and Ker C_k.  With H_k = `generator.symmetric`, W_k =
    `Level.balanced_removal` and G = `Level.fresh`, three columns, it passes when A_k
    passes the exact check of `peeling_block`; when H_k W_k = W_k H_{k-1}
    (with injectivity, level k-1's spectrum on Range W_k), read from
    `Level.removal_sides` as D_k^(1/2) (A_k L_{k-1} - L_k A_k) D_{k-1}^(-1/2),
    and W_k^T H_k G = 0, within `residual_tol` of L_k's largest rate times
    W_k's largest entry; and when c D_{k-1}^(1/2) C_k D_k^(-1/2) G = 0, with
    c = k / (|alpha|+k-1) and C_k balanced on its own pattern, within
    `residual_tol` of W_k's largest entry.  With no G its two residuals are NaN.  The
    other facts give W_k^T H_k g = H_{k-1} W_k^T g = 0 on Ker W_k^T; G checks the arithmetic."""
    k, w, h = level.k, level.balanced_removal, level.generator.symmetric
    injectivity, (ann_gen, gen_ann) = level.peeling[3], level.removal_sides
    image_spectrum = max_abs(level.balance(ann_gen - gen_ann))
    off_diagonal = kernel_residual = math.nan
    if injectivity > 0.0:
        off_diagonal = max_abs(w.T @ (h @ level.fresh))
        c = k / (level.graph.alpha_total + k - 1)
        kernel_residual = c * max_abs(level.balance(level.creation) @ level.fresh)
    bound = residual_tol(max_abs(level.generator.matrix) * max_abs(w))
    passed = (injectivity == 1.0 and off_diagonal <= bound and image_spectrum <= bound
              and kernel_residual <= residual_tol(max_abs(w)))
    return EigenDichotomy(injectivity, off_diagonal, image_spectrum, kernel_residual, passed)


def eigen_groups(level: Level) -> tuple:
    """L_k's spectrum as `EigenGroup`s: level k-1's, on the lifted part by
    `eigen_dichotomy`, joined with the pencil's eigvalsh(G^T H_k G, G^T G), each
    read from its lower triangle, clustered up, each within SPECTRAL_RTOL
    (1 + |value|) of its first."""
    low_vals, g, h = level.lower.spectrum.eigenvalues, fresh_basis(level), level.generator.symmetric
    vals = np.concatenate([low_vals, scipy.linalg.eigvalsh(g.T @ (h @ g), g.T @ g)])
    order = np.argsort(vals, kind="stable")
    vals, is_image = vals[order], order < low_vals.size
    ends = np.searchsorted(vals, vals + SPECTRAL_RTOL * (1.0 + np.abs(vals)), "right").tolist()
    starts = [0]
    while ends[starts[-1]] < vals.size:
        starts.append(ends[starts[-1]])
    dims, n_im = np.diff(starts, append=vals.size), np.add.reduceat(is_image.astype(int), starts)
    means = np.add.reduceat(vals, starts) / dims
    return tuple(map(EigenGroup, means.tolist(), dims.tolist(), n_im.tolist(),
                     (dims - n_im).tolist()))


@dataclass(frozen=True)
class DirichletDecomposition:
    checks: tuple
    energy: float
    decomposed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def dirichlet_decomposition_check(level: Level, f) -> DirichletDecomposition:
    """For f in Ker C_k, taken as given, check in order the rewriting of the level-k
    energy as a weighted sum of single-walk energies with shifted site weights,

        E_k(f) = (|alpha|+k-1) (Z_{k-1}/Z_k) sum_xi mu_{k-1}(xi) D_{alpha+xi}(f_xi),

    that each section f_xi(x) = f(xi+delta_x) has mean (C_k f)(xi) / (|alpha|+k-1)
    zero under its walk's law, and E_k(f) >= k inf_xi gap_rw(alpha+xi) Var(f).  The
    sections are read through `Level.sections`, the walks from `Level.shifted_walks`.
    The first check holds for every f; `dirichlet_form_identity` checks it so, and
    the sip suite reads that in place of the first function's entry."""
    graph, k, gen = level.graph, level.k, level.generator
    f = np.asarray(f, dtype=float)
    mu_low = level.lower.measure
    a_total = graph.alpha_total
    z_ratio = math.exp(mu_low.log_normalization - gen.measure.log_normalization)
    energy = sip_dirichlet_form(gen, f)
    # row t holds the section f(xi + delta_x) of the t-th configuration xi,
    # and row t of beta its walk's site weights alpha + xi
    sections = f[level.sections]
    scale_f = max(1.0, float(np.abs(f).max()) ** 2)
    beta, _ = level.shifted_walks
    shifted_sum = float(mu_low.probabilities @ rw_dirichlet_forms(graph, beta, sections))
    var_residual = float(((level.creation @ f / (a_total + k - 1)) ** 2).max())
    decomposed = (a_total + k - 1) * z_ratio * shifted_sum
    scale_e = max(1.0, abs(energy), abs(decomposed))
    bound = ladder_bound(k, level.shifted_walks[1]) * variance(gen.measure, f)
    checks = (
        make_check(f"dirichlet-decomposition[k={k}]",
                   abs(energy - decomposed), ENERGY_RTOL * scale_e),
        make_check(f"section-variance-reduction[k={k}]", var_residual, ENERGY_RTOL * scale_f),
        make_check(f"kernel-energy-lower-bound[k={k}]",
                   max(0.0, bound - energy), ENERGY_RTOL * max(1.0, abs(bound))),
    )
    return DirichletDecomposition(checks, energy, decomposed)


@dataclass(frozen=True)
class ComparisonReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def minmax_comparison_check(level: Level) -> ComparisonReport:
    """Compare the walk with site weights alpha to each shifted walk, beta =
    alpha + xi a row of `Level.shifted_walks`, xi a configuration of k-1
    particles, over every test function phi at once.  The Dirichlet form bound,
    factor |alpha| / (|alpha|+k-1), holds when the weight c_xy (alpha_x alpha_y
    - beta_x beta_y) / (|alpha|+k-1) of each edge's (phi_x - phi_y)^2 is <= 0;
    the norm bound, factor alpha_min (|alpha|+k-1) / (|alpha| (alpha_min+k-1)),
    when the weight (alpha_min beta_x - alpha_x (alpha_min+k-1)) / (|alpha|
    (alpha_min+k-1)) of each site's phi_x^2 is.  Each residual is the largest
    weight.  Then the eigenvalue bound, factor alpha_min / (alpha_min+k-1), and
    the closing alpha_min k / (alpha_min+k-1) >= min(1, alpha_min)."""
    graph, k = level.graph, level.k
    alpha, a_total, a_min = graph.site_weights, graph.alpha_total, graph.alpha_min
    base_vals = graph.walk_spectrum.eigenvalues
    beta, shift_vals = level.shifted_walks
    x, y = np.nonzero(graph.edge_weights)
    per_edge = graph.edge_weights[x, y] * (alpha[x] * alpha[y] - beta[:, x] * beta[:, y])
    per_site = a_min * beta - alpha * (a_min + k - 1)
    worst_dir = float(per_edge.max(initial=0.0)) / (a_total + k - 1)
    worst_norm = float(per_site.max(initial=0.0)) / (a_total * (a_min + k - 1))
    worst_eig = float((a_min / (a_min + k - 1) * base_vals - shift_vals).max())
    scale = max(1.0, float(np.abs(base_vals).max()))
    scalar_gap = min(1.0, a_min) - a_min * k / (a_min + k - 1) if k >= 2 else 0.0
    checks = (
        make_check(f"dirichlet-comparison[k={k}]", worst_dir, ENERGY_RTOL * scale),
        make_check(f"norm-comparison[k={k}]", worst_norm, ENERGY_RTOL),
        make_check(f"eigenvalue-comparison[k={k}]", max(0.0, worst_eig), ENERGY_RTOL * scale),
        # both terms lie in (0, 1] and carry no time scale, so an absolute
        # bound of a few ulp of 1 fits their difference
        make_check(f"scalar-bound[k={k}]", max(0.0, scalar_gap), 1e-15),
    )
    return ComparisonReport(checks)


def dirichlet_form_identity(level: Level) -> CheckResult:
    """`dirichlet-decomposition[k]` for every f at once, as one identity of forms,

        D_k (-L_k) = (|alpha|+k-1) (Z_{k-1}/Z_k) sum_xi mu_{k-1}(xi) R_xi^T B_{alpha+xi} R_xi,

    R_xi the section map f -> f(xi + delta_.), read from `Level.sections`, and B_beta
    the Dirichlet matrix of the walk with site weights beta, each beta a row of
    `Level.shifted_walks`: -beta_x beta_y c_xy / |beta| off the diagonal and the
    negated row sums on it.  The sum's terms are summed onto L_k's CSR pattern and
    compared there with mu_k (-L_k) by `pattern_identity_check`."""
    graph, k, gen = level.graph, level.k, level.generator.matrix
    beta, ranks, mu_low = level.shifted_walks[0], level.sections, level.lower.measure
    z_ratio = math.exp(mu_low.log_normalization - level.measure.log_normalization)
    weight = (graph.alpha_total + k - 1) * z_ratio * mu_low.probabilities / beta.sum(axis=1)
    x, y = np.nonzero(graph.edge_weights)
    off = -weight[:, None] * beta[:, x] * beta[:, y] * graph.edge_weights[x, y]
    diagonal = weight[:, None] * beta * (beta @ graph.edge_weights)
    rows, cols = (np.concatenate([ranks[:, s], ranks], axis=None) for s in (x, y))
    return pattern_identity_check(f"dirichlet-decomposition[k={k}]", gen,
                                  -level.measure.probabilities, rows, cols,
                                  np.concatenate([off, diagonal], axis=None))[0]


def ladder_bound(k: int, walk_values) -> float:
    """b_k = k inf_xi gap_rw(alpha + xi), from `walk_values`, the eigenvalue rows of
    `build_shifted_walks` on the (k-1)-particle space."""
    return k * float(walk_values[:, 1].min())


def ladder_covered(graph: Graph, ks, clears) -> list:
    """The levels of `ks`, ascending from 2, whose gap is gap_rw by the paper's
    recursion.  On Ker C_k the Dirichlet decomposition gives E_k(f) >= b_k Var(f),
    `ladder_bound`, and the dichotomy spec(L_k) = spec(L_{k-1}) u spec(L_k | Ker C_k)
    then gives gap_k = gap_{k-1} whenever b_k >= gap_{k-1}; from gap_1 = gap_rw, level
    k is covered when every level below it is and `clears(k, margin)`, the caller's test
    of b_k >= margin = gap_rw + `gap_tolerance`: `sweep` asks `shifted_walks_clear` at
    margin / k, and `verify` reads `ladder_bound` of the eigenvalues it holds.  No level
    is tested above the first one not covered, nor the walk solved for no level."""
    covered = []
    for k in ks:
        if not clears(k, graph.walk_spectrum.gap + gap_tolerance(graph)):
            break
        covered.append(k)
    return covered
