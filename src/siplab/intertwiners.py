"""Particle removal and addition operators between occupation levels.

The annihilation operator averages a function of k-1 particles over the
k ways of removing one particle:

    (A g)(eta) = sum_x eta_x g(eta - delta_x),

and the creation operator is its weighted-addition adjoint:

    (C f)(xi) = sum_x (xi_x + alpha_x) f(xi + delta_x).

Both intertwine consecutive inclusion generators, A L_{k-1} = L_k A and
C L_k = L_{k-1} C, which pins the whole eigenstructure: eigenfunctions
at level k either come from level k-1 through A or live in Ker C, and
the two parts are orthogonal in the reversible inner product (the
recursion of Caputo, Liggett and Richthammer).  One QR of the balanced
W_k = D_k^(1/2) A_k D_{k-1}^(-1/2), D_j = diag(mu_j), free of the scale
of mu, gives a basis of both (`removal_qr`); A_k is injective by an
integer peeling argument read off A_k itself (`peeling_block`).  This
module builds A_k (at most n entries a row), C_k (exactly n) and W_k as
CSR, checks every one of those identities, and adds the Dirichlet-form
decomposition and the single-walk comparison bounds used to sandwich
the spectral gap.  Those two run over the shifted walks, site weights
alpha + xi for each (k-1)-configuration xi, as arrays with one row per xi.

Every statement is about one level k or two consecutive ones, so the
checks take a `Level`, which builds each level-k piece once and keeps
it; a `Ladder` shares each level with the one above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .configs import (ConfigSpace, SipMeasure, capped_size, enumerate_configs, sip_measure,
                      variance)
from .errors import InputError
from .graphs import (Graph, RwGenerator, Spectrum, build_rw_generator, rw_dirichlet_forms,
                     rw_spectrum, symmetrize_reversible)
from .lookdown import LabeledLevel
from .reporting import (ENERGY_RTOL, SPECTRAL_RTOL, CheckResult, identity_check, make_check,
                        max_abs, residual_tol)
from .sip import SipGenerator, build_sip_generator, sip_dirichlet_form, sip_gap, sip_spectrum


def build_annihilation(low: ConfigSpace, high: ConfigSpace) -> scipy.sparse.csr_array:
    """A_k as CSR, functions on `low` (level k-1) to functions on `high` (level k)."""
    if (high.n, high.k) != (low.n, low.k + 1):
        raise InputError("need the spaces of levels k-1 and k on the same sites")
    occ = high.occupations
    # keys are linear in the occupations: a level-k state read in the level-(k-1)
    # base, less place[x], is the key of eta - delta_x; one entry per occupied x
    s, x = np.nonzero(occ)
    cols = low.rank_keys((occ @ low.place)[s] - low.place[x])
    return scipy.sparse.csr_array((occ[s, x].astype(float), (s, cols)),
                                  shape=(high.size, low.size))


def build_creation(graph: Graph, low: ConfigSpace, high: ConfigSpace) -> scipy.sparse.csr_array:
    """C_k as CSR, functions on `high` (level k) to functions on `low` (level k-1)."""
    if (high.n, high.k) != (low.n, low.k + 1):
        raise InputError("need the spaces of levels k-1 and k on the same sites")
    occ = low.occupations
    # one entry per (state, site x): every state gains a particle at each site
    cols = high.rank_keys(((occ @ high.place)[:, None] + high.place).ravel())
    rows = np.repeat(np.arange(low.size), graph.n)
    return scipy.sparse.csr_array(((occ + graph.site_weights).ravel(), (rows, cols)),
                                  shape=(low.size, high.size))


def build_shifted_walks(graph: Graph, space: ConfigSpace) -> tuple[np.ndarray, np.ndarray]:
    """(beta, eigenvalues), both (space.size, n): row s of beta is alpha + xi
    for the s-th configuration xi of `space` in rank order, and row s of
    eigenvalues the ascending spectrum of the walk with site weights beta[s],
    all built, checked for reversibility and solved as one stack."""
    beta = graph.site_weights + space.occupations
    rates = graph.edge_weights * beta[:, None, :]
    sites = np.arange(graph.n)
    rates[:, sites, sites] = -rates.sum(axis=2)
    vals = np.linalg.eigvalsh(symmetrize_reversible(rates, beta / beta.sum(axis=1, keepdims=True)))
    beta.setflags(write=False)
    vals.setflags(write=False)
    return beta, vals


class Level:
    """Level k of the inclusion process on a graph, with the operators
    that tie it to level k-1.

    Each piece is built on first use and then kept: `generator` (which
    carries `space` and `measure`), the removal and addition operators
    `annihilation` (A_k) and `creation` (C_k), built from the two levels'
    spaces, and `balanced_removal`, W_k = D_k^(1/2) A_k D_{k-1}^(-1/2) with
    D_j = diag(mu_j), all CSR; the dense `spectrum` (eigenvalues only), the
    `gap` from `sip_gap`, `qr`, the mu-orthonormal basis of `removal_qr`,
    whose trailing columns are `kernel`, a mu-orthonormal basis of Ker C_k,
    `shifted_walks`, the arrays (beta, eigenvalues) of the walks with site
    weights alpha + xi, a row per level-(k-1) configuration xi, and
    `labeled`, the labeled generators, label maps and law.  `lower` is level
    k-1: the one given, else one made on first use.  Level 0 has one state
    and a 1x1 CSR zero generator, which is its own symmetric form.  The
    single-particle `walk` and its `walk_spectrum` (eigenvalues only) are
    built at level 0, and every level above reads level 0's.
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
        # written onto A_k's pattern, as the generator's symmetric form is onto L_k's
        a = self.annihilation
        d, d_low = np.sqrt(self.measure.probabilities), np.sqrt(self.lower.measure.probabilities)
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        return scipy.sparse.csr_array((a.data * (d[rows] / d_low[a.indices]), a.indices,
                                       a.indptr), shape=a.shape)

    @cached_property
    def spectrum(self) -> Spectrum:
        return sip_spectrum(self.generator, want_vectors=False)

    @cached_property
    def walk(self) -> RwGenerator:
        return build_rw_generator(self.graph) if self.k == 0 else self.lower.walk

    @cached_property
    def walk_spectrum(self) -> Spectrum:
        if self.k == 0:
            return rw_spectrum(self.walk, want_vectors=False)
        return self.lower.walk_spectrum

    @cached_property
    def gap(self) -> float:
        return sip_gap(self.generator)

    @cached_property
    def qr(self) -> np.ndarray:
        return removal_qr(self)[0]

    @property
    def kernel(self) -> np.ndarray:
        return self.qr[:, self.lower.space.size:]

    @cached_property
    def shifted_walks(self) -> tuple:
        return build_shifted_walks(self.graph, self.lower.space)

    @cached_property
    def labeled(self) -> LabeledLevel:
        return LabeledLevel(self)


class Ladder:
    """Levels 0, 1, 2, ... of one graph, made bottom-up on first request,
    each holding the one below as its `lower`.  A level over the state cap
    is refused before any level is made."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._levels = [Level(graph, 0)]

    def __getitem__(self, k: int) -> Level:
        capped_size(self.graph.n, k)
        while len(self._levels) <= k:
            self._levels.append(Level(self.graph, len(self._levels), self._levels[-1]))
        return self._levels[k]


def peeling_block(level: Level) -> tuple:
    """(rows, cols, block, margin) of the peeling argument that A_k is injective.

    `cols` takes the level-(k-1) states xi by decreasing largest occupancy,
    stable, and `rows` the states xi + delta_y, y the first site of largest
    occupancy of xi.  The other states xi + delta_y - delta_x a row reaches
    have a larger largest occupancy, so `block` = A_k[rows][:, cols] is lower
    triangular with diagonal xi_y + 1.  `margin` is 0 if the level's own A_k
    puts an entry above that diagonal, else the least min/max ratio of a
    diagonal entry to its xi_y + 1: exactly 1.0 when the argument holds."""
    occ = level.lower.space.occupations
    cols = np.argsort(-occ.max(axis=1), kind="stable")
    y = occ[cols].argmax(axis=1)
    place = level.space.place
    rows = level.space.rank_keys(occ[cols] @ place + place[y])
    block = level.annihilation[rows][:, cols]
    coo, pivots, diag = block.tocoo(), occ[cols, y] + 1.0, block.diagonal()
    margin = (0.0 if np.any(coo.col > coo.row)
              else float((np.minimum(diag, pivots) / np.maximum(diag, pivots)).min()))
    return rows, cols, block, margin


def invert_annihilation(level: Level, h) -> np.ndarray:
    """The g with A_k g = h, for h in Range A_k: one triangular solve on
    the rows of `peeling_block`."""
    h = np.asarray(h, dtype=float)
    if h.shape != (level.space.size,):
        raise InputError(f"h must have length {level.space.size}")
    rows, cols, block, margin = peeling_block(level)
    if margin != 1.0:
        raise InputError("the removal matrix fails the peeling check")
    g = np.empty(cols.size)
    g[cols] = scipy.sparse.linalg.spsolve_triangular(block, h[rows], lower=True)
    return g


def check_adjoint(level: Level) -> CheckResult:
    """<A g, f>_k = (k / (|alpha| + k - 1)) <g, C f>_{k-1} as a matrix identity.

    A_k^T and C_k share the pattern {(xi, xi + delta_x)}, so once their
    indices are sorted the two sides are compared on their CSR values; a
    pattern that differs goes through `identity_check` as sparse sides."""
    k = level.k
    factor = k / (level.graph.alpha_total + k - 1)
    mu, mu_low = level.measure.probabilities, factor * level.lower.measure.probabilities
    ann_t = level.annihilation.T.tocsr()
    cre = level.creation.sorted_indices()
    if not (np.array_equal(ann_t.indptr, cre.indptr)
            and np.array_equal(ann_t.indices, cre.indices)):
        return identity_check(f"adjoint[k={k}]", ann_t * mu[None, :], mu_low[:, None] * cre)
    lhs = ann_t.data * mu[ann_t.indices]
    rhs = mu_low[np.repeat(np.arange(cre.shape[0]), np.diff(cre.indptr))] * cre.data
    return identity_check(f"adjoint[k={k}]", lhs, rhs)


def check_intertwinings(level: Level) -> tuple[CheckResult, CheckResult]:
    """Residuals of A L_{k-1} - L_k A and C L_k - L_{k-1} C."""
    k = level.k
    ann, cre = level.annihilation, level.creation
    high, low = level.generator.matrix, level.lower.generator.matrix
    return (identity_check(f"removal-intertwining[k={k}]", ann @ low, high @ ann),
            identity_check(f"addition-intertwining[k={k}]", cre @ high, low @ cre))


def lift_eigenfunction(graph: Graph, psi, k: int):
    """Lift a walk eigenfunction to level k as f(eta) = sum_x psi(x) eta_x.

    Returns (f, eigenvalue).  psi is rejected unless it is an actual
    eigenfunction of the negative walk generator.
    """
    psi = np.asarray(psi, dtype=float)
    gen = build_rw_generator(graph)
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


def removal_qr(level: Level) -> tuple[np.ndarray, np.ndarray]:
    """(D_k^(-1/2) Q, R) of the full QR W_k = Q R, W_k = `Level.balanced_removal`:
    mu-orthonormal columns, the first S_{k-1} spanning Range A_k and the rest its
    mu-orthogonal complement Ker C_k, as W_k^T = c D_{k-1}^(1/2) C_k D_k^(-1/2),
    c = k / (|alpha| + k - 1), by the adjoint identity."""
    q, r = scipy.linalg.qr(level.balanced_removal.toarray(), overwrite_a=True)
    q /= np.sqrt(level.measure.probabilities)[:, None]
    q.setflags(write=False)
    return q, r


@dataclass(frozen=True)
class EigenGroup:
    eigenvalue: float
    dim: int
    dim_image: int
    dim_kernel: int


@dataclass(frozen=True)
class EigenDichotomy:
    """Eigenvalue groups, the peeling margin and three residuals of `eigen_dichotomy`."""

    groups: tuple
    size_low: int
    size_high: int
    injectivity: float
    off_diagonal: float
    image_spectrum: float
    kernel_residual: float
    passed: bool


def eigen_dichotomy(level: Level) -> EigenDichotomy:
    """Split the spectrum of L_k between lifted eigenfunctions (Range A_k)
    and fresh ones (Ker C_k), in the basis B of `removal_qr`.  It passes when
    A_k passes the exact check of `peeling_block`; when M = B^T D (-L_k) B is
    block diagonal and its image block has the spectrum of level k-1, within
    `residual_tol` of L_k's largest rate; and when the balanced C_k kills the
    kernel, c D_{k-1}^(1/2) C_k B_ker = 0, within `residual_tol` of W_k's
    largest entry, which has no time scale.  Groups cluster the lower spectrum
    and M's fresh eigenvalues, each within SPECTRAL_RTOL (1 + |value|) of its first."""
    low_vals, basis, k = level.lower.spectrum.eigenvalues, level.qr, level.k
    gen, s = level.generator.matrix, low_vals.size
    # D (-L_k) is symmetric by detailed balance, so M is; eigvalsh reads its lower triangle
    m = basis.T @ (-level.measure.probabilities[:, None] * (gen @ basis))
    injectivity = peeling_block(level)[3]
    off_diagonal = float(np.abs(m[s:, :s]).max())
    image_spectrum = float(np.abs(scipy.linalg.eigvalsh(m[:s, :s]) - low_vals).max())
    balance = np.sqrt(level.lower.measure.probabilities) * k / (level.graph.alpha_total + k - 1)
    kernel_residual = float(np.abs(balance[:, None] * (level.creation @ level.kernel)).max())
    bound = residual_tol(max_abs(gen))
    passed = (injectivity == 1.0 and off_diagonal <= bound and image_spectrum <= bound
              and kernel_residual <= residual_tol(max_abs(level.balanced_removal)))
    vals = np.concatenate([low_vals, scipy.linalg.eigvalsh(m[s:, s:])])
    order = np.argsort(vals, kind="stable")
    vals, is_image = vals[order], order < s
    ends = np.searchsorted(vals, vals + SPECTRAL_RTOL * (1.0 + np.abs(vals)), "right").tolist()
    starts = [0]
    while ends[starts[-1]] < vals.size:
        starts.append(ends[starts[-1]])
    dims, n_im = np.diff(starts, append=vals.size), np.add.reduceat(is_image.astype(int), starts)
    means = np.add.reduceat(vals, starts) / dims
    groups = map(EigenGroup, means.tolist(), dims.tolist(), n_im.tolist(), (dims - n_im).tolist())
    return EigenDichotomy(tuple(groups), s, vals.size, injectivity, off_diagonal,
                          image_spectrum, kernel_residual, passed)


def project_to_kernel(level: Level, f) -> np.ndarray:
    """Orthogonal projection (reversible inner product) onto Ker C."""
    return level.kernel @ (level.kernel.T @ (level.measure.probabilities * np.asarray(f, float)))


@dataclass(frozen=True)
class DirichletDecomposition:
    checks: tuple
    energy: float
    decomposed: float
    inf_gap_shifted: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def dirichlet_decomposition_check(level: Level, f) -> DirichletDecomposition:
    """For f in Ker C, rewrite the level-k energy as a weighted sum of
    single-walk energies with shifted site weights and verify it.

    Checks, in order: the exact rewriting

        E_k(f) = (|alpha|+k-1) (Z_{k-1}/Z_k)
                 sum_xi mu_{k-1}(xi) D_{alpha+xi}(f_xi),

    the mean-zero variance reduction of each section f_xi(x) = f(xi+delta_x),
    and the lower bound E_k(f) >= k inf_xi gap_rw(alpha+xi) Var(f).
    """
    graph, k, gen = level.graph, level.k, level.generator
    f = project_to_kernel(level, f)
    space, low, mu_low = gen.space, level.lower.space, level.lower.measure
    a_total = graph.alpha_total
    z_ratio = math.exp(mu_low.log_normalization - gen.measure.log_normalization)
    energy = sip_dirichlet_form(gen, f)
    # row t holds the section f(xi + delta_x) of the t-th configuration xi,
    # and row t of beta its walk's site weights alpha + xi
    raised = (low.occupations @ space.place)[:, None] + space.place[None, :]
    sections = f[space.rank_keys(raised.ravel())].reshape(low.size, graph.n)
    scale_f = max(1.0, float(np.abs(f).max()) ** 2)
    beta, _ = level.shifted_walks
    shifted_sum = float(mu_low.probabilities @ rw_dirichlet_forms(graph, beta, sections))
    weights = beta / (a_total + k - 1)
    plain_second = (weights * (sections * sections)).sum(axis=1)
    sec_mean = (weights * sections).sum(axis=1)
    var_residual = float(np.abs((plain_second - sec_mean ** 2) - plain_second).max())
    decomposed = (a_total + k - 1) * z_ratio * shifted_sum
    scale_e = max(1.0, abs(energy), abs(decomposed))
    inf_gap = shifted_walk_gap_infimum(level)
    bound = k * inf_gap * variance(gen.measure, f)
    checks = (
        make_check(f"dirichlet-decomposition[k={k}]",
                   abs(energy - decomposed), ENERGY_RTOL * scale_e),
        make_check(f"section-variance-reduction[k={k}]", var_residual, ENERGY_RTOL * scale_f),
        make_check(f"kernel-energy-lower-bound[k={k}]",
                   max(0.0, bound - energy), ENERGY_RTOL * max(1.0, abs(bound))),
    )
    return DirichletDecomposition(checks, energy, decomposed, inf_gap)


@dataclass(frozen=True)
class ComparisonReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def minmax_comparison_check(level: Level,
                            rng: np.random.Generator | None = None) -> ComparisonReport:
    """Compare the walk with site weights alpha to every shifted walk
    alpha + xi, xi a configuration of k-1 particles.

    Checked for each xi: the Dirichlet form bound with factor
    |alpha| / (|alpha|+k-1) on 50 random test functions, the norm bound
    with factor alpha_min (|alpha|+k-1) / (|alpha| (alpha_min+k-1)),
    the resulting eigenvalue-by-eigenvalue bound with factor
    alpha_min / (alpha_min+k-1), and the closing scalar inequality
    alpha_min k / (alpha_min+k-1) >= min(1, alpha_min).  Every walk meets
    every test function at once, in the tables of `comparison_tables`.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    graph, k = level.graph, level.k
    a_total = graph.alpha_total
    a_min = graph.alpha_min
    base_vals = level.walk_spectrum.eigenvalues
    phis = rng.standard_normal((50, graph.n))
    dirichlet_factor = a_total / (a_total + k - 1)
    norm_factor = a_min * (a_total + k - 1) / (a_total * (a_min + k - 1))
    eig_factor = a_min / (a_min + k - 1)
    beta, shift_vals = level.shifted_walks
    base_d, base_norm = comparison_tables(graph, graph.site_weights[None, :], phis)
    shift_d, shift_norm = comparison_tables(graph, beta, phis)
    worst_dir = float((dirichlet_factor * base_d - shift_d).max())
    worst_norm = float((norm_factor * shift_norm - base_norm).max())
    worst_eig = float((eig_factor * base_vals - shift_vals).max())
    scale = max(1.0, float(np.abs(base_vals).max()))
    scalar_gap = min(1.0, a_min) - a_min * k / (a_min + k - 1) if k >= 2 else 0.0
    checks = (
        make_check(f"dirichlet-comparison[k={k}]", max(0.0, worst_dir), ENERGY_RTOL * scale),
        make_check(f"norm-comparison[k={k}]", max(0.0, worst_norm), ENERGY_RTOL),
        make_check(f"eigenvalue-comparison[k={k}]", max(0.0, worst_eig), ENERGY_RTOL * scale),
        # both terms lie in (0, 1] and carry no time scale, so an absolute
        # bound of a few ulp of 1 fits their difference
        make_check(f"scalar-bound[k={k}]", max(0.0, scalar_gap), 1e-15),
    )
    return ComparisonReport(checks)


def comparison_tables(graph: Graph, beta: np.ndarray, phis: np.ndarray) -> tuple:
    """(energies, norms), both (len(beta), len(phis)): D_beta(phi) and
    sum_x beta_x phi(x)^2 / |beta| for every row beta of `beta` against
    every row phi of `phis`."""
    energies = rw_dirichlet_forms(graph, beta[:, None, :], phis[None, :, :])
    return energies, (beta / beta.sum(axis=1, keepdims=True)) @ (phis * phis).T


def shifted_walk_gap_infimum(level: Level) -> float:
    """inf over xi in the (k-1)-particle space of gap_rw(alpha + xi)."""
    return float(level.shifted_walks[1][:, 1].min())
