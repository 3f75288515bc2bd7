"""Particle removal and addition operators between occupation levels.

The annihilation operator averages a function of k-1 particles over the
k ways of removing one particle:

    (A g)(eta) = sum_x eta_x g(eta - delta_x),

and the creation operator is its weighted-addition adjoint:

    (C f)(xi) = sum_x (xi_x + alpha_x) f(xi + delta_x).

Both intertwine consecutive inclusion generators, A L_{k-1} = L_k A and
C L_k = L_{k-1} C, which pins the whole eigenstructure: eigenfunctions
at level k either come from level k-1 through A or live in Ker C, and
the two parts are orthogonal in the reversible inner product.  This
module builds the operators as exact matrices and provides residual
checks for every one of those identities, plus the Dirichlet-form
decomposition and the single-walk comparison bounds used to sandwich
the spectral gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .configs import ConfigSpace, enumerate_configs, sip_measure, variance
from .errors import InputError
from .graphs import Graph, build_rw_generator, rw_dirichlet_form, rw_gap, rw_spectrum
from .reporting import CheckResult, make_check
from .sip import SipGenerator, build_sip_generator, sip_dirichlet_form, sip_spectrum

SV_CUTOFF = 1e-10


@dataclass(frozen=True)
class AnnihilationOp:
    """Matrix of uniform particle removal, functions on level k-1 to level k."""

    k: int
    matrix: np.ndarray
    space_low: ConfigSpace
    space_high: ConfigSpace


@dataclass(frozen=True)
class CreationOp:
    """Matrix of weighted particle addition, functions on level k to level k-1."""

    k: int
    matrix: np.ndarray
    space_low: ConfigSpace
    space_high: ConfigSpace


def build_annihilation(graph: Graph, k: int, cap: int | None = None) -> AnnihilationOp:
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    low = enumerate_configs(graph.n, k - 1, cap)
    high = enumerate_configs(graph.n, k, cap)
    occ = high.occupations
    keys = occ @ low.place
    m = np.zeros((high.size, low.size))
    # keys are linear in the occupations, so reading level-k states in the
    # level-(k-1) base and subtracting place[x] gives the key of eta - delta_x;
    # one block per site x: every state with a particle there loses it
    for x in range(graph.n):
        s = np.flatnonzero(occ[:, x])
        m[s, low.rank_keys(keys[s] - low.place[x])] = occ[s, x]
    m.setflags(write=False)
    return AnnihilationOp(k, m, low, high)


def build_creation(graph: Graph, k: int, cap: int | None = None) -> CreationOp:
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    low = enumerate_configs(graph.n, k - 1, cap)
    high = enumerate_configs(graph.n, k, cap)
    alpha = graph.site_weights
    occ = low.occupations
    keys = occ @ high.place
    m = np.zeros((low.size, high.size))
    # one block per site x: every state gains a particle there
    for x in range(graph.n):
        m[np.arange(low.size), high.rank_keys(keys + high.place[x])] = occ[:, x] + alpha[x]
    m.setflags(write=False)
    return CreationOp(k, m, low, high)


def injectivity_margin(matrix: np.ndarray) -> float:
    """Smallest over largest singular value; positive means full column rank."""
    sv = scipy.linalg.svdvals(matrix)
    return float(sv[min(matrix.shape) - 1] / sv[0])


def removal_composition(graph: Graph, k: int, level: int, cap: int | None = None) -> np.ndarray:
    """Product of removal matrices taking functions on level `level` up to k.

    Equals (k - level)! times `binomial_removal_matrix` because every
    removal order of the same particle subset contributes once.
    """
    if not 0 <= level < k:
        raise InputError(f"need 0 <= level < k, got level={level}, k={k}")
    m = build_annihilation(graph, level + 1, cap).matrix
    for j in range(level + 2, k + 1):
        m = build_annihilation(graph, j, cap).matrix @ m
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


def invert_annihilation(h, space_high: ConfigSpace, space_low: ConfigSpace) -> np.ndarray:
    """Recover g from h = A g by peeling occupancy levels.

    Configurations of level k-1 are processed by decreasing maximum
    occupancy; evaluating h at xi + delta_y for a maximizing site y
    leaves g(xi) as the only unknown because every other term touches a
    configuration with a strictly larger maximum, already solved.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (space_high.size,):
        raise InputError(f"h must have length {space_high.size}")
    g = np.zeros(space_low.size)
    order = np.argsort(-space_low.occupations.max(axis=1), kind="stable")
    solved = np.zeros(space_low.size, dtype=bool)
    for t in order:
        xi = space_low.occupations[t]
        y = int(np.argmax(xi))
        eta = list(xi)
        eta[y] += 1
        acc = h[space_high.rank(eta)]
        for x in range(space_low.n):
            if x == y or xi[x] == 0:
                continue
            other = list(xi)
            other[x] -= 1
            other[y] += 1
            r = space_low.rank(other)
            if not solved[r]:
                raise InputError("peeling order violated; space inconsistent")
            acc -= xi[x] * g[r]
        g[t] = acc / (xi[y] + 1)
        solved[t] = True
    return g


def check_adjoint(graph: Graph, k: int, rtol: float = 1e-10,
                  cap: int | None = None) -> CheckResult:
    """<A g, f>_k = (k / (|alpha| + k - 1)) <g, C f>_{k-1} as a matrix identity."""
    ann = build_annihilation(graph, k, cap)
    cre = build_creation(graph, k, cap)
    mu_high = sip_measure(graph, ann.space_high)
    mu_low = sip_measure(graph, ann.space_low)
    factor = k / (graph.alpha_total + k - 1)
    lhs = ann.matrix.T @ np.diag(mu_high.probabilities)
    rhs = factor * np.diag(mu_low.probabilities) @ cre.matrix
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    residual = float(np.abs(lhs - rhs).max())
    return make_check(f"adjoint[k={k}]", residual, rtol * scale)


def check_intertwinings(graph: Graph, k: int, rtol: float = 1e-10,
                        cap: int | None = None) -> tuple[CheckResult, CheckResult]:
    """Residuals of A L_{k-1} - L_k A and C L_k - L_{k-1} C."""
    ann = build_annihilation(graph, k, cap)
    cre = build_creation(graph, k, cap)
    gen_high = build_sip_generator(graph, k, cap)
    if k >= 2:
        low_matrix = build_sip_generator(graph, k - 1, cap).matrix
    else:
        low_matrix = np.zeros((1, 1))
    lhs_a = ann.matrix @ low_matrix
    rhs_a = gen_high.matrix @ ann.matrix
    scale_a = max(1.0, float(np.abs(lhs_a).max()), float(np.abs(rhs_a).max()))
    res_a = float(np.abs(lhs_a - rhs_a).max())
    lhs_c = cre.matrix @ gen_high.matrix
    rhs_c = low_matrix @ cre.matrix
    scale_c = max(1.0, float(np.abs(lhs_c).max()), float(np.abs(rhs_c).max()))
    res_c = float(np.abs(lhs_c - rhs_c).max())
    return (make_check(f"removal-intertwining[k={k}]", res_a, rtol * scale_a),
            make_check(f"addition-intertwining[k={k}]", res_c, rtol * scale_c))


def lift_eigenfunction(graph: Graph, psi, k: int, cap: int | None = None):
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
    if defect > 1e-8 * scale:
        raise InputError(f"psi is not an eigenfunction (defect {defect:.3e})")
    space = enumerate_configs(graph.n, k, cap)
    return space.occupations @ psi, lam


def kernel_basis(graph: Graph, k: int, cap: int | None = None,
                 mu_orthonormal: bool = False) -> np.ndarray:
    """Basis of Ker C at level k, columns spanning the null space.

    Computed from the singular value decomposition of the addition
    matrix with cutoff SV_CUTOFF times the top singular value.  With
    mu_orthonormal=True the basis is orthonormalized in the reversible
    inner product instead of the plain one.
    """
    cre = build_creation(graph, k, cap)
    u, sv, vt = scipy.linalg.svd(cre.matrix, full_matrices=True)
    cut = SV_CUTOFF * sv[0]
    rank = int(np.sum(sv > cut))
    basis = vt[rank:].T
    if mu_orthonormal:
        mu = sip_measure(graph, cre.space_high)
        gram = basis.T @ (mu.probabilities[:, None] * basis)
        chol = scipy.linalg.cholesky(gram, lower=False)
        basis = scipy.linalg.solve_triangular(chol, basis.T, trans="T").T
    return basis


@dataclass(frozen=True)
class EigenGroup:
    eigenvalue: float
    dim: int
    dim_image: int
    dim_kernel: int
    carried: bool


@dataclass(frozen=True)
class EigenDichotomy:
    groups: tuple
    dim_image_total: int
    dim_kernel_total: int
    size_low: int
    size_high: int
    passed: bool


def eigen_dichotomy(graph: Graph, k: int, tol: float = 1e-8,
                    cap: int | None = None) -> EigenDichotomy:
    """Split every eigenspace of the level-k generator between lifted
    functions (image of removal) and fresh ones (kernel of addition).

    Degenerate eigenspaces are rotated by the singular vectors of their
    overlap with the image so each basis vector lands cleanly on one
    side; a vector stuck in between fails the classification.
    """
    gen = build_sip_generator(graph, k, cap)
    spec = sip_spectrum(gen)
    ann = build_annihilation(graph, k, cap)
    d = np.sqrt(gen.measure.probabilities)
    # orthonormal coordinates: eigenvectors of the symmetrized operator
    vecs = spec.eigenfunctions * d[:, None]
    q_im = scipy.linalg.orth(d[:, None] * ann.matrix)
    if k >= 2:
        low_vals = sip_spectrum(build_sip_generator(graph, k - 1, cap),
                                want_vectors=False).eigenvalues
    else:
        low_vals = np.zeros(1)
    groups = []
    ok = True
    vals = spec.eigenvalues
    i = 0
    while i < len(vals):
        j = i + 1
        group_tol = tol * (1.0 + abs(vals[i]))
        while j < len(vals) and vals[j] - vals[i] <= group_tol:
            j += 1
        vg = vecs[:, i:j]
        # singular values of the image overlap are the image-projection
        # norms of the rotated eigenbasis, so they classify directly
        sv = scipy.linalg.svdvals(q_im.T @ vg)
        if sv.size < j - i:
            sv = np.concatenate([sv, np.zeros(j - i - sv.size)])
        n_im = int(np.sum(sv >= 1.0 - tol))
        n_ker = int(np.sum(sv <= tol))
        if n_im + n_ker != j - i:
            ok = False
        lam = float(vals[i:j].mean())
        carried = bool(np.any(np.abs(low_vals - lam) <= tol * (1.0 + abs(lam))))
        groups.append(EigenGroup(lam, j - i, n_im, n_ker, carried))
        i = j
    dim_im = sum(g.dim_image for g in groups)
    dim_ker = sum(g.dim_kernel for g in groups)
    ok = ok and dim_im == ann.space_low.size and dim_ker == ann.space_high.size - ann.space_low.size
    return EigenDichotomy(tuple(groups), dim_im, dim_ker,
                          ann.space_low.size, ann.space_high.size, ok)


def project_to_kernel(graph: Graph, k: int, f, cap: int | None = None) -> np.ndarray:
    """Orthogonal projection (reversible inner product) onto Ker C."""
    f = np.asarray(f, dtype=float)
    basis = kernel_basis(graph, k, cap, mu_orthonormal=True)
    mu = sip_measure(graph, enumerate_configs(graph.n, k, cap))
    coeff = basis.T @ (mu.probabilities * f)
    return basis @ coeff


@dataclass(frozen=True)
class DirichletDecomposition:
    checks: tuple
    energy: float
    decomposed: float
    inf_gap_shifted: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def dirichlet_decomposition_check(graph: Graph, k: int, f, rtol: float = 1e-9,
                                  cap: int | None = None,
                                  gen: SipGenerator | None = None) -> DirichletDecomposition:
    """For f in Ker C, rewrite the level-k energy as a weighted sum of
    single-walk energies with shifted site weights and verify it.

    Checks, in order: the exact rewriting

        E_k(f) = (|alpha|+k-1) (Z_{k-1}/Z_k)
                 sum_xi mu_{k-1}(xi) D_{alpha+xi}(f_xi),

    the mean-zero variance reduction of each section f_xi(x) = f(xi+delta_x),
    and the lower bound E_k(f) >= k inf_xi gap_rw(alpha+xi) Var(f).
    """
    if gen is None:
        gen = build_sip_generator(graph, k, cap)
    f = project_to_kernel(graph, k, np.asarray(f, dtype=float), cap)
    space = gen.space
    low = enumerate_configs(graph.n, k - 1, cap)
    mu_low = sip_measure(graph, low)
    a_total = graph.alpha_total
    z_ratio = math.exp(mu_low.log_normalization - gen.measure.log_normalization)
    energy = sip_dirichlet_form(gen, f)
    shifted_sum = 0.0
    inf_gap = math.inf
    var_residual = 0.0
    scale_f = max(1.0, float(np.abs(f).max()) ** 2)
    for t in range(low.size):
        xi = low.occupations[t]
        shifted = graph.with_site_weights(graph.site_weights + xi)
        section = np.empty(graph.n)
        for x in range(graph.n):
            eta = list(xi)
            eta[x] += 1
            section[x] = f[space.rank(eta)]
        rw_gen = build_rw_generator(shifted)
        shifted_sum += mu_low.probabilities[t] * rw_dirichlet_form(rw_gen, section)
        inf_gap = min(inf_gap, rw_spectrum(rw_gen, want_vectors=False).gap)
        weights = (graph.site_weights + xi) / (a_total + k - 1)
        plain_second = float(weights @ (section * section))
        sec_mean = float(weights @ section)
        var = plain_second - sec_mean ** 2
        var_residual = max(var_residual, abs(var - plain_second))
    decomposed = (a_total + k - 1) * z_ratio * shifted_sum
    scale_e = max(1.0, abs(energy), abs(decomposed))
    var_f = variance(gen.measure, f)
    bound = k * inf_gap * var_f
    checks = (
        make_check(f"dirichlet-decomposition[k={k}]",
                   abs(energy - decomposed), rtol * scale_e),
        make_check(f"section-variance-reduction[k={k}]", var_residual, rtol * scale_f),
        make_check(f"kernel-energy-lower-bound[k={k}]",
                   max(0.0, bound - energy), rtol * max(1.0, abs(bound))),
    )
    return DirichletDecomposition(checks, energy, decomposed, inf_gap)


@dataclass(frozen=True)
class ComparisonReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def minmax_comparison_check(graph: Graph, k: int, n_phi: int = 50,
                            rng: np.random.Generator | None = None,
                            rtol: float = 1e-9, cap: int | None = None) -> ComparisonReport:
    """Compare the walk with site weights alpha to every shifted walk
    alpha + xi, xi a configuration of k-1 particles.

    Checked for each xi: the Dirichlet form bound with factor
    |alpha| / (|alpha|+k-1) on random test functions, the norm bound
    with factor alpha_min (|alpha|+k-1) / (|alpha| (alpha_min+k-1)),
    the resulting eigenvalue-by-eigenvalue bound with factor
    alpha_min / (alpha_min+k-1), and the closing scalar inequality
    alpha_min k / (alpha_min+k-1) >= min(1, alpha_min).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    low = enumerate_configs(graph.n, k - 1, cap)
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
    for t in range(low.size):
        xi = low.occupations[t]
        beta = alpha + xi
        shifted = graph.with_site_weights(beta)
        sh_gen = build_rw_generator(shifted)
        sh_vals = rw_spectrum(sh_gen, want_vectors=False).eigenvalues
        for i, phi in enumerate(phis):
            d_shift = rw_dirichlet_form(sh_gen, phi)
            worst_dir = max(worst_dir, dirichlet_factor * base_d[i] - d_shift)
            n_shift = float((beta / beta.sum()) @ (phi * phi))
            worst_norm = max(worst_norm, norm_factor * n_shift - base_norm[i])
        worst_eig = max(worst_eig, float((eig_factor * base_vals - sh_vals).max()))
    scale = max(1.0, float(np.abs(base_vals).max()))
    scalar_gap = min(1.0, a_min) - a_min * k / (a_min + k - 1) if k >= 2 else 0.0
    checks = (
        make_check(f"dirichlet-comparison[k={k}]", max(0.0, worst_dir), rtol * scale),
        make_check(f"norm-comparison[k={k}]", max(0.0, worst_norm), rtol),
        make_check(f"eigenvalue-comparison[k={k}]", max(0.0, worst_eig), rtol * scale),
        make_check(f"scalar-bound[k={k}]", max(0.0, scalar_gap), 1e-15),
    )
    return ComparisonReport(checks)


def kernel_gap(graph: Graph, k: int, cap: int | None = None) -> float:
    """Smallest eigenvalue of the negative generator restricted to Ker C."""
    gen = build_sip_generator(graph, k, cap)
    basis = kernel_basis(graph, k, cap, mu_orthonormal=True)
    d = np.sqrt(gen.measure.probabilities)
    q = d[:, None] * basis
    neg = -gen.matrix
    sym = neg * (d[:, None] / d[None, :])
    sym = 0.5 * (sym + sym.T)
    restricted = q.T @ sym @ q
    return float(scipy.linalg.eigvalsh(restricted)[0])


def shifted_walk_gap_infimum(graph: Graph, k: int, cap: int | None = None) -> float:
    """inf over xi in the (k-1)-particle space of gap_rw(alpha + xi)."""
    low = enumerate_configs(graph.n, k - 1, cap)
    best = math.inf
    for t in range(low.size):
        xi = low.occupations[t]
        best = min(best, rw_gap(graph.with_site_weights(graph.site_weights + xi)))
    return best
