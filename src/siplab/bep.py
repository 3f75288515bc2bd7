"""Energy diffusion on a graph by exact polynomial calculus.

The diffusion moves continuous energies between neighbouring sites,
conserving their total, with second-order generator

    G = (1/2) sum_{x,y} c_xy { -(alpha_y z_x - alpha_x z_y)(d_x - d_y)
                               + z_x z_y (d_x - d_y)^2 }.

G maps a homogeneous polynomial of degree k to another one of degree k,
so its restriction to the degree-k carrier is a finite matrix.  In the
scaled monomial basis z^eta / prod(eta!) that matrix coincides entry by
entry with the k-particle inclusion generator; `bep_matrix` constructs
it purely by symbolic differentiation and checks the coincidence, which
is the algebraic form of the duality between the two processes.  All
spectral statements about the diffusion are then read off from the
particle side.

Polynomials are sparse maps from exponent vectors to coefficients; the
simplex constraint sum(z) = 1 is never substituted, every identity is
checked coefficientwise on the homogeneous carrier where representation
is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.special import gammaln

from .configs import ConfigSpace
from .errors import InputError, VerificationError
from .graphs import Graph, build_rw_generator, gap_tolerance, reversible_spectrum, rw_spectrum
from .intertwiners import Level
from .reporting import CheckResult, identity_check, make_check


@dataclass(frozen=True)
class HomogPolynomial:
    """Homogeneous polynomial as a sparse exponent-to-coefficient map."""

    n: int
    degree: int
    coeffs: dict

    def __post_init__(self):
        clean = {}
        for expo, coeff in self.coeffs.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.n or any(e < 0 for e in expo):
                raise InputError(f"bad exponent vector {expo} for n={self.n}")
            if sum(expo) != self.degree:
                raise InputError(f"exponent {expo} has degree {sum(expo)}, "
                                 f"expected {self.degree}")
            if coeff != 0.0:
                clean[expo] = float(coeff)
        object.__setattr__(self, "coeffs", clean)

    def items_sorted(self):
        """Deterministic iteration in lex order of the exponents, their rank order."""
        return sorted(self.coeffs.items())

    def ranks(self, space: ConfigSpace) -> np.ndarray:
        """Ranks in `space` of the exponents, in the order of `coeffs`."""
        if space.n != self.n or space.k != self.degree:
            raise InputError("space does not match polynomial degree")
        expos = np.array(list(self.coeffs), dtype=np.int64).reshape(-1, self.n)
        return space.rank_keys(expos @ space.place)

    def to_vector(self, space: ConfigSpace) -> np.ndarray:
        v = np.zeros(space.size)
        v[self.ranks(space)] = list(self.coeffs.values())
        return v

    def to_json_list(self) -> list:
        return [{"exponents": list(e), "coeff": c} for e, c in self.items_sorted()]


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


def poly_lift(f, space: ConfigSpace) -> HomogPolynomial:
    """Carry a function on k-particle configurations to the degree-k
    polynomial sum_eta f(eta) z^eta / prod_x eta_x!."""
    f = np.asarray(f, dtype=float)
    if f.shape != (space.size,):
        raise InputError(f"f must have length {space.size}")
    coeffs = {}
    for r in range(space.size):
        if f[r] == 0.0:
            continue
        eta = tuple(int(e) for e in space.occupations[r])
        coeffs[eta] = f[r] / math.prod(math.factorial(e) for e in eta)
    return HomogPolynomial(space.n, space.k, coeffs)


def apply_bep_generator(poly: HomogPolynomial, graph: Graph) -> HomogPolynomial:
    """Apply the diffusion generator symbolically; degree is preserved."""
    if poly.n != graph.n:
        raise InputError(f"polynomial has {poly.n} variables, graph {graph.n}")
    c = graph.edge_weights
    alpha = graph.site_weights
    acc: dict = {}
    base = poly.coeffs
    for x in range(graph.n):
        dx = _diff(base, x)
        for y in range(x + 1, graph.n):
            if c[x, y] == 0.0:
                continue
            dy = _diff(base, y)
            first = dict(dx)
            _axpy(first, dy, -1.0)
            # drift: -(alpha_y z_x - alpha_x z_y) (d_x - d_y)
            _axpy(acc, _mul_site(first, x), -c[x, y] * alpha[y])
            _axpy(acc, _mul_site(first, y), c[x, y] * alpha[x])
            # diffusion: z_x z_y (d_x - d_y)^2
            second = _diff(first, x)
            _axpy(second, _diff(first, y), -1.0)
            _axpy(acc, _mul_site(_mul_site(second, x), y), c[x, y])
    for expo in acc:
        if sum(expo) != poly.degree:
            raise VerificationError(f"generator produced exponent {expo} of degree "
                                    f"{sum(expo)} from degree {poly.degree}")
    return HomogPolynomial(poly.n, poly.degree, acc)


def basis_monomial(space: ConfigSpace, rank: int) -> HomogPolynomial:
    eta = tuple(int(e) for e in space.occupations[rank])
    return HomogPolynomial(space.n, space.k,
                           {eta: 1.0 / math.prod(math.factorial(e) for e in eta)})


@dataclass(frozen=True)
class BepMatrix:
    space: ConfigSpace
    matrix: np.ndarray
    sip_matrix: scipy.sparse.csr_array
    check: CheckResult


def bep_matrix(level: Level, rtol: float = 1e-10) -> BepMatrix:
    """Matrix of the diffusion generator on the degree-k scaled monomials.

    Column eta holds the expansion of G applied to z^eta / prod(eta!).
    The module's central check compares this symbolically assembled
    matrix entrywise with the independently assembled particle
    generator; they must agree to rounding.
    """
    gen = level.generator
    space = gen.space
    m = np.zeros((space.size, space.size))
    factorials = np.array([math.prod(math.factorial(int(e)) for e in occ)
                           for occ in space.occupations])
    for col in range(space.size):
        image = apply_bep_generator(basis_monomial(space, col), level.graph)
        rows = image.ranks(space)
        m[rows, col] = np.fromiter(image.coeffs.values(), float, rows.size) * factorials[rows]
    check = identity_check(f"diffusion-matches-particles[k={level.k}]", m, gen.matrix, rtol)
    return BepMatrix(space, m, gen.matrix, check)


@dataclass(frozen=True)
class SimplexMeasure:
    """Dirichlet equilibrium of the diffusion on the unit simplex."""

    alpha: np.ndarray
    log_beta: float


def simplex_measure(graph: Graph) -> SimplexMeasure:
    alpha = graph.site_weights
    log_beta = float(gammaln(alpha).sum() - gammaln(alpha.sum()))
    return SimplexMeasure(alpha, log_beta)


@dataclass(frozen=True)
class BepGapReport:
    degree_max: int
    gap_rw: float
    gap_bep: float
    level_gaps: dict
    spectrum: np.ndarray
    alpha_min: float
    checks: tuple
    log_beta: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "degree_max": self.degree_max,
            "gap_rw": self.gap_rw,
            "gap_bep_truncated": self.gap_bep,
            "level_gaps": {str(k): v for k, v in sorted(self.level_gaps.items())},
            "alpha_min": self.alpha_min,
            "log_beta": self.log_beta,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "note": "spectrum truncated at the stated polynomial degree; higher "
                    "degrees only add eigenvalues at or above the level gaps",
        }


def bep_gap_report(top: Level, tol: float = 1e-8, strict: bool = False) -> BepGapReport:
    """Spectrum of the diffusion truncated at the polynomial degree top.k.

    Degrees decouple, so the truncated spectrum is the multiset union of
    the per-degree matrix spectra of the levels 1..top.k; its gap is
    compared against the walk gap through the same sandwich as for the
    particle system, with the same tolerance relative to gap_rw
    (`graphs.gap_tolerance`).  A disconnected graph fails a check.
    """
    graph, degree_max = top.graph, top.k
    if degree_max < 1:
        raise InputError(f"need degree_max >= 1, got {degree_max}")
    walk = build_rw_generator(graph)
    gap_rw = rw_spectrum(walk, want_vectors=False).gap
    atol = gap_tolerance(walk, gap_rw, tol)
    values = [np.zeros(1)]  # degree 0: constants, eigenvalue 0
    level_gaps = {}
    checks = []
    # top level first, so one over the state cap is refused before any work
    level = top
    while level.k >= 1:
        built = bep_matrix(level)
        checks.insert(0, built.check)
        spec = reversible_spectrum(built.matrix, level.measure.probabilities,
                                   want_vectors=False)
        level_gaps[level.k] = spec.gap
        values.append(spec.eigenvalues)
        level = level.lower
    spectrum = np.sort(np.concatenate(values))
    gap_bep = min(level_gaps.values())
    a_min = graph.alpha_min
    lower = min(1.0, a_min) * gap_rw
    checks.append(make_check(f"bep-gap-lower[K={degree_max}]",
                             max(0.0, lower - gap_bep), atol))
    checks.append(make_check(f"bep-gap-upper[K={degree_max}]",
                             max(0.0, gap_bep - gap_rw), atol))
    if a_min >= 1.0:
        checks.append(make_check(f"bep-gap-equality[K={degree_max}]",
                                 abs(gap_bep - gap_rw), atol))
    checks.append(make_check(f"walk-gap-in-spectrum[K={degree_max}]",
                             float(np.abs(spectrum - gap_rw).min()), atol))
    if not graph.connected:
        checks.append(make_check(f"graph-connected[K={degree_max}]",
                                 float(graph.components - 1), 0.0,
                                 detail=f"{graph.components} components: every gap vanishes"))
    report = BepGapReport(degree_max, gap_rw, gap_bep, dict(sorted(level_gaps.items())),
                          spectrum, a_min, tuple(checks), simplex_measure(graph).log_beta)
    if strict and not report.passed:
        bad = [c.identity for c in checks if not c.passed]
        raise VerificationError("diffusion gap checks failed: " + ", ".join(bad))
    return report
