"""Energy diffusion on a graph by exact polynomial calculus.

The diffusion moves continuous energies between neighbouring sites,
conserving their total, with second-order generator

    G = (1/2) sum_{x,y} c_xy { -(alpha_y z_x - alpha_x z_y)(d_x - d_y)
                               + z_x z_y (d_x - d_y)^2 }.

G maps a homogeneous polynomial of degree k to another one of degree k,
so its restriction to the degree-k carrier is a finite matrix.  In the
scaled monomial basis z^eta / prod(eta!) that matrix coincides entry by
entry with the k-particle inclusion generator; `bep_matrix` constructs
it purely by symbolic differentiation and checks the coincidence, the
algebraic form of the duality between the two processes.  Each degree's
diffusion gap is then its level's `Level.gap`.

The calculus acts on `Terms`, batches of monomial terms held as three
arrays (column, exponent rows, coefficient), and composes G from d_x and
z_x edge by edge, for every basis monomial of a level at once.  The
simplex constraint sum(z) = 1 is never substituted; every identity is
checked coefficientwise on the homogeneous carrier, where it is unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse
from scipy.special import gammaln

from .configs import ConfigSpace
from .errors import InputError, VerificationError
from .graphs import Graph
from .intertwiners import Level
from .reporting import CheckResult, gap_tolerance, identity_check, make_check, sandwich


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

    def terms(self) -> Terms:
        """The polynomial as one batch of terms, all in column 0."""
        expo = np.array(list(self.coeffs), dtype=np.int64).reshape(-1, self.n)
        return Terms(np.zeros(len(expo), dtype=np.int64), expo,
                     np.array(list(self.coeffs.values()), dtype=float))

    def to_vector(self, space: ConfigSpace) -> np.ndarray:
        """Coefficients placed at the ranks of their exponents in `space`."""
        if space.n != self.n or space.k != self.degree:
            raise InputError("space does not match polynomial degree")
        terms, v = self.terms(), np.zeros(space.size)
        v[space.rank_keys(space.keys_of(terms.expo))] = terms.coeff
        return v


@dataclass(frozen=True)
class Terms:
    """A batch of monomial terms: term i is coeff[i] z^expo[i], a part of
    the image of column col[i].  Equal monomials are not merged until the
    batch is summed into a matrix or a polynomial."""

    col: np.ndarray
    expo: np.ndarray
    coeff: np.ndarray

    @staticmethod
    def join(batches) -> Terms:
        return Terms(*(np.concatenate(parts) for parts in
                       zip(*((b.col, b.expo, b.coeff) for b in batches))))

    def d(self, x: int) -> Terms:
        """d/dz_x: lower exponent x and multiply by it; terms without z_x drop."""
        keep = self.expo[:, x] > 0
        expo = self.expo[keep]
        coeff = self.coeff[keep] * expo[:, x]
        expo[:, x] -= 1
        return Terms(self.col[keep], expo, coeff)

    def z(self, x: int) -> Terms:
        """Multiplication by z_x: raise exponent x."""
        expo = self.expo.copy()
        expo[:, x] += 1
        return Terms(self.col, expo, self.coeff)

    def __rmul__(self, scale: float) -> Terms:
        return Terms(self.col, self.expo, scale * self.coeff)

    def __sub__(self, other: Terms) -> Terms:
        return Terms.join((self, -1.0 * other))


def _apply(terms: Terms, graph: Graph, degree: int) -> Terms:
    """G applied to a batch of degree-`degree` terms.  The ordered pairs
    (x, y) and (y, x) give equal terms, so each edge x < y is taken once,
    without the 1/2.  Every image term must keep the degree, or a raised
    exponent could alias another configuration's base-(degree+1) key."""
    c, alpha = graph.edge_weights.tolist(), graph.site_weights.tolist()
    images = [Terms(terms.col[:0], terms.expo[:0], terms.coeff[:0])]
    for x, y in zip(*np.nonzero(np.triu(graph.edge_weights))):
        first = terms.d(x) - terms.d(y)
        # drift -(alpha_y z_x - alpha_x z_y)(d_x - d_y), diffusion z_x z_y (d_x - d_y)^2
        images += [-c[x][y] * alpha[y] * first.z(x), c[x][y] * alpha[x] * first.z(y),
                   c[x][y] * (first.d(x) - first.d(y)).z(x).z(y)]
    image = Terms.join(images)
    wrong = image.expo.sum(axis=1) != degree
    if np.any(wrong):
        bad = image.expo[np.argmax(wrong)]
        raise VerificationError(f"generator produced exponent {tuple(bad.tolist())} of "
                                f"degree {int(bad.sum())} from degree {degree}")
    return image


def _factorial_ratio(row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """prod_x row_x! / col_x! for exponent rows one particle move apart, as every
    image term of G is: the gainer's new exponent over the loser's old one."""
    move = row - col
    return np.where(move > 0, row, 1).prod(axis=1) / np.where(move < 0, col, 1).prod(axis=1)


def poly_lift(f, space: ConfigSpace) -> HomogPolynomial:
    """Carry a function on k-particle configurations to the degree-k polynomial
    sum_eta f(eta) z^eta / prod_x eta_x!, refusing a nonzero value whose
    coefficient is no normal float (prod_x eta_x! is infinite from 171! on)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (space.size,):
        raise InputError(f"f must have length {space.size}")
    ranks = np.flatnonzero(f)
    with np.errstate(over="ignore"):  # an infinite prod_x eta_x! is refused below
        factorials = np.cumprod(np.arange(space.k + 1.0).clip(1.0))[space.occupations[ranks]]
        coeffs = f[ranks] / factorials.prod(axis=1)
    if not np.all(np.abs(coeffs) >= np.finfo(float).tiny):
        raise InputError(f"degree {space.k}: a coefficient f(eta) / prod_x eta_x! "
                         "is no normal float")
    return HomogPolynomial(space.n, space.k,
                           dict(zip(map(tuple, space.occupations[ranks].tolist()), coeffs)))


def apply_bep_generator(poly: HomogPolynomial, graph: Graph) -> HomogPolynomial:
    """Apply the diffusion generator symbolically; degree is preserved."""
    if poly.n != graph.n:
        raise InputError(f"polynomial has {poly.n} variables, graph {graph.n}")
    image = _apply(poly.terms(), graph, poly.degree)
    expos, which = np.unique(image.expo, axis=0, return_inverse=True)
    sums = np.bincount(which.ravel(), weights=image.coeff, minlength=len(expos))
    return HomogPolynomial(poly.n, poly.degree, dict(zip(map(tuple, expos.tolist()), sums)))


@dataclass(frozen=True)
class BepMatrix:
    space: ConfigSpace
    matrix: scipy.sparse.csr_array
    sip_matrix: scipy.sparse.csr_array
    check: CheckResult


def bep_matrix(level: Level) -> BepMatrix:
    """Matrix of the diffusion generator on the degree-k scaled monomials.

    Column eta holds the expansion of G applied to z^eta / prod(eta!): one
    batch carries every basis monomial through G, and its terms are ranked
    by their keys and summed into a CSR.  The module's central check
    compares this symbolically assembled matrix entrywise with the
    independently assembled particle generator; they must agree to
    rounding.
    """
    gen = level.generator
    space = gen.space
    # the image of z^col / col! in row / row! carries row! / col!, taken as an
    # exact ratio: prod(eta!) as a float is infinite from degree 171 on
    image = _apply(Terms(np.arange(space.size), space.occupations, np.ones(space.size)),
                   level.graph, space.k)
    rows = space.rank_keys(space.keys_of(image.expo))
    scale = _factorial_ratio(image.expo, space.occupations[image.col])
    m = scipy.sparse.csr_array((image.coeff * scale, (rows, image.col)), shape=(space.size,) * 2)
    check = identity_check(f"diffusion-matches-particles[k={level.k}]", m, gen.matrix)
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
    levels: tuple = field(repr=False, compare=False)  # levels 1..degree_max
    degree_max: int
    gap_rw: float
    gap_bep: float
    level_gaps: dict
    alpha_min: float
    checks: tuple
    log_beta: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The truncated spectrum, ascending: 0 for the constants and the
        dense spectra of the levels, solved on first read."""
        return np.sort(np.concatenate([[0.0]] + [lv.spectrum.eigenvalues for lv in self.levels]))

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


def bep_gap_report(top: Level) -> BepGapReport:
    """Gap of the diffusion truncated at the polynomial degree top.k.

    Degrees decouple, and `bep_matrix` checks that degree k carries the
    generator of level k, so the truncated gap is the least of the
    `Level.gap`s of `top.down_to(1)`, the gaps the particle report shares.  The
    paper carries the particle sandwich over by duality, and so does this report:
    each `reporting.sandwich` residual is a check `bep-gap-{name}[K]` at
    `reporting.gap_tolerance`, and level 1's spectrum must hold gap_rw.  A
    disconnected graph fails a check.  A failed check is reported, not raised.
    """
    graph, degree_max = top.graph, top.k
    if degree_max < 1:
        raise InputError(f"need degree_max >= 1, got {degree_max}")
    levels = top.down_to(1)  # refused over the cap before any level below is made
    gap_rw, atol = graph.walk_spectrum.gap, gap_tolerance(graph)
    checks = [bep_matrix(level).check for level in levels]
    level_gaps = {level.k: level.gap for level in levels}
    gap_bep = min(level_gaps.values())
    checks += [make_check(f"bep-gap-{name}[K={degree_max}]", residual, atol)
               for name, residual in sandwich(graph, gap_bep).items()]
    checks.append(make_check(f"walk-gap-in-spectrum[K={degree_max}]",
                             float(np.abs(levels[0].spectrum.eigenvalues - gap_rw).min()), atol))
    if not graph.connected:
        checks.append(make_check(f"graph-connected[K={degree_max}]",
                                 float(graph.components - 1), 0.0,
                                 detail=f"{graph.components} components: every gap vanishes"))
    return BepGapReport(tuple(levels), degree_max, gap_rw, gap_bep, level_gaps,
                        graph.alpha_min, tuple(checks), simplex_measure(graph).log_beta)
