"""Finite weighted graphs and the single-particle random walk on them.

A graph is a vertex set {0, .., n-1} with finite symmetric nonnegative
edge rates c[x, y] and strictly positive site weights alpha[x].  The
walk jumps from x to y at rate c[x, y] * alpha[y], which makes it
reversible with respect to the probability vector alpha / sum(alpha).

Spectra are computed by symmetrizing the negative generator with the
square root of the reversible measure and running a dense symmetric
eigensolve (`symmetric_spectrum`), so eigenvalues are real by construction
and eigenfunctions come back orthonormal in the weighted L2 inner product.
A walk's transform and its reversibility check (`symmetrize_reversible`)
take a stack of walks as well as one, and so does `rw_dirichlet_forms`.
A level is symmetrized and checked once, each entry against its reverse
move's, by `sip.build_sip_generator`, under the same policy,
`reporting.require_reversible`.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .configs import capped_size
from .errors import EigensolverError, InputError
from .reporting import max_abs, require_reversible, residual_tol


@dataclass(frozen=True)
class Graph:
    """Immutable weighted graph with site weights.

    edge_weights must be symmetric with zero diagonal and finite
    nonnegative entries; site_weights must be strictly positive.  Connectivity of
    the positive-weight edge set, the single-particle `walk` and its
    `walk_spectrum` (eigenvalues only) are built on first use and kept, so
    every reader of the walk gap shares one solve.
    """

    n: int
    edge_weights: np.ndarray
    site_weights: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"graph needs at least 2 vertices, got n={self.n}")
        w = np.asarray(self.edge_weights, dtype=float)
        a = np.asarray(self.site_weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise InputError(f"edge_weights must be {self.n}x{self.n}, got {w.shape}")
        if a.shape != (self.n,):
            raise InputError(f"site_weights must have length {self.n}, got {a.shape}")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise InputError("edge_weights must be nonnegative and finite")
        if not np.array_equal(w, w.T):
            raise InputError("edge_weights must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise InputError("edge_weights must have zero diagonal")
        if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
            raise InputError("site_weights must be strictly positive and finite")
        w.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "edge_weights", w)
        object.__setattr__(self, "site_weights", a)

    @cached_property
    def components(self) -> int:
        """Number of connected components of the positive-weight edges."""
        return int(connected_components(scipy.sparse.csr_array(self.edge_weights),
                                        directed=False, return_labels=False))

    @cached_property
    def walk(self) -> RwGenerator:
        return build_rw_generator(self)

    @cached_property
    def walk_spectrum(self) -> Spectrum:
        return rw_spectrum(self.walk, want_vectors=False)

    @property
    def connected(self) -> bool:
        return self.components == 1

    @property
    def alpha_total(self) -> float:
        return float(self.site_weights.sum())

    @property
    def alpha_min(self) -> float:
        return float(self.site_weights.min())

    def with_site_weights(self, alpha) -> "Graph":
        """Same edges, different site weights."""
        return replace(self, site_weights=np.asarray(alpha, dtype=float))


def as_integer(raw, what: str) -> int:
    """`raw` as an int: a JSON integer, or an integral float such as 1e9.  A
    boolean, a fraction, a string or anything else is refused, not truncated."""
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, bool) or not hasattr(type(raw), "__index__"):
        raise InputError(f"{what} must be an integer, got {raw!r}")
    return operator.index(raw)


def as_number(raw, what: str) -> float:
    """`raw` as a float; a boolean, or what float() cannot read, is refused."""
    if isinstance(raw, bool):
        raise InputError(f"{what} must be a number, got {raw!r}")
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be a number, got {raw!r}") from exc


def _zero_weights(n: int) -> np.ndarray:
    """The n x n zero edge weights of a new graph.  Its level 1 has n states,
    so a graph over the state cap is refused before they are allocated."""
    if n < 2:
        raise InputError(f"graph needs at least 2 vertices, got n={n}")
    capped_size(n, 1)
    return np.zeros((n, n))


def graph_from_edges(n: int, edges, alpha) -> Graph:
    """Build a graph from an undirected edge list [(x, y, c), ...].

    Listing the same unordered pair twice is an error, as is a self loop.
    """
    w = _zero_weights(n)
    seen = set()
    for item in edges:
        try:
            x, y, c = item
        except (TypeError, ValueError) as exc:
            raise InputError(f"edge entry must be [x, y, c], got {item!r}") from exc
        x, y = as_integer(x, "vertex index"), as_integer(y, "vertex index")
        c = as_number(c, "edge weight")
        if not (0 <= x < n and 0 <= y < n):
            raise InputError(f"edge ({x},{y}) out of range for n={n}")
        if x == y:
            raise InputError(f"self loop at vertex {x} not allowed")
        key = (min(x, y), max(x, y))
        if key in seen:
            raise InputError(f"duplicate edge pair {key}")
        seen.add(key)
        w[x, y] = c
        w[y, x] = c
    if not isinstance(alpha, (list, tuple)):
        raise InputError(f"site weights must be a list of numbers, got {alpha!r}")
    return Graph(n, w, np.array([as_number(a, "site weight") for a in alpha]))


def graph_from_dict(data: dict) -> Graph:
    try:
        n, edges, alpha = data["n"], data["edges"], data["alpha"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"graph object needs 'n', 'edges', 'alpha': {exc}") from exc
    if not isinstance(edges, list):
        raise InputError(f"'edges' must be a list, got {edges!r}")
    return graph_from_edges(as_integer(n, "n"), edges, alpha)


def load_graph(path) -> Graph:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read graph file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"graph file {path} must hold a JSON object")
    return graph_from_dict(data)


def complete_graph(n: int, alpha=None) -> Graph:
    """Complete graph with the mean-field normalization c = 1/n."""
    w = _zero_weights(n)
    w += 1.0 / n
    np.fill_diagonal(w, 0.0)
    a = np.ones(n) if alpha is None else alpha
    return Graph(n, w, np.asarray(a, dtype=float))


def path_graph(n: int, alpha=None) -> Graph:
    w = _zero_weights(n)
    for x in range(n - 1):
        w[x, x + 1] = w[x + 1, x] = 1.0
    a = np.ones(n) if alpha is None else alpha
    return Graph(n, w, np.asarray(a, dtype=float))


def cycle_graph(n: int, alpha=None) -> Graph:
    if n < 3:
        raise InputError("cycle preset needs n >= 3")
    w = _zero_weights(n)
    for x in range(n):
        y = (x + 1) % n
        w[x, y] = w[y, x] = 1.0
    a = np.ones(n) if alpha is None else alpha
    return Graph(n, w, np.asarray(a, dtype=float))


_PRESETS = {"complete": complete_graph, "path": path_graph, "cycle": cycle_graph}
_PRESET_RE = re.compile(r"^(complete|path|cycle)\((\d+)\)$")


def graph_from_preset(spec: str, alpha=None) -> Graph:
    """Expand a preset string like 'complete(4)' or 'path(3)'."""
    m = _PRESET_RE.match(spec.strip())
    if not m:
        raise InputError(f"{spec!r} is neither an existing graph file nor a preset; "
                         f"presets are name(n) with name in {sorted(_PRESETS)}")
    name, n = m.group(1), int(m.group(2))
    return _PRESETS[name](n, alpha)


def random_connected_graph(n: int, rng: np.random.Generator, extra_edge_prob: float = 0.5,
                           weight_range=(0.2, 2.0), alpha_range=(0.5, 2.0)) -> Graph:
    """Random spanning tree plus extra edges; weights uniform in the ranges."""
    w = _zero_weights(n)
    order = rng.permutation(n)
    for i in range(1, n):
        x = order[i]
        y = order[rng.integers(0, i)]
        w[x, y] = w[y, x] = rng.uniform(*weight_range)
    for x in range(n):
        for y in range(x + 1, n):
            if w[x, y] == 0.0 and rng.random() < extra_edge_prob:
                w[x, y] = w[y, x] = rng.uniform(*weight_range)
    alpha = rng.uniform(*alpha_range, size=n)
    return Graph(n, w, alpha)


@dataclass(frozen=True)
class RwGenerator:
    """Rate matrix of the single-particle walk with its reversible law."""

    graph: Graph
    matrix: np.ndarray
    stationary: np.ndarray


@np.errstate(over="ignore")  # an overflow is refused by name below
def build_rw_generator(graph: Graph) -> RwGenerator:
    """The walk generator: off-diagonal (x, y) entry c[x,y] * alpha[y], refused if infinite."""
    a = graph.site_weights
    m = graph.edge_weights * a[None, :]
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1))
    if not np.all(np.isfinite(m)):
        raise InputError("walk rates c[x, y] * alpha[y] overflow to infinity")
    m.setflags(write=False)
    stationary = a / a.sum()
    stationary.setflags(write=False)
    return RwGenerator(graph, m, stationary)


def detailed_balance_residual(matrix, measure: np.ndarray) -> float:
    """max |m(x) Q(x,y) - m(y) Q(y,x)| over all pairs, Q dense or sparse."""
    flux = measure[:, None] * matrix
    return max_abs(flux - flux.T)


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of a negative reversible generator, and
    optionally its eigenfunctions, columns orthonormal in the L2 inner
    product of the reversible law."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray | None

    @property
    def gap(self) -> float:
        return float(self.eigenvalues[1])


def symmetrize_reversible(rate_matrix, measure) -> np.ndarray:
    """The symmetric form of a dense rate matrix Q reversible w.r.t. `measure`,
    or of a stack of them with one measure per row.

    The similarity transform D^(1/2) (-Q) D^(-1/2) with D = diag(measure)
    is symmetric exactly when detailed balance holds; that is checked for
    every matrix by `require_reversible`, not silently averaged away,
    before `sym` averages the transform with its transpose.
    """
    neg = -np.asarray(rate_matrix, dtype=float)
    scale = np.maximum(1.0, np.abs(neg).max(axis=(-2, -1)))
    d = np.sqrt(measure)
    sym = neg * (d[..., :, None] / d[..., None, :])
    require_reversible(np.abs(sym - np.swapaxes(sym, -1, -2)).max(axis=(-2, -1)), scale)
    return 0.5 * (sym + np.swapaxes(sym, -1, -2))


def symmetric_spectrum(sym: np.ndarray, measure: np.ndarray,
                       want_vectors: bool = True) -> Spectrum:
    """Dense eigensolve of sym = D^(1/2) (-Q) D^(-1/2), D = diag(measure), for walks
    and levels alike; each eigenpair must pass `residual_tol(scale)`, scale
    the largest exit rate, which is the largest entry of sym, on its diagonal."""
    scale = float(np.diagonal(sym).max())
    try:
        if want_vectors:
            vals, vecs = scipy.linalg.eigh(sym)
        else:
            vals = scipy.linalg.eigvalsh(sym)
    except scipy.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric eigensolve failed: {exc}") from exc
    funcs = None
    if want_vectors:
        defect = float(np.abs(sym @ vecs - vecs * vals[None, :]).max())
        if defect > residual_tol(scale):
            raise EigensolverError(f"eigensolve residual {defect:.3e} exceeds "
                                   f"tolerance at scale {scale:.3e}")
        funcs = vecs / np.sqrt(measure)[:, None]
        funcs.setflags(write=False)
    vals.setflags(write=False)
    return Spectrum(vals, funcs)


def reversible_spectrum(rate_matrix: np.ndarray, measure: np.ndarray,
                        want_vectors: bool = True) -> Spectrum:
    """Eigendecompose -Q for a dense rate matrix Q reversible w.r.t. `measure`."""
    return symmetric_spectrum(symmetrize_reversible(rate_matrix, measure), measure, want_vectors)


def rw_spectrum(gen: RwGenerator, want_vectors: bool = True) -> Spectrum:
    return reversible_spectrum(gen.matrix, gen.stationary, want_vectors)


def rw_dirichlet_forms(graph: Graph, beta, phi) -> np.ndarray:
    """D_beta(phi) = (1/|beta|) sum_{x,y} beta_x beta_y c_xy phi(x) (phi(x) - phi(y)),
    the energy of phi under the walk on `graph` with site weights beta.
    beta and phi broadcast over all but their last axis: beta[:, None]
    against phi[None] is the table of every walk and every function, and
    equal leading shapes pair them row by row."""
    beta = np.asarray(beta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    weights = beta[..., :, None] * beta[..., None, :] * graph.edge_weights
    terms = phi[..., :, None] * (phi[..., :, None] - phi[..., None, :])
    return np.einsum("...xy,...xy->...", weights, terms) / beta.sum(axis=-1)


def rw_dirichlet_form(gen: RwGenerator, phi) -> float:
    """The energy `rw_dirichlet_forms` of phi under the walk `gen`."""
    phi = np.asarray(phi, dtype=float)
    a = gen.graph.site_weights
    if phi.shape != a.shape:
        raise InputError(f"phi must have length {a.size}, got shape {phi.shape}")
    return float(rw_dirichlet_forms(gen.graph, a, phi))


def rw_variance(gen: RwGenerator, phi) -> float:
    phi = np.asarray(phi, dtype=float)
    mean = float(gen.stationary @ phi)
    return float(gen.stationary @ (phi * phi)) - mean * mean
