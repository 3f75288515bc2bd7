"""Enumeration and measure theory of k-particle occupation configurations.

A configuration is a vector of n nonnegative occupation numbers summing
to k (a weak composition of k into n parts).  The space is ordered
lexicographically; rank and unrank of one configuration are computed
combinatorially from binomial counts and agree with the enumerated list
order.  Whole arrays are ranked at once by binary search on base-(k+1)
keys, whose numeric order is the lex order.

The attached probability law weights a configuration eta by the product
over sites of Gamma(alpha_x + eta_x) / (Gamma(alpha_x) eta_x!), with the
gamma ratios evaluated as rising factorials in log space.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import gammaln

from .errors import InputError, StateCapError
from .reporting import IDENTITY_RTOL

if TYPE_CHECKING:
    from .graphs import Graph

DEFAULT_STATE_CAP = 20_000


def state_cap() -> int:
    """Active configuration-space cap; SIPLAB_STATE_CAP overrides the default."""
    raw = os.environ.get("SIPLAB_STATE_CAP")
    if raw is None:
        return DEFAULT_STATE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(f"SIPLAB_STATE_CAP must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise InputError("SIPLAB_STATE_CAP must be positive")
    return cap


def space_size(n: int, k: int) -> int:
    return math.comb(n + k - 1, n - 1)


def rank_composition(eta) -> int:
    """Lexicographic rank of a weak composition among those with equal sum."""
    eta = list(eta)
    n = len(eta)
    rem = sum(eta)
    r = 0
    for i in range(n - 1):
        parts = n - i - 1
        for v in range(eta[i]):
            r += math.comb(rem - v + parts - 1, parts - 1)
        rem -= eta[i]
    return r


def unrank_composition(r: int, n: int, k: int) -> tuple:
    eta = [0] * n
    rem = k
    for i in range(n - 1):
        parts = n - i - 1
        v = 0
        while True:
            count = math.comb(rem - v + parts - 1, parts - 1)
            if r < count:
                break
            r -= count
            v += 1
        eta[i] = v
        rem -= v
    eta[n - 1] = rem
    return tuple(eta)


@dataclass(frozen=True)
class ConfigSpace:
    """All occupation vectors with n sites and k particles, in lex order.

    `place` holds the base-(k+1) place values (k+1)^(n-1), .., (k+1), 1, as
    int64 when (k+1)^n fits and as Python integers otherwise.  Every
    occupation is at most k, so its key `occ @ place` reads it as a
    base-(k+1) numeral, and lex order is the numeric order of the keys.
    `keys` holds them ascending, so a whole array of configurations is ranked
    by one binary search; moving one particle from x to y changes a key by
    place[y] - place[x].
    """

    n: int
    k: int
    occupations: np.ndarray

    def __post_init__(self):
        base = self.k + 1
        place = (base ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
                 if base ** self.n <= np.iinfo(np.int64).max
                 else np.array([base ** (self.n - 1 - i) for i in range(self.n)], dtype=object))
        place.setflags(write=False)
        object.__setattr__(self, "place", place)
        keys = self.keys_of(self.occupations)
        if np.any(keys[1:] <= keys[:-1]):
            raise InputError("occupations must be distinct and in lex order")
        keys.setflags(write=False)
        object.__setattr__(self, "keys", keys)

    def keys_of(self, occupations) -> np.ndarray:
        """The key of each row; over Python-int place values, a sum over the
        row's occupied sites, at most its particle count, not over all n."""
        if self.place.dtype != object:
            return occupations @ self.place
        rows, sites = np.nonzero(occupations)
        keys = np.zeros(len(occupations), dtype=object)
        np.add.at(keys, rows, occupations[rows, sites] * self.place[sites])
        return keys

    @property
    def size(self) -> int:
        return self.occupations.shape[0]

    def rank_keys(self, keys) -> np.ndarray:
        """Ranks of the configurations with the given 1-d array of keys;
        a key that belongs to no configuration is an error."""
        keys = np.asarray(keys, dtype=self.keys.dtype)
        ranks = np.searchsorted(self.keys, keys)
        found = ranks < self.size
        found[found] = self.keys[ranks[found]] == keys[found]
        if not np.all(found):
            raise InputError(f"not a configuration with n={self.n}, k={self.k}")
        return ranks

    def rank(self, eta) -> int:
        return rank_composition(eta)

    def unrank(self, r: int) -> tuple:
        return unrank_composition(r, self.n, self.k)


def _nondecreasing(length: int, top: int, size: int) -> np.ndarray:
    """The `size` nondecreasing sequences of `length` values in [0, top], one
    per row, in ascending lex order.

    The sequences of length j in lex order, T_j, are, for v = 0..top, the v
    followed by each sequence of T_{j-1} that starts at v or above, and
    those are the last c_j(v) = C(top - v + j - 1, j - 1) rows of T_{j-1}.
    So the row that holds a sequence's tail in T_{j-1} follows from its row
    in T_j, one column at a time.
    """
    table = np.empty((size, length), dtype=np.int64)
    row = np.arange(size)  # each sequence's row in T_j, for the current j
    # counts[j - 1][v] = c_j(v), from c_1 = 1 by the hockey-stick sums over v
    counts = [np.ones(top + 1, dtype=np.int64)]
    for _ in range(length - 1):
        counts.append(np.cumsum(counts[-1][::-1])[::-1])
    for col in range(length):
        c = counts[length - 1 - col]  # c_j for the tail length j = length - col
        heads = np.repeat(np.arange(top + 1), c)  # the first value of each row of T_j
        table[:, col] = heads[row]
        # the tail of a row that starts with v sits in the last c_j(v) rows of
        # T_{j-1}, which has c_j(0) rows
        row = (np.arange(heads.size) + np.repeat(c[0] - np.cumsum(c), c))[row]
    return table


def _compositions(n: int, k: int, size: int) -> np.ndarray:
    """Weak compositions of k into n parts, one per row, in ascending lex order,
    from the narrower of two tables of `_nondecreasing` sequences.

    The prefix sums of a composition are n-1 nondecreasing values in
    [0, k], in the same lex order.  Its particles' sites, ascending, are k
    nondecreasing values in [0, n-1], in the reverse lex order: the larger
    composition has more particles at the first site where two differ.
    """
    if n - 1 <= k:
        bars = _nondecreasing(n - 1, k, size)
        occ = np.empty((size, n), dtype=np.int64)
        occ[:, :-1] = bars
        occ[:, -1] = k
        occ[:, 1:] -= bars
        return occ
    sites = _nondecreasing(k, n - 1, size)[::-1]
    sites += np.arange(size)[:, None] * n
    return np.bincount(sites.ravel(), minlength=size * n).reshape(size, n)


def capped_size(n: int, k: int) -> int:
    """Number of configurations with n sites and k particles, refused with
    StateCapError above the active `state_cap()`."""
    if n < 1 or k < 0:
        raise InputError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    size = space_size(n, k)
    limit = state_cap()
    if size > limit:
        raise StateCapError(f"configuration space with n={n}, k={k} has {size} "
                            f"states, exceeding the cap of {limit}")
    return size


def enumerate_configs(n: int, k: int) -> ConfigSpace:
    size = capped_size(n, k)
    occ = _compositions(n, k, size)
    occ.setflags(write=False)
    return ConfigSpace(n, k, occ)


@dataclass(frozen=True)
class SipMeasure:
    """Reversible probability law of the k-particle inclusion dynamics."""

    space: ConfigSpace
    alpha: np.ndarray
    probabilities: np.ndarray
    log_normalization: float


def log_rising(base: float, count: int) -> float:
    """log of base (base+1) ... (base+count-1); empty product is 0."""
    return float(sum(math.log(base + j) for j in range(count)))


def sip_measure(graph: Graph, space: ConfigSpace) -> SipMeasure:
    if graph.n != space.n:
        raise InputError(f"graph has {graph.n} sites, space has {space.n}")
    alpha = graph.site_weights
    k = space.k
    # rising-factorial table: table[x, m] = log alpha_x (alpha_x+1)...(alpha_x+m-1)
    table = np.zeros((space.n, k + 1))
    table[:, 1:] = np.cumsum(np.log(alpha[:, None] + np.arange(k)), axis=1)
    occ = space.occupations
    logw = table[np.arange(space.n)[None, :], occ].sum(axis=1)
    logw -= gammaln(np.arange(k + 1) + 1.0)[occ].sum(axis=1)
    top = logw.max()
    log_z = float(top + np.log(np.exp(logw - top).sum()))
    closed = log_rising(graph.alpha_total, k) - gammaln(k + 1.0)
    if abs(log_z - closed) > IDENTITY_RTOL * max(1.0, abs(closed)):
        raise InputError(f"normalization mismatch: summed {log_z:.15g}, "
                         f"closed form {closed:.15g}")
    probs = np.exp(logw - log_z)
    probs /= probs.sum()
    probs.setflags(write=False)
    return SipMeasure(space, alpha, probs, log_z)


def inner_product(mu: SipMeasure, f, g) -> float:
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (mu.space.size,) or g.shape != (mu.space.size,):
        raise InputError(f"functions must have length {mu.space.size}")
    return float(mu.probabilities @ (f * g))


def mean(mu: SipMeasure, f) -> float:
    return inner_product(mu, f, np.ones(mu.space.size))


def variance(mu: SipMeasure, f) -> float:
    m = mean(mu, f)
    return inner_product(mu, f, f) - m * m
