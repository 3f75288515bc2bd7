"""Continuous-time Monte Carlo for the particle dynamics.

Paths are exact-in-law jump chains (Gillespie's direct method) on the
state ranks of the chosen mode: occupation ranks (`sip`) or mixed-radix
indices of labeled positions (`lookdown`), so every start enumerates that
space under its state cap.  The moves are those of the level generators,
as COO triplets (`sip._jumps`, `lookdown._labeled_jumps`), laid out once
per call as a checked `JumpTable`.  All paths advance together in rounds
over the live paths alone: each round draws one exponential holding time
and one uniform per live path, records only the paths whose jump crosses
a sampling time, and picks the move from the state's cumulative rates,
all of them positive.  A path whose state has exit rate 0 is absorbed and
holds it to the horizon.

Reproducibility: one `default_rng(seed)` stream drives every path, the
initial draws included, so a summary is bit-identical from run to run for
a given seed and path count; the draw order, move order and float
operations of the stepper fix those bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .configs import enumerate_configs, sip_measure
from .errors import InputError, VerificationError
from .graphs import Graph, rw_spectrum
from .intertwiners import lift_eigenfunction
from .lookdown import _labeled_jumps, labeled_states, labeled_stationary_measure, unlabel_map
from .sip import _jumps, build_sip_generator, sip_spectrum, transition_matrix

MODES = ("sip", "lookdown")
# Paths advance in batches of at most this many gathered rates or sampled
# entries (8 MB as float64), so memory stays bounded for any path count.
BATCH_ENTRIES = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    graph: Graph
    k: int
    mode: str
    horizon: float
    n_paths: int
    seed: int
    times: tuple

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.k < 1:
            raise InputError("need k >= 1")
        if not 0 < self.horizon < math.inf:
            raise InputError("horizon must be positive and finite")
        if self.n_paths < 1:
            raise InputError("need at least one path")
        times = tuple(float(t) for t in self.times)
        if not times:
            raise InputError("need at least one sampling time")
        # NaN fails every comparison, so it is refused here too
        if not all(0 <= t <= self.horizon for t in times):
            raise InputError("sampling times must lie in [0, horizon]")
        if len(set(times)) < len(times):
            raise InputError("sampling times must be distinct")
        object.__setattr__(self, "times", tuple(sorted(times)))

    @property
    def width(self) -> int:
        """Length of one state: n occupations (sip) or k positions (lookdown)."""
        return self.graph.n if self.mode == "sip" else self.k


@dataclass(frozen=True)
class JumpTable:
    """The moves of every state rank s, in generator order: `targets[s, j]`
    and the cumulative rates `cum[s, j]`, summed in that order, for j <
    `degrees[s]`, padded with rank 0 and +inf; `exits[s]` is the total."""

    cum: np.ndarray
    targets: np.ndarray
    exits: np.ndarray
    degrees: np.ndarray

    @classmethod
    def from_triplets(cls, size: int, sources, targets, rates) -> JumpTable:
        if not (np.all(rates > 0.0) and np.all((targets >= 0) & (targets < size))):
            raise VerificationError("jump table holds a move off the state space "
                                    "or a rate that is not positive")
        order = np.argsort(sources, kind="stable")
        sources, targets, rates = sources[order], targets[order], rates[order]
        degrees = np.bincount(sources, minlength=size)
        slot = np.arange(sources.size) - (np.cumsum(degrees) - degrees)[sources]
        shape = (size, max(1, int(degrees.max(initial=0))))
        cum, moves = np.zeros(shape), np.zeros(shape, dtype=np.int64)
        cum[sources, slot], moves[sources, slot] = rates, targets
        cum = np.cumsum(cum, axis=1)
        exits = cum[:, -1].copy()
        cum[np.arange(shape[1]) >= degrees[:, None]] = np.inf
        return cls(cum, moves, exits, degrees)

    def pick(self, s: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Per path in state s, the move j with cum[s, j-1] <= target < cum[s, j];
        when target = u * exit rounds up to the exit rate, the last move.  A
        float32 matvec counts exactly: no count exceeds the table width."""
        rows = self.cum.take(s, axis=0)
        hits = np.less_equal(rows, target[:, None], out=np.empty(rows.shape, dtype=np.float32))
        count = hits @ np.ones(rows.shape[1], dtype=np.float32)
        return np.minimum(count.astype(np.int64), self.degrees.take(s) - 1)


@dataclass
class TrajectorySummary:
    """Per-sampling-time counts of every state rank, plus optional observable
    samples; `start_law` is the exact stationary law of the ranks when the
    paths were drawn from it."""

    config: SimConfig
    states: np.ndarray  # (S, width), the state of each rank
    counts: np.ndarray  # (T, S)
    observable_samples: np.ndarray | None = None
    n_absorbed: int = 0
    start_law: np.ndarray | None = None

    @functools.cached_property
    def histograms(self) -> dict:
        """{time: {state tuple: count}} over the states seen at each time."""
        return {t: dict(zip(map(tuple, self.states[row > 0].tolist()), row[row > 0].tolist()))
                for t, row in zip(self.config.times, self.counts)}


def _level(cfg: SimConfig):
    """(states, ranking of a state batch, stationary law, jump table) of the
    chosen mode; row r of `states` is the state of rank r."""
    graph, n, k = cfg.graph, cfg.graph.n, cfg.k
    if cfg.mode == "sip":
        space = enumerate_configs(n, k)
        return (space.occupations, lambda batch: space.rank_keys(space.keys_of(batch)),
                lambda: sip_measure(graph, space).probabilities,
                JumpTable.from_triplets(space.size, *_jumps(graph, space)))
    states = labeled_states(n, k)
    place = n ** np.arange(k - 1, -1, -1)  # the bottom label is the most significant digit
    return (states, lambda batch: batch @ place, lambda: labeled_stationary_measure(graph, k),
            JumpTable.from_triplets(states.shape[0], *_labeled_jumps(graph, k, lookdown=True)))


def _initial_ranks(cfg: SimConfig, initial, rng, P: int, rank) -> np.ndarray:
    n = cfg.graph.n
    batch = np.asarray(initial(rng, P) if callable(initial) else np.tile(initial, (P, 1)),
                       dtype=np.int64)
    if batch.shape != (P, cfg.width):
        raise InputError(f"initial states have shape {batch.shape}, "
                         f"expected {(P, cfg.width)}")
    if cfg.mode == "sip" and (np.any(batch < 0) or np.any(batch.sum(axis=1) != cfg.k)):
        raise InputError(f"initial states must put {cfg.k} particles on {n} sites")
    if cfg.mode == "lookdown" and np.any((batch < 0) | (batch >= n)):
        raise InputError(f"initial positions must be sites 0..{n - 1}")
    return rank(batch)


def _advance(table: JumpTable, times: np.ndarray, ranks: np.ndarray, rng):
    """Advance one batch of paths past the last sampling time; returns the
    (P, T) sampled ranks and the number of absorbed paths.  A round holds
    the live paths alone, in path order, records those that cross a sampling
    time and compacts when one passes the last.  It draws m exponentials,
    then m uniforms, and the jump time stays clock + hold / exit, a division:
    so the samples are those of a stepper evaluating every channel rate."""
    P, T = ranks.size, times.size
    samples = np.empty((P, T), dtype=np.int64)
    ids, cur = np.arange(P), ranks
    clock, taken = np.zeros(P), np.zeros(P, dtype=np.int64)
    width = table.targets.shape[1]
    n_absorbed = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while ids.size:
            total = table.exits.take(cur)
            hold = rng.standard_exponential(ids.size)
            u = rng.random(ids.size)
            jump_at = clock + hold / total
            stuck = total <= 0.0
            if stuck.any():
                n_absorbed += int(np.count_nonzero(stuck))
                jump_at[stuck] = np.inf
            # record the state at every sampling time before the jump
            reached = times.searchsorted(jump_at)
            cross = np.flatnonzero(reached > taken)
            if cross.size:
                top = reached[cross]
                fresh = top - taken[cross]
                at = np.repeat(cross, fresh)
                cols = np.repeat(top - np.cumsum(fresh), fresh) + np.arange(at.size)
                samples[ids[at], cols] = cur[at]
                if top.max() == T:
                    go = np.flatnonzero(reached < T)
                    ids, cur, total, u, jump_at, reached = (
                        a.take(go) for a in (ids, cur, total, u, jump_at, reached))
            cur = table.targets.take(cur * width + table.pick(cur, u * total))
            clock, taken = jump_at, reached
    return samples, n_absorbed


def simulate(cfg: SimConfig, initial=None, observable=None) -> TrajectorySummary:
    """Run all paths and count the sampled state ranks per sampling time.

    initial: a fixed state, a callable (rng, P) -> (P, width) int array of
    states, or None for draws from the exact stationary law of the mode.
    observable: optional callable (m, width) states -> (m,) values; its
    per-path samples at every sampling time are collected into a
    (n_paths, T) array.
    """
    rng = np.random.default_rng(cfg.seed)
    states, rank, law, table = _level(cfg)
    size, times, T = states.shape[0], np.asarray(cfg.times), len(cfg.times)
    start_law = law() if initial is None else None
    # a state has at most one move per edge (sip) or per label and site
    # (lookdown), so a round gathers at most BATCH_ENTRIES rates; the bound
    # also keeps the batch split, and so the draw order, of the earlier
    # stepper that evaluated every one of those channels
    channels = np.count_nonzero(cfg.graph.edge_weights) if cfg.mode == "sip" else cfg.k * cfg.graph.n
    per_batch = max(1, BATCH_ENTRIES // max(channels, T * cfg.width))
    counts = np.zeros(T * size, dtype=np.int64)
    obs = np.empty((cfg.n_paths, T)) if observable is not None else None
    n_absorbed = 0
    for first in range(0, cfg.n_paths, per_batch):
        P = min(per_batch, cfg.n_paths - first)
        ranks = (rng.choice(size, size=P, p=start_law) if start_law is not None
                 else _initial_ranks(cfg, initial, rng, P, rank))
        samples, absorbed = _advance(table, times, ranks, rng)
        n_absorbed += absorbed
        counts += np.bincount((samples + np.arange(T) * size).ravel(), minlength=T * size)
        if obs is not None:
            values = observable(states[samples.ravel()])
            obs[first:first + P] = np.asarray(values, dtype=float).reshape(-1, T)
    return TrajectorySummary(cfg, states, counts.reshape(T, size), obs, n_absorbed, start_law)


def chi_square_pvalue(counts: dict, states, probs) -> float:
    """Goodness-of-fit p-value of observed counts {state: count} against
    exact cell probabilities of `states`, pooling cells expected fewer than 5 times."""
    observed = np.array([counts.get(s, 0) for s in states], dtype=float)
    if sum(counts.values()) - observed.sum() > 0:
        raise InputError("observed states outside the reference support")
    return _chi_square(observed, probs)


def _chi_square(observed: np.ndarray, probs) -> float:
    """`chi_square_pvalue` on counts aligned with the cell probabilities."""
    expected = np.asarray(probs, dtype=float) * observed.sum()
    if float(observed[expected == 0.0].sum()) > 0:
        return 0.0
    observed = observed[expected > 0.0]
    expected = expected[expected > 0.0]
    pool = expected < 5.0
    if np.sum(pool):
        observed = np.concatenate([observed[~pool], [observed[pool].sum()]])
        expected = np.concatenate([expected[~pool], [expected[pool].sum()]])
    if observed.size < 2:
        return 1.0
    import scipy.stats  # imported here: it is slow to load and no CLI path needs it

    stat, p = scipy.stats.chisquare(observed, expected)
    return float(p)


@dataclass(frozen=True)
class StationaryTest:
    p_values: dict
    passed: bool


def stationary_chi_square(cfg: SimConfig) -> StationaryTest:
    """Start from the exact stationary law, evolve, and test at level 0.01
    that the sampled states still follow it at every sampling time
    (Bonferroni across times)."""
    summary = simulate(cfg)
    p_values = {t: _chi_square(row.astype(float), summary.start_law)
                for t, row in zip(cfg.times, summary.counts)}
    threshold = 0.01 / len(cfg.times)
    return StationaryTest(p_values, all(p > threshold for p in p_values.values()))


@dataclass(frozen=True)
class ProjectionTest:
    p_values: dict
    min_p: float
    passed: bool
    initial: tuple


def projection_test(cfg: SimConfig, initial_config=None) -> ProjectionTest:
    """Forget the labels of the lookdown process and compare, at every
    sampling time, against the exact law of the unlabeled dynamics.

    The labeled start is a uniformly random labeling of one fixed
    occupation configuration; the reference law is the corresponding
    row of the exact semigroup.  It passes when every p-value exceeds 1e-4.
    """
    if cfg.mode != "lookdown":
        raise InputError("projection test needs mode='lookdown'")
    gen = build_sip_generator(cfg.graph, cfg.k)
    space = gen.space
    if initial_config is None:
        initial_config = tuple(int(v) for v in space.occupations[space.size // 2])
    eta0 = tuple(int(v) for v in initial_config)
    if len(eta0) != cfg.graph.n or sum(eta0) != cfg.k:
        raise InputError(f"initial configuration must put {cfg.k} particles "
                         f"on {cfg.graph.n} sites")
    site_list = np.repeat(np.arange(cfg.graph.n), eta0)

    def labeled_start(rng, P):
        return site_list[np.argsort(rng.random((P, cfg.k)), axis=1)]

    summary = simulate(cfg, initial=labeled_start)
    spec = sip_spectrum(gen)
    row = space.rank(eta0)
    unlabeled = unlabel_map(space)  # occupation rank of each labeled rank
    p_values = {}
    for t, counts in zip(cfg.times, summary.counts):
        law = transition_matrix(gen, t, spec)[row]
        law = np.clip(law, 0.0, None)
        law /= law.sum()
        projected = np.bincount(unlabeled, weights=counts, minlength=space.size)
        p_values[t] = _chi_square(projected, law)
    min_p = min(p_values.values())
    return ProjectionTest(p_values, min_p, min_p > 1e-4, eta0)


@dataclass(frozen=True)
class RelaxationFit:
    rate: float
    r_squared: float
    conclusive: bool
    reference_gap: float
    covariances: dict


def relaxation_estimate(cfg: SimConfig, observable=None) -> RelaxationFit:
    """Fit the decay rate of the stationary autocovariance of an observable,
    by default the lifted slow eigenfunction, which must relax at exactly
    the walk gap.

    Inconclusive (rather than failed) when the regression has fewer
    than two usable points or explains less than 95 percent of the
    variance.
    """
    if cfg.mode != "sip":
        raise InputError("relaxation estimate runs on mode='sip'")
    spec = rw_spectrum(cfg.graph.walk)
    if observable is None:
        psi = spec.eigenfunctions[:, 1]
        f, lam = lift_eigenfunction(cfg.graph, psi, cfg.k)
        space = enumerate_configs(cfg.graph.n, cfg.k)
        observable = lambda states: f[space.rank_keys(space.keys_of(states))]
    summary = simulate(cfg, observable=observable)
    obs = summary.observable_samples
    f0 = obs[:, 0]
    cov = {}
    for j, t in enumerate(cfg.times):
        ft = obs[:, j]
        cov[t] = float(np.mean(f0 * ft) - np.mean(f0) * np.mean(ft))
    ts = np.array([t for t in cfg.times if cov[t] > 0.0])
    if ts.size < 2:
        return RelaxationFit(math.nan, 0.0, False, spec.gap, cov)
    ys = np.log([cov[t] for t in ts])
    slope, intercept = np.polyfit(ts, ys, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return RelaxationFit(-float(slope), r2, r2 >= 0.95, spec.gap, cov)
