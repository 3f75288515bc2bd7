"""Continuous-time Monte Carlo for the particle dynamics.

Paths are exact-in-law jump chains (Gillespie's direct method), and all of
them advance together.  The states are one int array, `(P, n)` occupations
(`sip`) or `(P, k)` labeled positions (`lookdown`).  Each round computes
every channel rate of every live path with array operations, draws one
exponential holding time and one uniform per path, records the sampling
times the jump passes, and picks each move by a cumulative-sum comparison
that never lands on a zero-rate channel.  Particle conservation is
asserted over the batch at every round; a path with total rate 0 is
absorbed and holds its state to the horizon.  Only the default start, a
draw from the exact stationary law, enumerates a state space.

Reproducibility: one `default_rng(seed)` stream drives every path, the
initial draws included, so a summary is bit-identical from run to run for
a given seed and path count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configs import enumerate_configs, sip_measure
from .errors import InputError
from .graphs import Graph, build_rw_generator, rw_spectrum
from .intertwiners import lift_eigenfunction
from .lookdown import labeled_stationary_measure, labeled_states
from .sip import build_sip_generator, sip_spectrum, transition_matrix

MODES = ("sip", "lookdown")
# Paths advance in batches of at most this many channel rates or sampled
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
        if not self.horizon > 0:
            raise InputError("horizon must be positive")
        if self.n_paths < 1:
            raise InputError("need at least one path")
        times = tuple(sorted(float(t) for t in self.times))
        if not times:
            raise InputError("need at least one sampling time")
        if times[0] < 0 or times[-1] > self.horizon:
            raise InputError("sampling times must lie in [0, horizon]")
        object.__setattr__(self, "times", times)

    @property
    def width(self) -> int:
        """Length of one state: n occupations (sip) or k positions (lookdown)."""
        return self.graph.n if self.mode == "sip" else self.k


@dataclass
class TrajectorySummary:
    """Per-sampling-time state histograms plus optional observable samples."""

    config: SimConfig
    histograms: dict = field(default_factory=dict)
    observable_samples: np.ndarray | None = None
    n_absorbed: int = 0

    def counts_total(self, t: float) -> int:
        return sum(self.histograms[t].values())


def _channels(cfg: SimConfig):
    """(rates, move, number of channels): `rates(states)` gives every
    channel rate of every row, `move(states, rows, channel)` applies one
    chosen channel per listed row in place and asserts conservation over
    the whole batch."""
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


def _pick(rates: np.ndarray, cum: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per row, the channel j with cum[j-1] <= target < cum[j], which has a
    positive rate; when target = u * total rounds up to the total, the last
    channel with a positive rate."""
    channel = np.sum(cum <= target[:, None], axis=1)
    over = channel == cum.shape[1]
    if over.any():
        channel[over] = cum.shape[1] - 1 - np.argmax(rates[over, ::-1] > 0.0, axis=1)
    return channel


def _stationary_law(cfg: SimConfig):
    """All states of the chosen mode, one per row, with their exact
    stationary probabilities."""
    if cfg.mode == "sip":
        space = enumerate_configs(cfg.graph.n, cfg.k)
        return space.occupations, sip_measure(cfg.graph, space).probabilities
    return labeled_states(cfg.graph.n, cfg.k), labeled_stationary_measure(cfg.graph, cfg.k)


def _initial_batch(cfg: SimConfig, initial, rng, P: int) -> np.ndarray:
    n = cfg.graph.n
    if callable(initial):
        batch = np.asarray(initial(rng, P), dtype=np.int64)
    else:
        batch = np.tile(np.asarray(initial, dtype=np.int64), (P, 1))
    if batch.shape != (P, cfg.width):
        raise InputError(f"initial states have shape {batch.shape}, "
                         f"expected {(P, cfg.width)}")
    if cfg.mode == "sip" and (np.any(batch < 0) or np.any(batch.sum(axis=1) != cfg.k)):
        raise InputError(f"initial states must put {cfg.k} particles on {n} sites")
    if cfg.mode == "lookdown" and np.any((batch < 0) | (batch >= n)):
        raise InputError(f"initial positions must be sites 0..{n - 1}")
    return np.array(batch)


def _advance(cfg: SimConfig, rates, move, state: np.ndarray, rng):
    """Advance one batch of paths past the last sampling time; returns the
    (P, T, width) sampled states and the number of absorbed paths."""
    times = np.asarray(cfg.times)
    P, T = state.shape[0], times.size
    samples = np.empty((P, T, cfg.width), dtype=np.int64)
    clock = np.zeros(P)
    taken = np.zeros(P, dtype=np.int64)  # sampling times recorded per path
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
        # record the state at every sampling time before the jump
        reached = np.searchsorted(times, jump_at)
        fresh = reached - taken[live]
        rows = np.repeat(live, fresh)
        cols = np.repeat(reached - np.cumsum(fresh), fresh) + np.arange(rows.size)
        samples[rows, cols] = state[rows]
        taken[live] = reached
        go = reached < T
        live = live[go]
        move(state, live, _pick(r[go], cum[go], (u * total)[go]))
        clock[live] = jump_at[go]
    return samples, n_absorbed


def simulate(cfg: SimConfig, initial=None, observable=None) -> TrajectorySummary:
    """Run all paths and histogram the sampled states per sampling time.

    initial: a fixed state, a callable (rng, P) -> (P, width) int array of
    states, or None for draws from the exact stationary law of the mode.
    observable: optional callable (m, width) states -> (m,) values; its
    per-path samples at every sampling time are collected into a
    (n_paths, T) array.
    """
    rng = np.random.default_rng(cfg.seed)
    rates, move, n_channels = _channels(cfg)
    if initial is None:
        states, probs = _stationary_law(cfg)
        initial = lambda rng, P: states[rng.choice(states.shape[0], size=P, p=probs)]
    T = len(cfg.times)
    per_batch = max(1, BATCH_ENTRIES // max(n_channels, T * cfg.width))
    histograms = {t: {} for t in cfg.times}
    obs = np.empty((cfg.n_paths, T)) if observable is not None else None
    n_absorbed = 0
    for first in range(0, cfg.n_paths, per_batch):
        state = _initial_batch(cfg, initial, rng, min(per_batch, cfg.n_paths - first))
        samples, absorbed = _advance(cfg, rates, move, state, rng)
        n_absorbed += absorbed
        for j, t in enumerate(cfg.times):
            seen, counts = np.unique(samples[:, j], axis=0, return_counts=True)
            for key, count in zip(map(tuple, seen.tolist()), counts.tolist()):
                histograms[t][key] = histograms[t].get(key, 0) + count
        if obs is not None:
            values = observable(samples.reshape(-1, cfg.width))
            obs[first:first + state.shape[0]] = np.asarray(values, dtype=float).reshape(-1, T)
    return TrajectorySummary(cfg, histograms, obs, n_absorbed)


def chi_square_pvalue(counts: dict, states, probs, min_expected: float = 5.0) -> float:
    """Goodness-of-fit p-value of observed counts against exact cell
    probabilities, pooling low-expectation cells."""
    n_total = sum(counts.values())
    observed = np.array([counts.get(s, 0) for s in states], dtype=float)
    expected = np.asarray(probs, dtype=float) * n_total
    if n_total - observed.sum() > 0:
        raise InputError("observed states outside the reference support")
    if float(observed[expected == 0.0].sum()) > 0:
        return 0.0
    observed = observed[expected > 0.0]
    expected = expected[expected > 0.0]
    pool = expected < min_expected
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
    level: float
    passed: bool


def stationary_chi_square(cfg: SimConfig, level: float = 0.01) -> StationaryTest:
    """Start from the exact stationary law, evolve, and test that the
    sampled states still follow it at every sampling time (Bonferroni
    across times)."""
    summary = simulate(cfg)
    states, probs = _stationary_law(cfg)
    states = list(map(tuple, states.tolist()))
    p_values = {t: chi_square_pvalue(summary.histograms[t], states, probs)
                for t in cfg.times}
    threshold = level / len(cfg.times)
    return StationaryTest(p_values, level, all(p > threshold for p in p_values.values()))


@dataclass(frozen=True)
class ProjectionTest:
    p_values: dict
    min_p: float
    passed: bool
    initial: tuple


def projection_test(cfg: SimConfig, initial_config=None,
                    fail_below: float = 1e-4) -> ProjectionTest:
    """Forget the labels of the lookdown process and compare, at every
    sampling time, against the exact law of the unlabeled dynamics.

    The labeled start is a uniformly random labeling of one fixed
    occupation configuration; the reference law is the corresponding
    row of the exact semigroup.
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
    states = list(map(tuple, space.occupations.tolist()))
    row = space.rank(eta0)
    p_values = {}
    for t in cfg.times:
        law = transition_matrix(gen, t, spec)[row]
        law = np.clip(law, 0.0, None)
        law /= law.sum()
        projected = {}
        for state, count in summary.histograms[t].items():
            occ = tuple(int(v) for v in np.bincount(state, minlength=cfg.graph.n))
            projected[occ] = projected.get(occ, 0) + count
        p_values[t] = chi_square_pvalue(projected, states, law)
    min_p = min(p_values.values())
    return ProjectionTest(p_values, min_p, min_p > fail_below, eta0)


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
    spec = rw_spectrum(build_rw_generator(cfg.graph))
    if observable is None:
        psi = spec.eigenfunctions[:, 1]
        f, lam = lift_eigenfunction(cfg.graph, psi, cfg.k)
        space = enumerate_configs(cfg.graph.n, cfg.k)
        observable = lambda states: f[space.rank_keys(states @ space.place)]
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
