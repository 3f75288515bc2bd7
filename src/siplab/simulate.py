"""Continuous-time Monte Carlo for the particle dynamics.

Paths are exact-in-law jump chains: in a given state the total exit
rate is the sum over admissible moves, the holding time is exponential
with that rate, and the move is picked by a linear scan proportionally
to the individual channel rates.  The walker operates directly on
occupation vectors (or labeled position tuples), so no state-space
enumeration is needed; per-state channel tables are memoized as states
are visited, and particle conservation is asserted for every state that
ever enters the table.

Reproducibility: every path owns a generator spawned from the master
seed by path index, so summaries are bit-identical across runs and
independent of the order in which paths are merged.
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


@dataclass
class TrajectorySummary:
    """Per-sampling-time state histograms plus optional observable samples."""

    config: SimConfig
    histograms: dict = field(default_factory=dict)
    observable_samples: np.ndarray | None = None
    n_absorbed: int = 0

    def counts_total(self, t: float) -> int:
        return sum(self.histograms[t].values())


def _sip_channels(graph: Graph, k: int):
    c = graph.edge_weights
    alpha = graph.site_weights
    n = graph.n
    neighbors = [[(y, c[x, y]) for y in range(n) if y != x and c[x, y] > 0.0]
                 for x in range(n)]

    def channels(state):
        rates = []
        targets = []
        for x in range(n):
            if state[x] == 0:
                continue
            for y, cxy in neighbors[x]:
                rates.append(state[x] * cxy * (alpha[y] + state[y]))
                moved = list(state)
                moved[x] -= 1
                moved[y] += 1
                assert sum(moved) == k, "particle number not conserved"
                targets.append(tuple(moved))
        return rates, targets, math.fsum(rates)

    return channels


def _lookdown_channels(graph: Graph, k: int):
    c = graph.edge_weights
    alpha = graph.site_weights
    n = graph.n
    neighbors = [[(y, c[x, y]) for y in range(n) if y != x and c[x, y] > 0.0]
                 for x in range(n)]

    def channels(state):
        rates = []
        targets = []
        for i in range(k):
            x = state[i]
            lower = state[:i]
            for y, cxy in neighbors[x]:
                rates.append(cxy * (alpha[y] + 2 * lower.count(y)))
                moved = list(state)
                moved[i] = y
                assert len(moved) == k, "particle number not conserved"
                targets.append(tuple(moved))
        return rates, targets, math.fsum(rates)

    return channels


def _path_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(index,)))


def _run_path(channels, memo, state, times, rng):
    """Sample the jump chain at the given times; returns (samples, absorbed)."""
    samples = []
    t = 0.0
    ti = 0
    absorbed = False
    while ti < len(times):
        entry = memo.get(state)
        if entry is None:
            entry = channels(state)
            memo[state] = entry
        rates, targets, total = entry
        if total <= 0.0:
            absorbed = True
            samples.extend([state] * (len(times) - ti))
            break
        t_next = t + rng.exponential(1.0 / total)
        while ti < len(times) and times[ti] < t_next:
            samples.append(state)
            ti += 1
        if ti >= len(times):
            break
        t = t_next
        u = rng.random() * total
        acc = 0.0
        idx = len(rates) - 1
        for j, r in enumerate(rates):
            acc += r
            if u < acc:
                idx = j
                break
        state = targets[idx]
    return samples, absorbed


def _stationary_sampler(cfg: SimConfig):
    """Draw initial states from the exact stationary law of the chosen mode."""
    if cfg.mode == "sip":
        space = enumerate_configs(cfg.graph.n, cfg.k)
        mu = sip_measure(cfg.graph, space)
        states = [tuple(int(v) for v in row) for row in space.occupations]
        probs = mu.probabilities
    else:
        lstates = labeled_states(cfg.graph.n, cfg.k)
        states = [tuple(int(v) for v in row) for row in lstates]
        probs = labeled_stationary_measure(cfg.graph, cfg.k)
    cum = np.cumsum(probs)

    def sample(rng):
        return states[int(np.searchsorted(cum, rng.random()))]

    return sample


def simulate(cfg: SimConfig, initial=None, observable=None) -> TrajectorySummary:
    """Run all paths and histogram the sampled states per sampling time.

    initial: a fixed state tuple, a callable rng -> state, or None for a
    draw from the exact stationary law of the selected mode.
    observable: optional callable state -> float; per-path samples at
    every sampling time are collected into an array.
    """
    channels = (_sip_channels(cfg.graph, cfg.k) if cfg.mode == "sip"
                else _lookdown_channels(cfg.graph, cfg.k))
    if initial is None:
        initial = _stationary_sampler(cfg)
    if not callable(initial):
        fixed = tuple(int(v) for v in initial)
        expected = cfg.k if cfg.mode == "lookdown" else cfg.graph.n
        if len(fixed) != expected:
            raise InputError(f"initial state has length {len(fixed)}, expected {expected}")
        if cfg.mode == "sip" and sum(fixed) != cfg.k:
            raise InputError(f"initial state carries {sum(fixed)} particles, expected {cfg.k}")
        initial = lambda rng: fixed
    memo: dict = {}
    histograms = {t: {} for t in cfg.times}
    obs = (np.empty((cfg.n_paths, len(cfg.times))) if observable is not None else None)
    n_absorbed = 0
    for p in range(cfg.n_paths):
        rng = _path_rng(cfg.seed, p)
        start = initial(rng)
        samples, absorbed = _run_path(channels, memo, start, cfg.times, rng)
        n_absorbed += absorbed
        for t, state in zip(cfg.times, samples):
            hist = histograms[t]
            hist[state] = hist.get(state, 0) + 1
        if obs is not None:
            obs[p] = [observable(s) for s in samples]
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
    if cfg.mode == "sip":
        space = enumerate_configs(cfg.graph.n, cfg.k)
        states = [tuple(int(v) for v in row) for row in space.occupations]
        probs = sip_measure(cfg.graph, space).probabilities
    else:
        states = [tuple(int(v) for v in row) for row in labeled_states(cfg.graph.n, cfg.k)]
        probs = labeled_stationary_measure(cfg.graph, cfg.k)
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
    site_list = [x for x in range(cfg.graph.n) for _ in range(eta0[x])]

    def labeled_start(rng):
        return tuple(int(v) for v in rng.permutation(site_list))

    summary = simulate(cfg, initial=labeled_start)
    spec = sip_spectrum(gen)
    states = [tuple(int(v) for v in row) for row in space.occupations]
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
        values = {tuple(int(v) for v in space.occupations[r]): f[r]
                  for r in range(space.size)}
        observable = lambda s: values[s]
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
