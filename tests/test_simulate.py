import importlib
import math

import numpy as np
import pytest
import scipy.stats
from conftest import rate_pick, rate_simulate

from siplab.errors import InputError, VerificationError
from siplab.graphs import (Graph, complete_graph, graph_from_edges, path_graph,
                           random_connected_graph)
from siplab.simulate import (JumpTable, SimConfig, _level, chi_square_pvalue, projection_test,
                             relaxation_estimate, simulate, stationary_chi_square)
from siplab.configs import sip_measure
from siplab.sip import build_sip_generator, transition_matrix

simulate_module = importlib.import_module("siplab.simulate")  # the package rebinds the name


def test_config_validation():
    g = path_graph(2)
    with pytest.raises(InputError):
        SimConfig(g, 2, "bogus", 1.0, 10, 0, (0.5,))
    with pytest.raises(InputError):
        SimConfig(g, 2, "sip", 0.0, 10, 0, (0.0,))
    with pytest.raises(InputError):
        SimConfig(g, 2, "sip", 1.0, 0, 0, (0.5,))
    with pytest.raises(InputError):
        SimConfig(g, 2, "sip", 1.0, 10, 0, (2.0,))  # beyond horizon
    with pytest.raises(InputError):
        SimConfig(g, 2, "sip", 1.0, 10, 0, ())
    # non-finite horizons and times would never be passed; a repeated time
    # would count its paths twice
    for horizon, times in [(1.0, (0.5, math.nan)), (math.nan, (0.5,)), (math.inf, (math.inf,)),
                           (math.inf, (1.0,)), (1.0, (-math.inf,)), (1.0, (1.0, 1.0))]:
        with pytest.raises(InputError):
            SimConfig(g, 2, "sip", horizon, 10, 0, times)


def test_histograms_conserve_particles_and_mass():
    g = path_graph(3, alpha=[0.5, 1.0, 2.0])
    cfg = SimConfig(g, 3, "sip", 1.0, 500, 123, (0.5, 1.0))
    summary = simulate(cfg)
    for t in cfg.times:
        hist = summary.histograms[t]
        assert sum(hist.values()) == cfg.n_paths
        for state in hist:
            assert sum(state) == 3


def test_reproducible_summaries():
    g = path_graph(2)
    cfg = SimConfig(g, 2, "sip", 1.0, 300, 99, (1.0,))
    a = simulate(cfg).histograms
    b = simulate(cfg).histograms
    assert a == b


def test_absorbing_state_flagged():
    g = Graph(2, np.zeros((2, 2)), np.ones(2))  # no edges: nothing can move
    cfg = SimConfig(g, 2, "sip", 1.0, 50, 7, (0.5, 1.0))
    summary = simulate(cfg, initial=(2, 0))
    assert summary.n_absorbed == 50
    assert summary.histograms[1.0] == {(2, 0): 50}


def _loop_channels(graph, mode, state):
    """Reference: {target state: rate} of one state, channel by channel."""
    c, alpha, n = graph.edge_weights, graph.site_weights, graph.n
    out = {}
    for i, x in enumerate(state if mode == "lookdown" else range(n)):
        for y in range(n):
            if mode == "sip":
                rate = state[x] * c[x, y] * (alpha[y] + state[y])
                moved = list(state)
                moved[x] -= 1
                moved[y] += 1
            else:
                rate = c[x, y] * (alpha[y] + 2 * list(state[:i]).count(y))
                moved = list(state)
                moved[i] = y
            if rate > 0:
                out[tuple(moved)] = out.get(tuple(moved), 0.0) + rate
    return out


@pytest.mark.parametrize("mode", ["sip", "lookdown"])
def test_batch_channels_match_state_by_state_loop(mode):
    rng = np.random.default_rng(5)
    g = random_connected_graph(4, rng)
    states, rank, _, table = _level(SimConfig(g, 3, mode, 1.0, 1, 0, (1.0,)))
    assert np.array_equal(rank(states), np.arange(states.shape[0]))
    assert table.cum.shape == (states.shape[0], table.degrees.max())
    for s, state in enumerate(states):
        deg = table.degrees[s]
        rates = np.diff(table.cum[s, :deg], prepend=0.0)
        moves = {tuple(states[t]): r for t, r in zip(table.targets[s, :deg].tolist(), rates)}
        loop = _loop_channels(g, mode, tuple(state))
        assert moves.keys() == loop.keys() and len(moves) == deg
        for target, rate in loop.items():
            assert moves[target] == pytest.approx(rate, rel=1e-12)
        assert table.exits[s] == pytest.approx(sum(loop.values()), rel=1e-12)
        assert np.all(table.cum[s, deg:] == np.inf)


def test_pick_skips_zero_rate_channels_at_both_ends():
    # three states whose channel rates, as the rate-by-rate stepper saw them,
    # include zero-rate channels; the table holds only the positive ones
    rates = np.array([[0.0, 1.0, 2.0, 0.0, 0.0],
                      [0.0, 0.0, 3.0, 0.0, 0.0],
                      [0.5, 0.0, 0.5, 0.0, 0.0]])
    sources, channels = np.nonzero(rates)
    table = JumpTable.from_triplets(3, sources, channels % 3, rates[sources, channels])
    cum = np.cumsum(rates, axis=1)
    s = np.arange(3)
    # the table picks the channel the rate-by-rate stepper picked: u * total
    # rounding up to the total gives the last move, and a target on a
    # boundary of the cumulative rates gives the move after it
    for target in (cum[:, -1], np.zeros(3), np.array([1.0, 1.5, 0.5]), np.array([2.9, 2.9, 0.9])):
        picked = table.pick(s, target)
        assert [channels[sources == row][picked[row]] for row in s] == list(rate_pick(rates, cum, target))
    assert list(table.pick(s, cum[:, -1])) == [1, 0, 1]
    assert list(table.pick(s, np.zeros(3))) == [0, 0, 0]
    assert list(table.pick(s, np.array([1.0, 0.0, 0.5]))) == [1, 0, 1]
    with pytest.raises(VerificationError):
        JumpTable.from_triplets(3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 0.0]))
    with pytest.raises(VerificationError):
        JumpTable.from_triplets(3, np.array([0, 1]), np.array([1, 3]), np.array([1.0, 1.0]))


def _random_cases():
    rng = np.random.default_rng(2024)
    for case in range(24):
        n, k, mode = int(rng.integers(2, 6)), int(rng.integers(1, 5)), ("sip", "lookdown")[case % 2]
        g = random_connected_graph(n, rng, alpha_range=(float(rng.choice([0.05, 0.5])), 2.0))
        if case % 6 < 2:  # the last site isolated: its particles are absorbed
            c = g.edge_weights.copy()
            c[-1], c[:, -1] = 0.0, 0.0
            g = Graph(n, c, g.site_weights)
        times = tuple(sorted(set(np.round(rng.uniform(0, 1.5, size=int(rng.integers(1, 4))), 2))))
        cfg = SimConfig(g, k, mode, 1.5, int(rng.integers(50, 300)), int(rng.integers(1000)), times)
        yield case, cfg


@pytest.mark.parametrize("entries", [None, 40])
def test_ranked_stepper_matches_rate_by_rate_oracle(monkeypatch, entries):
    # the same draws, picks and batch split as evaluating every channel rate of
    # every path each round: equal histograms, absorbed counts and observables
    if entries is not None:
        monkeypatch.setattr(simulate_module, "BATCH_ENTRIES", entries)
    absorbed = 0
    for case, cfg in _random_cases():
        n, k, width = cfg.graph.n, cfg.k, cfg.width
        if case % 3 == 0:
            initial = None
        elif case % 3 == 1:
            initial = [k] + [0] * (n - 1) if cfg.mode == "sip" else [n - 1] * k
        elif cfg.mode == "sip":
            initial = lambda rng, P: np.stack([np.bincount(row, minlength=n)
                                               for row in rng.integers(0, n, size=(P, k))])
        else:
            initial = lambda rng, P: rng.integers(0, n, size=(P, k))
        observable = lambda states: states[:, 0] * 1.5 - states[:, -1]
        summary = simulate(cfg, initial=initial, observable=observable)
        histograms, n_absorbed, obs = rate_simulate(cfg, initial, observable)
        assert summary.histograms == histograms, case
        assert summary.n_absorbed == n_absorbed, case
        assert np.array_equal(summary.observable_samples, obs), case
        assert np.all(summary.counts.sum(axis=1) == cfg.n_paths)
        assert summary.counts.shape[1] == summary.states.shape[0] and width == summary.states.shape[1]
        absorbed += n_absorbed
    assert absorbed > 0


@pytest.mark.parametrize("entries", [None, 60])
@pytest.mark.parametrize("mode, stuck, moving", [("sip", (0, 0, 2), (2, 0, 0)),
                                                  ("lookdown", (2, 2), (0, 0))])
def test_mixed_batch_of_absorbed_and_moving_paths(monkeypatch, entries, mode, stuck, moving):
    # site 2 is isolated: particles there never move, the pair 0-1 keeps mixing;
    # a small BATCH_ENTRIES splits the 600 paths into batches of 6 to 10
    if entries is not None:
        monkeypatch.setattr(simulate_module, "BATCH_ENTRIES", entries)
    g = graph_from_edges(3, [(0, 1, 1.0)], [1.0, 2.0, 1.0])
    cfg = SimConfig(g, 2, mode, 2.0, 600, 17, (0.0, 0.5, 2.0))
    starts = np.array([stuck, moving])

    def initial(rng, P):
        return starts[np.arange(P) % 2]

    summary = simulate(cfg, initial=initial, observable=lambda states: states[:, 0])
    n_stuck = summary.histograms[0.0][stuck]
    assert summary.n_absorbed == n_stuck
    if entries is None:
        assert n_stuck == 300
    for j, t in enumerate(cfg.times):
        hist = summary.histograms[t]
        assert sum(hist.values()) == 600
        assert hist[stuck] == n_stuck
        assert summary.observable_samples[:, j].sum() == sum(s[0] * c for s, c in hist.items())
        for state in hist:
            if mode == "sip":
                assert sum(state) == 2 and min(state) >= 0
            assert state == stuck or (state[2] == 0 if mode == "sip" else 2 not in state)
    assert hist[moving] < 600 - n_stuck  # the moving paths did move


def _cycle_with_chord(jump_rate: float) -> Graph:
    """The 5-cycle with chord (0, 2), edge weights scaled so that 4 inclusion
    particles in their stationary law jump at `jump_rate` on average."""
    g = graph_from_edges(5, [(0, 1, 1.3), (1, 2, 0.7), (2, 3, 1.9), (3, 4, 0.6), (4, 0, 1.1),
                             (0, 2, 1.4)], [0.4, 1.2, 2.5, 0.9, 1.7])
    gen = build_sip_generator(g, 4)
    mean_rate = -float(gen.matrix.diagonal() @ sip_measure(g, gen.space).probabilities)
    return Graph(5, g.edge_weights * (jump_rate / mean_rate), g.site_weights)


def _stepper_cases():
    lone = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 2.0)], [1.0, 0.5, 2.0, 1.5])  # site 3 isolated
    for mode in ("sip", "lookdown"):
        # the size of a Monte-Carlo benchmark op: about 60 jumps per path
        yield pytest.param(SimConfig(_cycle_with_chord(20.0), 4, mode, 3.0, 1000, 3001,
                                     (0.0, 1.0, 2.0, 3.0)), None, id=f"cycle-{mode}")
        # every path jumps past the horizon in the first round
        yield pytest.param(SimConfig(path_graph(3), 2, mode, 1e-9, 200, 5, (0.0, 1e-9)), None,
                           id=f"first-round-{mode}")
        # sampling times at 0 and at the horizon
        yield pytest.param(SimConfig(path_graph(3, alpha=[0.3, 1.0, 2.5]), 3, mode, 1.5, 300, 8,
                                     (0.0, 0.7, 1.5)), None, id=f"ends-{mode}")
        # batches of a few paths, some absorbed at the isolated site
        yield pytest.param(SimConfig(lone, 3, mode, 2.0, 250, 12, (0.5, 2.0)), 50,
                           id=f"split-{mode}")


@pytest.mark.parametrize("cfg, entries", list(_stepper_cases()))
def test_stepper_edge_cases_match_rate_by_rate_oracle(monkeypatch, cfg, entries):
    if entries is not None:
        monkeypatch.setattr(simulate_module, "BATCH_ENTRIES", entries)
    observable = lambda states: states[:, 0] * 1.5 - states[:, -1]
    summary = simulate(cfg, observable=observable)
    histograms, n_absorbed, obs = rate_simulate(cfg, None, observable)
    assert summary.histograms == histograms
    assert summary.n_absorbed == n_absorbed
    assert np.array_equal(summary.observable_samples, obs)
    assert n_absorbed > 0 or entries is None


def test_sip_transient_law_from_fixed_state():
    g = path_graph(3, alpha=[0.5, 1.0, 2.0])
    cfg = SimConfig(g, 2, "sip", 1.0, 20_000, 31, (0.25, 0.5, 1.0))
    summary = simulate(cfg, initial=(2, 0, 0))
    gen = build_sip_generator(g, 2)
    states = list(map(tuple, gen.space.occupations.tolist()))
    row = gen.space.rank((2, 0, 0))
    for t in cfg.times:
        law = np.clip(transition_matrix(gen, t)[row], 0.0, None)
        p = chi_square_pvalue(summary.histograms[t], states, law / law.sum())
        assert p > 0.01 / len(cfg.times), (t, p)


def test_single_particle_stationary_frequencies():
    g = path_graph(2, alpha=[2.0, 1.0])
    cfg = SimConfig(g, 1, "sip", 2.0, 20_000, 42, (2.0,))
    summary = simulate(cfg)
    counts = summary.histograms[2.0]
    # state (0,1) holds the particle at site 1, mass 1/3; 3 sigma band
    p = 1.0 / 3.0
    sigma = np.sqrt(p * (1 - p) * cfg.n_paths)
    assert abs(counts[(0, 1)] - p * cfg.n_paths) <= 3 * sigma
    st = stationary_chi_square(cfg)
    assert st.passed, st.p_values


def test_two_particle_stationary_uniform():
    cfg = SimConfig(path_graph(2), 2, "sip", 1.0, 20_000, 7, (0.5, 1.0))
    st = stationary_chi_square(cfg)
    assert st.passed, st.p_values


def test_lookdown_stationary_law():
    cfg = SimConfig(path_graph(2), 2, "lookdown", 1.0, 20_000, 3, (1.0,))
    st = stationary_chi_square(cfg)
    assert st.passed, st.p_values


def test_projection_onto_unlabeled_law():
    cfg = SimConfig(path_graph(2), 2, "lookdown", 0.5, 20_000, 11, (0.0, 0.25, 0.5))
    result = projection_test(cfg, initial_config=(2, 0))
    assert result.passed and result.min_p > 1e-3, result.p_values


def test_projection_single_particle_trivial():
    cfg = SimConfig(path_graph(2), 1, "lookdown", 0.5, 5_000, 13, (0.25, 0.5))
    result = projection_test(cfg, initial_config=(1, 0))
    assert result.passed


def test_bottom_particle_matches_independent_walk():
    # two-sample comparison of bottom-particle occupation frequencies in the
    # lookdown chain against an independently simulated single walk
    g = path_graph(2, alpha=[1.0, 2.0])
    t_obs = 1.0
    cfg_look = SimConfig(g, 3, "lookdown", t_obs, 10_000, 5, (t_obs,))
    look_counts = np.zeros(2)
    for state, c in simulate(cfg_look).histograms[t_obs].items():
        look_counts[state[0]] += c
    # single-particle states are occupation vectors, so the site is the
    # position of the lone 1
    cfg_walk = SimConfig(g, 1, "sip", t_obs, 10_000, 6, (t_obs,))
    walk_counts = np.zeros(2)
    for state, c in simulate(cfg_walk).histograms[t_obs].items():
        walk_counts[state.index(1)] += c
    table = np.vstack([look_counts, walk_counts])
    _, p, _, _ = scipy.stats.chi2_contingency(table)
    assert p > 0.01


def test_relaxation_rate_two_sites():
    cfg = SimConfig(path_graph(2), 2, "sip", 1.0, 30_000, 19,
                    (0.0, 0.25, 0.5, 0.75, 1.0))
    fit = relaxation_estimate(cfg)
    assert fit.conclusive
    assert fit.reference_gap == pytest.approx(2.0)
    assert abs(fit.rate - fit.reference_gap) <= 0.2


def test_relaxation_rate_complete_graph():
    # mean-field normalization: the walk gap is |alpha| / n = 1, and the
    # lifted slow mode must relax at that rate for three particles too
    cfg = SimConfig(complete_graph(3), 3, "sip", 1.5, 40_000, 29,
                    (0.0, 0.3, 0.6, 0.9, 1.2, 1.5))
    fit = relaxation_estimate(cfg)
    assert fit.conclusive
    assert fit.reference_gap == pytest.approx(1.0)
    assert abs(fit.rate - 1.0) <= 0.1


def test_relaxation_inconclusive_on_degenerate_grid():
    cfg = SimConfig(path_graph(2), 2, "sip", 1.0, 500, 23, (1.0,))
    fit = relaxation_estimate(cfg)
    assert not fit.conclusive


def test_chi_square_helper():
    states = [(0,), (1,), (2,)]
    probs = np.array([0.5, 0.3, 0.2])
    counts = {(0,): 520, (1,): 290, (2,): 190}
    assert chi_square_pvalue(counts, states, probs) > 0.01
    # mass observed on a zero-probability cell is an immediate failure
    assert chi_square_pvalue({(0,): 10, (1,): 0, (2,): 1},
                             states, np.array([0.9, 0.1, 0.0])) == 0.0
    with pytest.raises(InputError):
        chi_square_pvalue({(9,): 5}, states, probs)
