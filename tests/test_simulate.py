import importlib

import numpy as np
import pytest
import scipy.stats

from siplab.configs import enumerate_configs
from siplab.errors import InputError
from siplab.graphs import (Graph, complete_graph, graph_from_edges, path_graph,
                           random_connected_graph)
from siplab.lookdown import labeled_states
from siplab.simulate import (SimConfig, _channels, _pick, chi_square_pvalue, projection_test,
                             relaxation_estimate, simulate, stationary_chi_square)
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
    cfg = SimConfig(g, 3, mode, 1.0, 1, 0, (1.0,))
    states = (enumerate_configs(4, 3).occupations if mode == "sip"
              else labeled_states(4, 3)).copy()
    rates, move, n_channels = _channels(cfg)
    r = rates(states)
    assert r.shape == (states.shape[0], n_channels)
    for channel in range(r.shape[1]):
        rows = np.flatnonzero(r[:, channel] > 0)
        moved = states.copy()
        move(moved, rows, np.full(rows.size, channel))
        for row in rows:
            loop = _loop_channels(g, mode, tuple(states[row]))
            assert loop[tuple(moved[row])] == pytest.approx(r[row, channel], rel=1e-12)
    for row, state in enumerate(states):
        assert r[row].sum() == pytest.approx(sum(_loop_channels(g, mode, tuple(state)).values()),
                                             rel=1e-12)


def test_pick_skips_zero_rate_channels_at_both_ends():
    rates = np.array([[0.0, 1.0, 2.0, 0.0, 0.0],
                      [0.0, 0.0, 3.0, 0.0, 0.0],
                      [0.5, 0.0, 0.5, 0.0, 0.0]])
    cum = np.cumsum(rates, axis=1)
    # u * total rounding up to the total must not land on a trailing zero channel
    assert list(_pick(rates, cum, cum[:, -1])) == [2, 2, 2]
    assert list(_pick(rates, cum, np.zeros(3))) == [1, 2, 0]
    assert list(_pick(rates, cum, np.array([1.0, 1.5, 0.5]))) == [2, 2, 2]


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
