import itertools
import math

import numpy as np
import pytest

from siplab.configs import enumerate_configs, sip_measure
from siplab.errors import StateCapError
from siplab.graphs import build_rw_generator, path_graph, random_connected_graph
from siplab.intertwiners import Level
from siplab.lookdown import (build_labeled_generators, check_labeled_identities,
                             check_stationary_law, drop_top_pullback, labeled_index,
                             labeled_states, labeled_stationary_measure, symmetrizer,
                             unlabel_pullback)


def _loop_operators(graph, k):
    """The labeled operators built state by state, the direct reference for
    the array-assembled ones: (symmetric, lookdown, symmetrizer, top drop,
    unlabel, stationary law)."""
    n, c, alpha = graph.n, graph.edge_weights, graph.site_weights
    states = labeled_states(n, k)
    size = states.shape[0]
    space = enumerate_configs(n, k)
    gens = [np.zeros((size, size)), np.zeros((size, size))]
    sym = np.zeros((size, size))
    drop = np.zeros((size, n ** (k - 1)))
    unlabel = np.zeros((size, space.size))
    omega = np.empty(size)
    for s in range(size):
        pos = states[s]
        for lookdown, m in enumerate(gens):
            for i in range(k):
                for y in range(n):
                    if c[pos[i], y] == 0.0:
                        continue
                    company = 2 * int(np.sum(pos[:i] == y)) if lookdown else int(np.sum(pos == y))
                    target = pos.copy()
                    target[i] = y
                    m[s, labeled_index(target, n)] += c[pos[i], y] * (alpha[y] + company)
        for sigma in itertools.permutations(range(k)):
            sym[s, labeled_index(pos[list(sigma)], n)] += 1.0 / math.factorial(k)
        drop[s, labeled_index(pos[:k - 1], n)] = 1.0
        unlabel[s, space.rank(np.bincount(pos, minlength=n))] = 1.0
        w = 1.0
        for i in range(k):
            w *= alpha[pos[i]] + int(np.sum(pos[:i] == pos[i]))
        omega[s] = w / math.prod(graph.alpha_total + i for i in range(k))
    for m in gens:
        np.fill_diagonal(m, -m.sum(axis=1))
    return gens[0], gens[1], sym, drop, unlabel, omega


def test_array_assembly_equals_state_by_state_loops():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        g = random_connected_graph(n, rng, extra_edge_prob=0.3, alpha_range=(0.3, 2.5))
        for k in (1, 2, 3):
            sym, look = build_labeled_generators(g, k)
            built = (sym.matrix, look.matrix, symmetrizer(n, k).matrix,
                     drop_top_pullback(n, k).matrix,
                     unlabel_pullback(enumerate_configs(n, k)),
                     labeled_stationary_measure(g, k))
            for got, want in zip(built, _loop_operators(g, k)):
                np.testing.assert_array_equal(got, want)


def test_single_particle_generators_are_the_walk():
    rng = np.random.default_rng(0)
    g = random_connected_graph(3, rng)
    sym, look = build_labeled_generators(g, 1)
    walk = build_rw_generator(g).matrix
    np.testing.assert_allclose(sym.matrix, walk, atol=1e-14)
    np.testing.assert_allclose(look.matrix, walk, atol=1e-14)


def test_two_particle_rates_two_sites():
    g = path_graph(2)
    sym, look = build_labeled_generators(g, 2)
    src = labeled_index((0, 1), 2)   # bottom at site 0, top at site 1
    dst = labeled_index((0, 0), 2)   # top joins the bottom
    assert look.matrix[src, dst] == 3.0  # alpha + 2 * (one lower particle there)
    assert sym.matrix[src, dst] == 2.0   # alpha + (one particle there)
    # bottom jumping onto the top keeps rate alpha + 2*0 under lookdown
    dst_bottom = labeled_index((1, 1), 2)
    assert look.matrix[src, dst_bottom] == 1.0
    assert sym.matrix[src, dst_bottom] == 2.0


def test_labeled_cap():
    g = path_graph(2)
    with pytest.raises(StateCapError):
        build_labeled_generators(g, 3, cap=4)


def test_labeled_generators_zero_row_sums():
    rng = np.random.default_rng(8)
    g = random_connected_graph(3, rng)
    sym, look = build_labeled_generators(g, 3)
    np.testing.assert_allclose(sym.matrix.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(look.matrix.sum(axis=1), 0.0, atol=1e-12)


def test_stationary_measure_positive_probability():
    rng = np.random.default_rng(9)
    g = random_connected_graph(3, rng, alpha_range=(0.2, 2.0))
    for k in (1, 2, 3):
        om = labeled_stationary_measure(g, k)
        assert om.min() > 0.0
        assert om.sum() == pytest.approx(1.0, abs=1e-12)


def test_symmetrizer_is_stochastic_projection():
    s = symmetrizer(3, 3).matrix
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-14)
    assert s.min() >= 0.0
    np.testing.assert_allclose(s @ s, s, atol=1e-13)
    # symmetric functions are fixed points
    space = enumerate_configs(3, 3)
    pullback = unlabel_pullback(space)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(space.size)
    np.testing.assert_allclose(s @ (pullback @ f), pullback @ f, atol=1e-13)


def test_drop_top_pullback_injective():
    j = drop_top_pullback(3, 2).matrix
    assert np.linalg.matrix_rank(j) == 3


def test_identity_suite_small_and_random():
    for c in check_labeled_identities(Level(path_graph(2), 2)):
        assert c.passed, c
    rng = np.random.default_rng(2)
    g = random_connected_graph(3, rng)
    for c in check_labeled_identities(Level(g, 3)):
        assert c.passed and c.residual <= 1e-11, c


def test_two_particle_symmetrized_lookdown_explicit():
    # the k = 2 exchange identity, checked entry by entry on a weighted edge
    g = path_graph(2, alpha=[1.7, 0.4])
    sym, look = build_labeled_generators(g, 2)
    s = symmetrizer(2, 2).matrix
    np.testing.assert_allclose(s @ look.matrix, sym.matrix @ s, atol=1e-13)


def test_stationary_measure_two_sites_table():
    om = labeled_stationary_measure(path_graph(2), 2)
    idx = lambda pos: labeled_index(pos, 2)
    assert om[idx((0, 0))] == pytest.approx(1.0 / 3.0)
    assert om[idx((0, 1))] == pytest.approx(1.0 / 6.0)
    assert om[idx((1, 0))] == pytest.approx(1.0 / 6.0)
    assert om[idx((1, 1))] == pytest.approx(1.0 / 3.0)


def test_stationary_measure_single_particle():
    g = path_graph(3, alpha=[1.0, 2.0, 3.0])
    om = labeled_stationary_measure(g, 1)
    np.testing.assert_allclose(om, g.site_weights / g.alpha_total)


def test_pushforward_matches_unlabeled_measure():
    g = path_graph(2)
    om = labeled_stationary_measure(g, 2)
    space = enumerate_configs(2, 2)
    push = om @ unlabel_pullback(space)
    np.testing.assert_allclose(push, [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], atol=1e-14)
    mu = sip_measure(g, space)
    np.testing.assert_allclose(push, mu.probabilities, atol=1e-14)


def test_stationary_law_report():
    rng = np.random.default_rng(3)
    for g, k in [(path_graph(2), 2), (random_connected_graph(3, rng), 3)]:
        report = check_stationary_law(g, k)
        assert report.passed, [c for c in report.checks if not c.passed]
        assert report.nonreversibility_witness is not None
        src, dst, asym = report.nonreversibility_witness
        assert asym > 1e-3  # macroscopic failure of detailed balance


def test_exchangeability_of_expectations():
    rng = np.random.default_rng(4)
    g = random_connected_graph(3, rng)
    k = 2
    om = labeled_stationary_measure(g, k)
    space = enumerate_configs(3, k)
    mu = sip_measure(g, space)
    pullback = unlabel_pullback(space)
    for _ in range(10):
        f = rng.standard_normal(space.size)
        labeled_mean = float(om @ (pullback @ f))
        plain_mean = float(mu.probabilities @ f)
        assert labeled_mean == pytest.approx(plain_mean, abs=1e-12)


def test_top_marginal_consistency():
    rng = np.random.default_rng(5)
    g = random_connected_graph(3, rng)
    for k in (2, 3):
        om = labeled_stationary_measure(g, k)
        marginal = om.reshape(-1, g.n).sum(axis=1)
        np.testing.assert_allclose(marginal, labeled_stationary_measure(g, k - 1),
                                   atol=1e-15)


def test_bottom_particle_margin_is_walk():
    rng = np.random.default_rng(6)
    g = random_connected_graph(3, rng)
    k = 3
    _, look = build_labeled_generators(g, k)
    states = labeled_states(g.n, k)
    proj = np.zeros((states.shape[0], g.n))
    for s in range(states.shape[0]):
        proj[s, states[s][0]] = 1.0
    walk = build_rw_generator(g).matrix
    np.testing.assert_allclose(look.matrix @ proj, proj @ walk, atol=1e-12)
