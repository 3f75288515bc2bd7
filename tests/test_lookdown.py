import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (DEGENERATE_GRAPHS, dense_labeled_identities, dense_stationary_law,
                      dense_symmetrizer, label_maps, loop_labeled_jumps,
                      reference_labeled_identities)
from siplab.configs import enumerate_configs, sip_measure
from siplab.errors import StateCapError, VerificationError
from siplab.graphs import (build_rw_generator, complete_graph, graph_from_dict,
                           graph_from_edges, path_graph, random_connected_graph)
from siplab.intertwiners import Level
from siplab.lookdown import (_labeled_jumps, build_labeled_generators,
                             check_labeled_identities, check_stationary_law, drop_top_pullback,
                             labeled_index, labeled_states, labeled_stationary_measure)


def _loop_operators(graph, k):
    """The labeled operators built state by state, the direct reference for
    the array-assembled ones: (symmetric, lookdown, symmetrizer, top drop,
    unlabel, stationary law).  Each jump's rate leaves the diagonal as the
    jump is placed, so a row's exit rate is summed in jump order."""
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
                    rate = c[pos[i], y] * (alpha[y] + company)
                    m[s, labeled_index(target, n)] += rate
                    m[s, s] -= rate
        for sigma in itertools.permutations(range(k)):
            sym[s, labeled_index(pos[list(sigma)], n)] += 1.0 / math.factorial(k)
        drop[s, labeled_index(pos[:k - 1], n)] = 1.0
        unlabel[s, space.rank(np.bincount(pos, minlength=n))] = 1.0
        w = 1.0
        for i in range(k):
            w *= alpha[pos[i]] + int(np.sum(pos[:i] == pos[i]))
        omega[s] = w / math.prod(graph.alpha_total + i for i in range(k))
    return gens[0], gens[1], sym, drop, unlabel, omega


def test_array_assembly_equals_state_by_state_loops():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        g = random_connected_graph(n, rng, extra_edge_prob=0.3, alpha_range=(0.3, 2.5))
        for k in (1, 2, 3):
            sym, look = build_labeled_generators(g, k)
            built = (sym.toarray(), look.toarray(), dense_symmetrizer(n, k),
                     drop_top_pullback(n, k).toarray(),
                     label_maps(enumerate_configs(n, k))[0].toarray(),
                     labeled_stationary_measure(g, k))
            for got, want in zip(built, _loop_operators(g, k)):
                np.testing.assert_array_equal(got, want)


def test_single_particle_generators_are_the_walk():
    rng = np.random.default_rng(0)
    g = random_connected_graph(3, rng)
    sym, look = build_labeled_generators(g, 1)
    walk = build_rw_generator(g).matrix
    np.testing.assert_allclose(sym.toarray(), walk, atol=1e-14)
    np.testing.assert_allclose(look.toarray(), walk, atol=1e-14)


def test_two_particle_rates_two_sites():
    g = path_graph(2)
    sym, look = build_labeled_generators(g, 2)
    src = labeled_index((0, 1), 2)   # bottom at site 0, top at site 1
    dst = labeled_index((0, 0), 2)   # top joins the bottom
    assert look[src, dst] == 3.0  # alpha + 2 * (one lower particle there)
    assert sym[src, dst] == 2.0   # alpha + (one particle there)
    # bottom jumping onto the top keeps rate alpha + 2*0 under lookdown
    dst_bottom = labeled_index((1, 1), 2)
    assert look[src, dst_bottom] == 1.0
    assert sym[src, dst_bottom] == 2.0


def test_labeled_cap():
    # 2^13 = 8192 labeled states, over the cap of 4096: refused before any allocation
    with pytest.raises(StateCapError, match="8192 exceeds cap 4096"):
        build_labeled_generators(path_graph(2), 13)


@pytest.mark.parametrize("lookdown", [False, True])
def test_labeled_jumps_come_in_the_order_of_the_label_site_loop(lookdown):
    # the order of the moves decides the Monte-Carlo pick, and with it the
    # bytes of `simulate`; a dict comparison of moves would not see it
    graphs = [graph_from_edges(5, [(0, 1, 1.3), (1, 2, 0.7), (2, 3, 1.9), (3, 4, 0.6),
                                   (4, 0, 1.1), (0, 2, 1.4)], [0.4, 1.2, 2.5, 0.9, 1.7]),
              complete_graph(4), path_graph(3, alpha=[0.3, 1.0, 2.5]),
              graph_from_edges(4, [(0, 1, 1.0), (1, 2, 2.0)], [1.0, 0.5, 2.0, 1.5])]  # site 3 isolated
    for g in graphs:
        for k in range(1, 5):
            got, want = _labeled_jumps(g, k, lookdown), loop_labeled_jumps(g, k, lookdown)
            for a, b in zip(got, want):
                assert np.array_equal(a, b) and a.dtype == b.dtype, (g.n, k)


def test_labeled_generators_zero_row_sums():
    rng = np.random.default_rng(8)
    g = random_connected_graph(3, rng)
    sym, look = build_labeled_generators(g, 3)
    np.testing.assert_allclose(sym.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(look.sum(axis=1), 0.0, atol=1e-12)


def test_stationary_measure_positive_probability():
    rng = np.random.default_rng(9)
    g = random_connected_graph(3, rng, alpha_range=(0.2, 2.0))
    for k in (1, 2, 3):
        om = labeled_stationary_measure(g, k)
        assert om.min() > 0.0
        assert om.sum() == pytest.approx(1.0, abs=1e-12)


def test_symmetrizer_is_stochastic_projection():
    s = dense_symmetrizer(3, 3)
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-14)
    assert s.min() >= 0.0
    np.testing.assert_allclose(s @ s, s, atol=1e-13)
    # symmetric functions are fixed points
    space = enumerate_configs(3, 3)
    pullback = label_maps(space)[0]
    rng = np.random.default_rng(1)
    f = rng.standard_normal(space.size)
    np.testing.assert_allclose(s @ (pullback @ f), pullback @ f, atol=1e-13)


def test_drop_top_pullback_injective():
    j = drop_top_pullback(3, 2).toarray()
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
    s = dense_symmetrizer(2, 2)
    np.testing.assert_allclose(s @ look, sym @ s, atol=1e-13)


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
    push = om @ label_maps(space)[0]
    np.testing.assert_allclose(push, [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], atol=1e-14)
    mu = sip_measure(g, space)
    np.testing.assert_allclose(push, mu.probabilities, atol=1e-14)


def test_stationary_law_report():
    rng = np.random.default_rng(3)
    for g, k in [(path_graph(2), 2), (random_connected_graph(3, rng), 3)]:
        report = check_stationary_law(Level(g, k))
        assert report.passed, [c for c in report.checks if not c.passed]
        assert report.nonreversibility_witness is not None
        src, dst, asym = report.nonreversibility_witness
        assert asym > 1e-3  # macroscopic failure of detailed balance


def test_lookdown_witness_is_relative_to_the_pair_flux():
    # unitless: the same ratio at every time scale
    for scale in (1.0, 1e-9, 1e9):
        g = path_graph(3)
        g = replace(g, edge_weights=scale * g.edge_weights)
        report = check_stationary_law(Level(g, 2))
        assert report.passed
        src, dst, ratio = report.nonreversibility_witness
        assert ratio == pytest.approx(0.5, rel=1e-12)
        check = next(c for c in report.checks if c.identity.startswith("lookdown-breaks"))
        assert check.detail.startswith("max relative flux asymmetry 0.5 between")


def test_a_lookdown_move_without_its_reverse_is_a_verification_error():
    level = Level(random_connected_graph(3, np.random.default_rng(14)), 2)
    look = level.labeled.lookdown.copy()
    rows = np.repeat(np.arange(look.shape[0]), np.diff(look.indptr))
    look.data[np.flatnonzero(look.indices != rows)[0]] = 0.0
    look.eliminate_zeros()
    level.labeled.lookdown = look
    with pytest.raises(VerificationError, match="no reverse move"):
        check_stationary_law(level)


def test_exchangeability_of_expectations():
    rng = np.random.default_rng(4)
    g = random_connected_graph(3, rng)
    k = 2
    om = labeled_stationary_measure(g, k)
    space = enumerate_configs(3, k)
    mu = sip_measure(g, space)
    pullback = label_maps(space)[0]
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
    np.testing.assert_allclose(look @ proj, proj @ walk, atol=1e-12)


def test_factored_symmetrizer_matches_the_dense_one():
    # the dense oracle adds 1/k! once per permutation, so its own rounding
    # grows with k! (29 ulp at k = 6); up to k = 4 it stays within 4 ulp
    for n, k in [(2, 1), (2, 4), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4)]:
        unlabel, average = label_maps(enumerate_configs(n, k))
        np.testing.assert_array_max_ulp((unlabel @ average).toarray(), dense_symmetrizer(n, k),
                                        maxulp=4)


def _replay_levels():
    """Every level 2 <= k with n^k <= 256 labeled states."""
    return [(n, k) for k in range(2, 9) for n in range(2, 17) if n ** k <= 256]


@pytest.mark.parametrize("alpha_range", [(0.05, 0.9), (1.0, 3.0)])
def test_sparse_suite_matches_a_dense_replay(alpha_range):
    rng = np.random.default_rng(31)
    for n, k in _replay_levels():
        g = random_connected_graph(n, rng, extra_edge_prob=0.3, alpha_range=alpha_range)
        level = Level(g, k)
        law = check_stationary_law(level)
        dense_checks, dense_witness = dense_stationary_law(level)
        got = check_labeled_identities(level) + list(law.checks)
        want = dense_labeled_identities(level) + dense_checks
        assert [c.identity for c in got] == [c.identity for c in want]
        assert [c.passed for c in got] == [c.passed for c in want]
        assert [c.detail for c in got] == [c.detail for c in want]
        np.testing.assert_allclose([c.tolerance for c in got], [c.tolerance for c in want],
                                   rtol=1e-12, atol=0.0)
        assert law.nonreversibility_witness == dense_witness
        assert all(c.passed for c in got), (n, k)


def _failed(level):
    return {c.identity.split("[")[0] for c in check_labeled_identities(level) if not c.passed}


def test_sparse_suite_fails_on_a_perturbed_lookdown_rate():
    level = Level(random_connected_graph(3, np.random.default_rng(12)), 3)
    look = level.labeled.lookdown.copy()
    rows = np.repeat(np.arange(look.shape[0]), np.diff(look.indptr))
    look.data[np.flatnonzero(look.indices != rows)[0]] *= 1.01
    level.labeled.lookdown = look
    failed = _failed(level)
    assert "symmetrize-lookdown" in failed
    assert any(name.startswith("labeled-chain-step-") for name in failed)


def test_sparse_suite_fails_on_a_perturbed_label_average():
    level = Level(random_connected_graph(3, np.random.default_rng(13)), 3)
    average = level.labeled.average.copy()
    average[0] *= 1.01
    level.labeled.average = average
    assert "symmetrizer-projection" in _failed(level)


def _relabel(level, unlabel):
    """Give `level` the label map `unlabel`, and drop the P_k, Q_k built from the last one."""
    level.labeled.unlabel = unlabel
    level.labeled.__dict__.pop("factors", None)


def test_suite_fails_on_a_label_map_that_is_not_label_forgetting():
    level = Level(random_connected_graph(3, np.random.default_rng(13)), 3)
    ranks = level.labeled.unlabel
    a = 1
    b = int(np.flatnonzero(ranks != ranks[a])[0])
    swapped = ranks.copy()
    swapped[[a, b]] = ranks[[b, a]]
    _relabel(level, swapped)
    failed = _failed(level)
    assert {"unlabel-symmetric", "unlabel-symmetric-averaged",
            "unlabel-lookdown-averaged"} <= failed
    # a swap conjugates S = P Q by a transposition, which leaves it a
    # projection; sending one state to another rank changes two fibers' sizes
    assert "symmetrizer-projection" not in failed
    moved = ranks.copy()
    moved[a] = ranks[b]
    _relabel(level, moved)
    assert {"symmetrizer-projection", "unlabel-symmetric"} <= _failed(level)


def _five_vertex_levels():
    """Levels 2..4 of 8 graphs drawn as the labeled_mc benchmark draws its
    inputs: a 5-cycle with one chord, edge weights in [0.5, 2] and site
    weights log-uniform in [0.3, 3] or, every other graph, [1, 3]."""
    rng = np.random.default_rng(19)
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2))
    for i in range(8):
        low = 1.0 if i % 2 else 0.3
        weights = [[x, y, rng.uniform(0.5, 2.0)] for x, y in edges]
        alpha = np.exp(rng.uniform(np.log(low), np.log(3.0), 5)).tolist()
        graph = graph_from_dict({"n": 5, "edges": weights, "alpha": alpha})
        yield from Level(graph, 4).down_to(2)


def _suite_levels(name):
    if name == "replay-grid":
        rng = np.random.default_rng(31)
        for alpha_range in ((0.05, 0.9), (1.0, 3.0)):
            for n, k in _replay_levels():
                yield Level(random_connected_graph(n, rng, extra_edge_prob=0.3,
                                                   alpha_range=alpha_range), k)
    elif name == "degenerate":
        for data in DEGENERATE_GRAPHS.values():
            levels = Level(graph_from_dict(data), 5).down_to(0)
            yield from (levels[k] for k in range(2, 6) if data["n"] ** k <= 256)
    elif name == "path2":
        yield from Level(path_graph(2), 8).down_to(2)
    else:
        yield from _five_vertex_levels()


@pytest.mark.parametrize("levels", ["replay-grid", "degenerate", "path2", "five-vertex"])
def test_label_maps_match_the_sparse_products(levels):
    for level in _suite_levels(levels):
        got, want = check_labeled_identities(level), reference_labeled_identities(level)
        assert [c.identity for c in got] == [c.identity for c in want]
        assert [(c.passed, c.detail) for c in got] == [(c.passed, c.detail) for c in want]
        np.testing.assert_allclose([c.tolerance for c in got], [c.tolerance for c in want],
                                   rtol=1e-12, atol=0.0)
        for g, w in zip(got, want):
            assert abs(g.residual - w.residual) <= 1e-4 * w.tolerance, (g, w)


def test_the_suite_forms_no_symmetrizer():
    """At k = 10 on two sites S = P Q has sum_j C(10, j)^2 = 184756 entries, and
    forming S and S S as sparse matrices peaks near 40 MB; the suite stays under 8 MB."""
    level = Level(path_graph(2), 10)
    # the pieces the level keeps are built first: the peak is the suite's own
    _ = level.labeled, level.lower.labeled, level.lower.generator, level.annihilation
    tracemalloc.start()
    try:
        checks = check_labeled_identities(level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak < 8e6, peak


def test_the_witness_does_not_move_when_omega_moves_by_a_few_ulps():
    """On path(3) at k = 2, 3 and 4, 8, 16 and 8 pairs tie for the largest
    relative flux asymmetry up to rounding; the witness is the first of them
    in row-major order, whatever the last bits of omega."""
    rng = np.random.default_rng(0)
    for k in (2, 3, 4):
        level = Level(path_graph(3), k)
        pair = check_stationary_law(level).nonreversibility_witness[:2]
        omega = level.labeled.omega
        for _ in range(20):
            ulps = rng.integers(-4, 5, size=omega.size) * np.finfo(float).eps
            level.labeled.omega = omega * (1.0 + ulps)
            assert check_stationary_law(level).nonreversibility_witness[:2] == pair, k
