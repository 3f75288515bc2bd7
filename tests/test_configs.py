import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from siplab.configs import (enumerate_configs, inner_product, rank_composition,
                            sip_measure, space_size, state_cap, unrank_composition,
                            variance)
from siplab.errors import InputError, StateCapError
from siplab.graphs import Graph, complete_graph, cycle_graph, path_graph


def test_enumeration_two_sites():
    space = enumerate_configs(2, 2)
    assert space.occupations.tolist() == [[0, 2], [1, 1], [2, 0]]


def test_sizes_match_binomials():
    assert enumerate_configs(3, 2).size == 6
    assert enumerate_configs(4, 5).size == math.comb(8, 3) == 56
    assert space_size(5, 7) == math.comb(11, 4)


def _diff_of_prefix_sums(n: int, k: int) -> np.ndarray:
    """The compositions as `np.diff` of their prefix sums, padded with 0 and k."""
    size = space_size(n, k)
    prefix_sums = itertools.combinations_with_replacement(range(k + 1), n - 1)
    bars = np.fromiter(itertools.chain.from_iterable(prefix_sums), dtype=np.int64,
                       count=size * (n - 1)).reshape(size, n - 1)
    return np.diff(bars, prepend=0, append=k, axis=1)


def test_compositions_match_the_diff_of_prefix_sums():
    for n, k in ((1, 0), (1, 5), (2, 0), (2, 3), (4, 1), (5, 4), (7, 6), (40, 2), (3, 10),
                 (10, 3)):
        occ, want = enumerate_configs(n, k).occupations, _diff_of_prefix_sums(n, k)
        assert occ.dtype == want.dtype and np.array_equal(occ, want), (n, k)


def test_enumeration_peak_memory():
    """The parts are written into the one result beside the prefix sums: the
    peak stays within 2.1 times the occupations, where a padded copy and
    its difference took 3 times."""
    tracemalloc.start()
    try:
        occ = enumerate_configs(100, 2).occupations
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert occ.nbytes == 5050 * 100 * 8
    assert peak <= 2.1 * occ.nbytes, peak / occ.nbytes


def test_log_factorials_from_a_table_match_gammaln_of_each_occupation():
    levels = ((path_graph(2), 6), (path_graph(4, alpha=[0.3, 1.0, 2.5, 0.7]), 5),
              (cycle_graph(5, alpha=np.linspace(0.05, 3.0, 5)), 4), (complete_graph(7), 3),
              (path_graph(40), 2))
    for g, k in levels:
        space = enumerate_configs(g.n, k)
        mu = sip_measure(g, space)
        # the law with a gammaln call per occupation, as sip_measure formed it before
        occ, alpha = space.occupations, g.site_weights
        table = np.zeros((g.n, k + 1))
        for x in range(g.n):
            table[x, 1:] = np.cumsum(np.log(alpha[x] + np.arange(k)))
        logw = table[np.arange(g.n)[None, :], occ].sum(axis=1) - gammaln(occ + 1.0).sum(axis=1)
        top = logw.max()
        log_z = float(top + np.log(np.exp(logw - top).sum()))
        probs = np.exp(logw - log_z)
        probs /= probs.sum()
        assert np.array_equal(mu.probabilities, probs) and mu.log_normalization == log_z, (g, k)
        # the max-shift sum against scipy's
        bar = 4 * np.finfo(float).eps * max(1.0, abs(log_z))
        assert abs(mu.log_normalization - float(logsumexp(logw))) <= bar, (g, k)


def test_rank_unrank_roundtrip_and_list_order():
    for n in range(1, 6):
        for k in range(0, 8):
            space = enumerate_configs(n, k)
            for r in range(space.size):
                eta = space.unrank(r)
                assert eta == tuple(space.occupations[r])
                assert space.rank(eta) == r
            assert rank_composition(unrank_composition(space.size - 1, n, k)) == space.size - 1


def test_state_cap_enforced(monkeypatch):
    monkeypatch.setenv("SIPLAB_STATE_CAP", "100")
    with pytest.raises(StateCapError):
        enumerate_configs(10, 10)
    monkeypatch.setenv("SIPLAB_STATE_CAP", "5")
    assert state_cap() == 5
    with pytest.raises(StateCapError):
        enumerate_configs(3, 3)
    monkeypatch.setenv("SIPLAB_STATE_CAP", "junk")
    with pytest.raises(InputError):
        state_cap()


def test_measure_uniform_for_unit_weights():
    # Gamma(1 + m) / (Gamma(1) m!) = 1, so every configuration has equal mass
    g = path_graph(2)
    for k in (1, 2, 5):
        mu = sip_measure(g, enumerate_configs(2, k))
        np.testing.assert_allclose(mu.probabilities, 1.0 / (k + 1), atol=1e-14)


def test_measure_single_particle_weights():
    g = path_graph(2, alpha=[2.0, 1.0])
    mu = sip_measure(g, enumerate_configs(2, 1))
    # lex order is [(0,1), (1,0)]: mass alpha_y / |alpha| at the occupied site
    np.testing.assert_allclose(mu.probabilities, [1.0 / 3.0, 2.0 / 3.0], atol=1e-14)


def test_measure_no_particles():
    mu = sip_measure(path_graph(3, alpha=[0.4, 1.1, 2.2]), enumerate_configs(3, 0))
    np.testing.assert_allclose(mu.probabilities, [1.0])


def test_measure_normalization_against_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(0, 7))
        alpha = rng.uniform(0.1, 10.0, size=n)
        g = Graph(n, np.zeros((n, n)), alpha)
        mu = sip_measure(g, enumerate_configs(n, k))
        assert abs(mu.probabilities.sum() - 1.0) <= 1e-12
        closed = (sum(math.log(alpha.sum() + j) for j in range(k))
                  - math.lgamma(k + 1))
        assert mu.log_normalization == pytest.approx(closed, abs=1e-10)


def test_inner_product_basics():
    g = path_graph(2)
    space = enumerate_configs(2, 1)
    mu = sip_measure(g, space)
    ones = np.ones(space.size)
    assert inner_product(mu, ones, ones) == pytest.approx(1.0)
    f = np.array([1.0, -1.0])
    assert inner_product(mu, ones, f) == pytest.approx(0.0, abs=1e-15)
    assert inner_product(mu, f, f) == pytest.approx(1.0)


def test_variance_values():
    g = path_graph(2)
    mu = sip_measure(g, enumerate_configs(2, 2))
    assert variance(mu, np.full(3, 2.5)) == pytest.approx(0.0, abs=1e-14)
    f = np.array([1.0, 0.0, -1.0])  # centered under the uniform law
    assert variance(mu, f) == pytest.approx(2.0 / 3.0)
    assert variance(mu, f) == pytest.approx(inner_product(mu, f, f))


def test_dimension_mismatch():
    mu = sip_measure(path_graph(2), enumerate_configs(2, 2))
    with pytest.raises(InputError):
        inner_product(mu, np.ones(2), np.ones(3))


def test_rank_keys_match_rank_composition():
    for n, k in ((1, 3), (2, 0), (3, 4), (5, 3)):
        space = enumerate_configs(n, k)
        ranks = space.rank_keys(space.occupations @ space.place)
        assert ranks.tolist() == list(range(space.size))
        assert ranks.tolist() == [rank_composition(eta) for eta in space.occupations]
    with pytest.raises(InputError):
        space.rank_keys(np.array([space.keys[-1] + 1]))


def test_rank_keys_fall_back_to_python_integers():
    # (k+1)^n = 3^41 does not fit in int64
    space = enumerate_configs(41, 2)
    assert space.keys.dtype == object
    picks = np.array([0, 17, space.size - 1])
    assert space.rank_keys(space.keys[picks]).tolist() == picks.tolist()
    assert space.rank((0,) * 39 + (1, 1)) == 1


def test_keys_of_equal_the_place_value_product_on_both_branches():
    # int64 place values, then Python integers: 3^199 and 4^40 do not fit in int64
    for n, k in ((5, 3), (199, 2), (40, 3)):
        space = enumerate_configs(n, k)
        assert (space.place.dtype == object) == ((k + 1) ** n > np.iinfo(np.int64).max)
        # a batch out of rank order, with a repeated row and an empty one
        batch = np.concatenate([space.occupations[::-3], space.occupations[:1],
                                np.zeros((1, n), dtype=np.int64)])
        keys = space.keys_of(batch)
        assert keys.dtype == space.place.dtype
        assert keys.tolist() == (batch @ space.place).tolist()
        np.testing.assert_array_equal(space.keys, space.occupations @ space.place)
