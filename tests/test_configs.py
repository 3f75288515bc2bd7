import math

import numpy as np
import pytest

from siplab.configs import (enumerate_configs, inner_product, rank_composition,
                            sip_measure, space_size, state_cap, unrank_composition,
                            variance)
from siplab.errors import InputError, StateCapError
from siplab.graphs import Graph, path_graph


def test_enumeration_two_sites():
    space = enumerate_configs(2, 2)
    assert space.occupations.tolist() == [[0, 2], [1, 1], [2, 0]]


def test_sizes_match_binomials():
    assert enumerate_configs(3, 2).size == 6
    assert enumerate_configs(4, 5).size == math.comb(8, 3) == 56
    assert space_size(5, 7) == math.comb(11, 4)


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
    with pytest.raises(StateCapError):
        enumerate_configs(10, 10, cap=100)
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
