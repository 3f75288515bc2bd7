import json

import numpy as np
import pytest

from conftest import symmetric_dirichlet_oracle, zero_multiplicity
from siplab.errors import InputError
from siplab.graphs import (Graph, build_rw_generator, complete_graph, cycle_graph,
                           detailed_balance_residual, graph_from_edges, graph_from_preset,
                           load_graph, path_graph, random_connected_graph,
                           reversible_spectrum, rw_dirichlet_form, rw_spectrum,
                           rw_variance)
from siplab.reporting import require_reversible
from siplab.sip import build_sip_generator


def test_generator_two_sites_unit_weights():
    gen = build_rw_generator(path_graph(2))
    np.testing.assert_array_equal(gen.matrix, [[-1.0, 1.0], [1.0, -1.0]])
    np.testing.assert_allclose(gen.stationary, [0.5, 0.5])


def test_generator_complete_three_sites():
    gen = build_rw_generator(complete_graph(3))
    off = gen.matrix[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 1.0 / 3.0)
    np.testing.assert_allclose(np.diag(gen.matrix), -2.0 / 3.0)


def test_generator_asymmetric_site_weights():
    gen = build_rw_generator(path_graph(2, alpha=[2.0, 3.0]))
    assert gen.matrix[0, 1] == 3.0
    assert gen.matrix[1, 0] == 2.0
    np.testing.assert_allclose(gen.matrix.sum(axis=1), 0.0, atol=1e-15)


def test_graph_validation():
    with pytest.raises(InputError):
        Graph(2, np.array([[0.0, 1.0], [2.0, 0.0]]), np.ones(2))  # not symmetric
    with pytest.raises(InputError):
        Graph(2, np.array([[1.0, 1.0], [1.0, 0.0]]), np.ones(2))  # diagonal
    with pytest.raises(InputError):
        Graph(2, np.zeros((2, 2)), np.array([1.0, 0.0]))  # alpha not positive
    with pytest.raises(InputError):
        Graph(2, -np.ones((2, 2)) + np.eye(2), np.ones(2))  # negative weight
    with pytest.raises(InputError):
        graph_from_edges(3, [[0, 1, 1.0], [1, 0, 1.0]], [1, 1, 1])  # duplicate pair
    with pytest.raises(InputError):
        graph_from_edges(3, [[0, 0, 1.0]], [1, 1, 1])  # self loop


@pytest.mark.parametrize("weight", [np.inf, np.nan])
def test_graph_refuses_non_finite_edge_weights(weight):
    with pytest.raises(InputError, match="edge_weights must be nonnegative and finite"):
        graph_from_edges(3, [[0, 1, weight], [1, 2, 1.0]], [1, 1, 1])


def test_one_reversibility_policy_for_dense_and_sparse(monkeypatch):
    require_reversible(1e-9, 1.0)
    require_reversible(np.array([1e-9, 5e-7]), np.array([1.0, 100.0]))
    with pytest.raises(InputError, match=r"symmetrization defect 2\.000e-07"):
        require_reversible(np.array([1e-9, 2e-7]), np.array([1.0, 1.0]))
    with pytest.raises(InputError, match="symmetrization defect nan"):
        require_reversible(np.array([1e-9, np.nan]), np.array([1.0, 1.0]))
    seen = []

    def recording(asym, scale):
        seen.append(np.ndim(asym))
        require_reversible(asym, scale)

    monkeypatch.setattr("siplab.graphs.require_reversible", recording)
    monkeypatch.setattr("siplab.sip.require_reversible", recording)
    gen = build_rw_generator(path_graph(3))
    reversible_spectrum(gen.matrix, gen.stationary)
    build_sip_generator(path_graph(3), 2)
    assert seen == [0, 0]


def test_graph_json_loading(tmp_path):
    data = {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 0.5]], "alpha": [1.0, 2.0, 3.0]}
    p = tmp_path / "g.json"
    p.write_text(json.dumps(data))
    g = load_graph(p)
    assert g.n == 3
    assert g.edge_weights[1, 2] == 0.5
    assert g.connected


def test_presets():
    g = graph_from_preset("complete(4)")
    np.testing.assert_allclose(g.edge_weights[0, 1], 0.25)
    g = graph_from_preset("cycle(5)")
    assert g.edge_weights[0, 4] == 1.0 and g.edge_weights[0, 2] == 0.0
    with pytest.raises(InputError):
        graph_from_preset("torus(4)")


def test_connectivity_flag():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    g = Graph(4, w, np.ones(4))
    assert not g.connected and g.components == 2
    assert path_graph(4).connected


def test_two_site_spectrum_closed_form():
    # characteristic polynomial of the 2x2 negative generator by hand:
    # eigenvalues {0, c (alpha_1 + alpha_2)}
    for c, a1, a2 in [(1.0, 1.0, 1.0), (0.7, 2.0, 3.0), (2.5, 0.3, 1.1)]:
        g = Graph(2, np.array([[0.0, c], [c, 0.0]]), np.array([a1, a2]))
        spec = rw_spectrum(build_rw_generator(g))
        np.testing.assert_allclose(spec.eigenvalues, [0.0, c * (a1 + a2)], atol=1e-12)


def test_complete_graph_gap_is_one():
    # mean-field normalization keeps the gap at |alpha| / n = 1 for unit weights
    assert abs(complete_graph(3).walk_spectrum.gap - 1.0) < 1e-12


def test_connected_zero_multiplicity_is_one():
    rng = np.random.default_rng(10)
    for _ in range(5):
        g = random_connected_graph(5, rng)
        spec = rw_spectrum(build_rw_generator(g))
        assert zero_multiplicity(spec) == 1
        assert abs(spec.eigenvalues[0]) <= 1e-10


def test_disconnected_zero_multiplicity():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    g = Graph(4, w, np.ones(4))
    spec = rw_spectrum(build_rw_generator(g))
    assert zero_multiplicity(spec) == 2


def test_dirichlet_form_constant_vanishes():
    gen = build_rw_generator(cycle_graph(5, alpha=[1, 2, 3, 4, 5]))
    assert rw_dirichlet_form(gen, np.full(5, 3.7)) == pytest.approx(0.0, abs=1e-14)


def test_dirichlet_form_two_sites_hand_value():
    gen = build_rw_generator(path_graph(2))
    assert rw_dirichlet_form(gen, [1.0, 0.0]) == pytest.approx(0.5, abs=1e-14)


def test_dirichlet_form_agrees_with_symmetric_sum_and_quadratic_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_connected_graph(5, rng)
        gen = build_rw_generator(g)
        phi = rng.standard_normal(5)
        d = rw_dirichlet_form(gen, phi)
        assert d == pytest.approx(symmetric_dirichlet_oracle(g, phi), rel=1e-10)
        quad = float(gen.stationary @ (phi * (-gen.matrix @ phi)))
        assert d == pytest.approx(quad, rel=1e-10)


def test_dirichlet_form_dimension_mismatch():
    gen = build_rw_generator(path_graph(3))
    with pytest.raises(InputError):
        rw_dirichlet_form(gen, [1.0, 2.0])


def test_eigenfunction_attains_rayleigh_gap():
    rng = np.random.default_rng(1)
    g = random_connected_graph(6, rng)
    gen = build_rw_generator(g)
    spec = rw_spectrum(gen)
    phi = spec.eigenfunctions[:, 1]
    ratio = rw_dirichlet_form(gen, phi) / rw_variance(gen, phi)
    assert ratio == pytest.approx(spec.gap, rel=1e-10)


def test_rayleigh_quotient_bounds_gap():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(3, 9)), rng)
        gen = build_rw_generator(g)
        gap = rw_spectrum(gen, want_vectors=False).gap
        for _ in range(10):
            phi = rng.standard_normal(g.n)
            var = rw_variance(gen, phi)
            if var < 1e-12:
                continue
            assert rw_dirichlet_form(gen, phi) / var >= gap - 1e-9


def test_detailed_balance_residual_small():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_connected_graph(6, rng)
        gen = build_rw_generator(g)
        res = detailed_balance_residual(gen.matrix, gen.stationary)
        assert res <= 1e-12 * np.abs(gen.matrix).max()


def test_spectrum_invariant_under_relabeling():
    rng = np.random.default_rng(4)
    g = random_connected_graph(6, rng)
    perm = rng.permutation(6)
    g2 = Graph(6, g.edge_weights[np.ix_(perm, perm)], g.site_weights[perm])
    s1 = rw_spectrum(build_rw_generator(g), want_vectors=False).eigenvalues
    s2 = rw_spectrum(build_rw_generator(g2), want_vectors=False).eigenvalues
    np.testing.assert_allclose(s1, s2, atol=1e-10)
