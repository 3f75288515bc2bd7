import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import siplab.bep
import siplab.intertwiners
from conftest import (SIX_VERTEX_ALPHA, SIX_VERTEX_EDGES, dict_bep_generator, dict_bep_matrix,
                      hausdorff_gap)
from siplab.bep import (HomogPolynomial, Terms, _apply, _factorial_ratio, apply_bep_generator,
                        bep_gap_report, bep_matrix, poly_lift, simplex_measure)
from siplab.configs import enumerate_configs
from siplab.errors import InputError, StateCapError, VerificationError
from siplab.cli import _run_suites
from siplab.graphs import (Graph, build_rw_generator, complete_graph, graph_from_dict, path_graph,
                           random_connected_graph, reversible_spectrum, rw_spectrum)
from siplab.intertwiners import Level
from siplab.reporting import gap_tolerance
from siplab.sip import build_sip_generator


def test_polynomial_validation():
    with pytest.raises(InputError):
        HomogPolynomial(2, 2, {(1, 0): 1.0})  # degree mismatch
    with pytest.raises(InputError):
        HomogPolynomial(2, 1, {(1, 0, 0): 1.0})  # wrong variable count
    p = HomogPolynomial(2, 2, {(2, 0): 0.0, (1, 1): 2.0})
    assert (2, 0) not in p.coeffs  # zero coefficients pruned


def test_poly_lift_indicator_and_constant():
    space = enumerate_configs(2, 3)
    f = np.zeros(space.size)
    f[space.rank((2, 1))] = 5.0
    p = poly_lift(f, space)
    assert p.coeffs == {(2, 1): 5.0 / (2 * 1)}
    space1 = enumerate_configs(3, 1)
    p1 = poly_lift(np.ones(space1.size), space1)
    assert p1.coeffs == {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0}


def test_poly_lift_linear_and_injective():
    rng = np.random.default_rng(0)
    space = enumerate_configs(3, 2)
    f, g = rng.standard_normal((2, space.size))
    p_sum = poly_lift(f + 2.0 * g, space)
    manual = {}
    for expo, coeff in poly_lift(f, space).coeffs.items():
        manual[expo] = manual.get(expo, 0.0) + coeff
    for expo, coeff in poly_lift(g, space).coeffs.items():
        manual[expo] = manual.get(expo, 0.0) + 2.0 * coeff
    for expo, coeff in p_sum.coeffs.items():
        assert coeff == pytest.approx(manual[expo], rel=1e-12)
    # vector round trip certifies injectivity on the monomial basis
    np.testing.assert_allclose(poly_lift(f, space).to_vector(space) *
                               [math.prod(math.factorial(int(e)) for e in occ)
                                for occ in space.occupations], f, atol=1e-12)


def test_poly_lift_refuses_a_coefficient_it_cannot_represent():
    # 171! is infinite as a float, and 1/170! is normal; no overflow warning either way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(poly_lift(np.ones(171), enumerate_configs(2, 170)).coeffs) == 171
        with pytest.raises(InputError, match="degree 171"):
            poly_lift(np.ones(172), enumerate_configs(2, 171))
    f = np.zeros(3)
    f[1] = 1e-308  # at (1, 1), a subnormal coefficient
    with pytest.raises(InputError, match="degree 2"):
        poly_lift(f, enumerate_configs(2, 2))


def test_to_vector_places_coefficients_by_rank():
    space = enumerate_configs(3, 2)
    p = HomogPolynomial(3, 2, {(0, 1, 1): 2.5, (2, 0, 0): -1.0})
    v = p.to_vector(space)
    assert v[space.rank((0, 1, 1))] == 2.5 and v[space.rank((2, 0, 0))] == -1.0
    assert np.count_nonzero(v) == 2
    np.testing.assert_array_equal(HomogPolynomial(3, 2, {}).to_vector(space), 0.0)
    assert [e for e, _ in p.items_sorted()] == [(0, 1, 1), (2, 0, 0)]
    with pytest.raises(InputError):
        p.to_vector(enumerate_configs(3, 3))


def test_generator_kills_constants():
    g = path_graph(3)
    p = HomogPolynomial(3, 0, {(0, 0, 0): 4.2})
    assert apply_bep_generator(p, g).coeffs == {}


def test_generator_slow_mode_two_sites_by_hand():
    # on two sites the slow walk mode is degree one, and symbolic
    # differentiation by hand gives G(psi_1 z1 + psi_2 z2) =
    # -c (a1 + a2) (psi_1 z1 + psi_2 z2); the second-order term drops out
    for a1, a2, c in [(1.0, 1.0, 1.0), (2.0, 0.5, 0.7)]:
        g = Graph(2, np.array([[0.0, c], [c, 0.0]]), np.array([a1, a2]))
        spec = rw_spectrum(build_rw_generator(g))
        psi = spec.eigenfunctions[:, 1]
        p = HomogPolynomial(2, 1, {(1, 0): psi[0], (0, 1): psi[1]})
        image = apply_bep_generator(p, g)
        lam = c * (a1 + a2)
        assert spec.gap == pytest.approx(lam, rel=1e-12)
        for expo, coeff in image.coeffs.items():
            assert coeff == pytest.approx(-lam * p.coeffs[expo], rel=1e-10)


def test_generator_matches_particles_small_and_random():
    built = bep_matrix(Level(path_graph(2), 2))
    np.testing.assert_array_equal(built.sip_matrix.toarray(),
                                  [[-2.0, 2.0, 0.0], [2.0, -4.0, 2.0], [0.0, 2.0, -2.0]])
    assert built.check.passed and built.check.residual <= 1e-12
    rng = np.random.default_rng(1)
    g = random_connected_graph(3, rng)
    for k in (1, 2, 3):
        assert bep_matrix(Level(g, k)).check.passed


def test_generator_level_one_is_walk():
    rng = np.random.default_rng(2)
    g = random_connected_graph(4, rng)
    built = bep_matrix(Level(g, 1))
    walk = build_rw_generator(g).matrix
    relabel = [built.space.rank(tuple(int(y == x) for y in range(g.n)))
               for x in range(g.n)]
    np.testing.assert_allclose(built.matrix.toarray()[np.ix_(relabel, relabel)], walk,
                               atol=1e-12)


def test_intertwining_on_random_functions():
    # applying the diffusion generator to a lifted function agrees with
    # lifting the particle generator's action, coefficient by coefficient
    rng = np.random.default_rng(3)
    g = random_connected_graph(3, rng)
    k = 3
    gen = build_sip_generator(g, k)
    space = gen.space
    for _ in range(10):
        f = rng.standard_normal(space.size)
        image = apply_bep_generator(poly_lift(f, space), g)
        expected = poly_lift(gen.matrix @ f, space)
        keys = set(image.coeffs) | set(expected.coeffs)
        for expo in keys:
            assert image.coeffs.get(expo, 0.0) == pytest.approx(
                expected.coeffs.get(expo, 0.0), abs=1e-10)


def test_generator_is_linear():
    rng = np.random.default_rng(7)
    g = random_connected_graph(3, rng)
    space = enumerate_configs(3, 2)
    f, h = rng.standard_normal((2, space.size))
    combined = apply_bep_generator(poly_lift(3.0 * f - 0.5 * h, space), g)
    part_f = apply_bep_generator(poly_lift(f, space), g)
    part_h = apply_bep_generator(poly_lift(h, space), g)
    for expo in set(combined.coeffs) | set(part_f.coeffs) | set(part_h.coeffs):
        assert combined.coeffs.get(expo, 0.0) == pytest.approx(
            3.0 * part_f.coeffs.get(expo, 0.0) - 0.5 * part_h.coeffs.get(expo, 0.0),
            abs=1e-12)


def test_degree_preserved_on_random_monomials():
    rng = np.random.default_rng(4)
    count = 0
    while count < 500:
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 6))
        g = random_connected_graph(n, rng)
        space = enumerate_configs(n, k)
        p = poly_lift(np.eye(space.size)[rng.integers(0, space.size)], space)
        image = apply_bep_generator(p, g)
        assert image.degree == k
        for expo in image.coeffs:
            assert sum(expo) == k
        count += 1


def test_gap_report_complete_graph_union_formula():
    rng = np.random.default_rng(5)
    alpha = rng.uniform(0.3, 3.0, size=3)
    g = complete_graph(3, alpha)
    report = bep_gap_report(Level(g, 3))
    assert report.passed
    total = g.alpha_total
    expected = sorted({l * (total + l - 1) / 3.0 for l in range(4)})
    assert hausdorff_gap(np.unique(np.round(report.spectrum, 9)), expected) <= 1e-8


def test_gap_report_equality_unit_alpha_path():
    report = bep_gap_report(Level(path_graph(4), 4))
    assert report.passed
    assert report.gap_bep == pytest.approx(report.gap_rw, abs=1e-8)


def test_walk_gap_always_in_truncated_spectrum():
    rng = np.random.default_rng(6)
    g = random_connected_graph(3, rng, alpha_range=(0.3, 0.8))
    for degree in (1, 2, 3):
        report = bep_gap_report(Level(g, degree))
        assert np.abs(report.spectrum - report.gap_rw).min() <= 1e-8 * (1 + report.gap_rw)


def test_simplex_measure_log_normalization():
    g = path_graph(3, alpha=[0.5, 1.5, 2.0])
    sm = simplex_measure(g)
    assert np.isfinite(sm.log_beta)
    assert sm.log_beta == pytest.approx(
        math.lgamma(0.5) + math.lgamma(1.5) + math.lgamma(2.0) - math.lgamma(4.0))



def _assert_matches_dict_oracle(g, k):
    built = bep_matrix(Level(g, k))
    oracle = dict_bep_matrix(g, k)
    assert built.matrix.format == "csr" and built.check.passed
    np.testing.assert_allclose(built.matrix.toarray(), oracle, rtol=0.0,
                               atol=1e-13 * max(1.0, np.abs(oracle).max()))


@pytest.mark.parametrize("alpha_range", [(0.3, 0.9), (1.0, 2.5)], ids=["general", "equality"])
@pytest.mark.parametrize("n", range(2, 6))
def test_batched_matrix_matches_the_dict_oracle(alpha_range, n):
    g = random_connected_graph(n, np.random.default_rng(70 + n), alpha_range=alpha_range)
    for k in range(1, 6):
        _assert_matches_dict_oracle(g, k)


def test_batched_matrix_matches_the_dict_oracle_past_int64_keys():
    # 3^40 > 2^63: the level-2 keys are Python integers
    _assert_matches_dict_oracle(path_graph(40), 2)


def test_the_monomial_scale_is_the_exact_factorial_ratio_at_degree_200():
    space = enumerate_configs(2, 200)
    image = _apply(Terms(np.arange(space.size), space.occupations, np.ones(space.size)),
                   path_graph(2), 200)
    picks = np.random.default_rng(71).choice(image.coeff.size, 60, replace=False)
    rows, cols = image.expo[picks], space.occupations[image.col[picks]]
    exact = [float(Fraction(math.prod(map(math.factorial, row)),
                            math.prod(map(math.factorial, col))))
             for row, col in zip(rows.tolist(), cols.tolist())]
    np.testing.assert_array_equal(_factorial_ratio(rows, cols), exact)


def test_the_diffusion_matrix_matches_the_particles_past_degree_170():
    # 171! is infinite as a float, so the monomial scale is an exact ratio
    check = bep_matrix(Level(path_graph(2), 171)).check
    assert check.passed and np.isfinite(check.residual), check


def test_the_diffusion_report_refuses_an_over_cap_top_before_it_walks_down(monkeypatch):
    top = Level(path_graph(3), 10 ** 5)
    made = []
    original = Level.__init__

    def counted(self, graph, k, lower=None):
        made.append(k)
        original(self, graph, k, lower)

    monkeypatch.setattr(Level, "__init__", counted)
    with pytest.raises(StateCapError):
        bep_gap_report(top)
    assert made == []


def test_generator_matches_the_dict_oracle_on_random_polynomials():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n, degree = int(rng.integers(2, 6)), int(rng.integers(0, 6))
        g = random_connected_graph(n, rng)
        space = enumerate_configs(n, degree)
        picks = rng.choice(space.size, size=min(space.size, 4), replace=False)
        poly = {tuple(space.occupations[r].tolist()): rng.standard_normal() for r in picks}
        image = apply_bep_generator(HomogPolynomial(n, degree, poly), g).coeffs
        expected = dict_bep_generator(poly, g)
        if degree == 0:
            assert image == expected == {}
        for expo in set(image) | set(expected):
            assert image.get(expo, 0.0) == pytest.approx(expected.get(expo, 0.0),
                                                         rel=1e-13, abs=1e-13)


# A graph with an isolated vertex, one with an edge of weight 0, and one with no edges.
MISSING_EDGE_GRAPHS = {
    "isolated-vertex": {"n": 4, "edges": [[0, 1, 0.7], [1, 2, 1.3], [0, 2, 0.4]],
                        "alpha": [0.5, 1.2, 2.0, 0.8]},
    "zero-weight-edge": {"n": 4, "edges": [[0, 1, 0.9], [1, 2, 0.0], [2, 3, 1.6]],
                         "alpha": [1.4, 0.3, 0.7, 2.2]},
    "no-edges": {"n": 3, "edges": [], "alpha": [0.6, 1.0, 1.9]},
}


@pytest.mark.parametrize("name", MISSING_EDGE_GRAPHS)
def test_the_batched_calculus_matches_the_dict_oracle_where_edges_are_missing(name):
    g = graph_from_dict(MISSING_EDGE_GRAPHS[name])
    for k in range(1, 5):
        _assert_matches_dict_oracle(g, k)
    rng = np.random.default_rng(12)
    for degree in (0, 1, 2, 3):
        space = enumerate_configs(g.n, degree)
        poly = {tuple(occ): rng.standard_normal() for occ in space.occupations.tolist()}
        image = apply_bep_generator(HomogPolynomial(g.n, degree, poly), g).coeffs
        expected = dict_bep_generator(poly, g)
        assert set(image) == set(expected), degree
        for expo in image:
            assert image[expo] == pytest.approx(expected[expo], rel=1e-13, abs=1e-13)
        if name == "no-edges":
            assert image == {}
            assert _apply(Terms(np.arange(space.size), space.occupations, np.ones(space.size)),
                          g, degree).coeff.size == 0
    if name == "no-edges":
        assert bep_matrix(Level(g, 3)).matrix.nnz == 0


def _failing_diffusion_checks(graph) -> set:
    payload = _run_suites(graph, 5, "bep")
    return {c["identity"] for c in payload["suites"]["bep"]["checks"] if not c["pass"]}


@pytest.mark.parametrize("regime", SIX_VERTEX_ALPHA)
def test_each_diffusion_mutation_fails_exactly_its_level(regime, monkeypatch):
    """On the benchmark's 6-vertex topology at K = 5, one off-diagonal rate of L_k
    scaled by 1 + 1e-6, one symbolic image coefficient scaled by 1 + 1e-6, or one
    image term moved off L_k's pattern fails `diffusion-matches-particles[k]` and
    nothing else, at each level k."""
    graph = graph_from_dict({"n": 6, "edges": SIX_VERTEX_EDGES,
                             "alpha": SIX_VERTEX_ALPHA[regime]})
    assert _failing_diffusion_checks(graph) == set()
    build, apply = siplab.intertwiners.build_sip_generator, siplab.bep._apply

    def rate(g, k, at):
        gen = build(g, k)
        if k != at:
            return gen
        matrix = gen.matrix.copy()
        rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
        matrix.data[np.flatnonzero(rows != matrix.indices)[0]] *= 1 + 1e-6
        return replace(gen, matrix=matrix)

    def coefficient(terms, g, degree, at):
        image = apply(terms, g, degree)
        if degree != at:
            return image
        coeff = image.coeff.copy()
        coeff[coeff.size // 2] *= 1 + 1e-6
        return Terms(image.col, image.expo, coeff)

    def moved(terms, g, degree, at):
        # an image term of the column with every particle at 0 moved to all at 2, which is
        # no neighbour of 0: at least two moves, or one across a missing edge, from its column
        image = apply(terms, g, degree)
        if degree != at:
            return image
        expo = image.expo.copy()
        expo[np.flatnonzero(image.col == terms.col.size - 1)[0]] = [0, 0, degree, 0, 0, 0]
        return Terms(image.col, expo, image.coeff)

    for target, name, mutation in ((siplab.intertwiners, "build_sip_generator", rate),
                                   (siplab.bep, "_apply", coefficient),
                                   (siplab.bep, "_apply", moved)):
        for k in range(1, 6):
            monkeypatch.setattr(target, name, lambda *args, at=k: mutation(*args, at))
            assert _failing_diffusion_checks(graph) == {f"diffusion-matches-particles[k={k}]"}, \
                (mutation.__name__, k)
        monkeypatch.undo()


def test_a_degree_change_is_refused_before_ranking(monkeypatch):
    z = Terms.z
    monkeypatch.setattr(Terms, "z", lambda self, x: z(z(self, x), x))  # raises twice
    with pytest.raises(VerificationError, match="degree"):
        bep_matrix(Level(path_graph(3), 2))
    with pytest.raises(VerificationError, match="degree"):
        apply_bep_generator(HomogPolynomial(3, 1, {(1, 0, 0): 1.0}), path_graph(3))


@pytest.mark.parametrize("alpha_range", [(0.3, 0.9), (1.0, 2.5)], ids=["general", "equality"])
def test_dense_diffusion_spectra_match_the_level_gaps(alpha_range):
    rng = np.random.default_rng(9)
    for n in (3, 4, 5):
        g = random_connected_graph(n, rng, alpha_range=alpha_range)
        report = bep_gap_report(Level(g, 4))
        atol = gap_tolerance(g)
        level = Level(g, 4)
        while level.k >= 1:
            dense = reversible_spectrum(bep_matrix(level).matrix.toarray(),
                                        level.measure.probabilities, want_vectors=False)
            assert abs(dense.gap - report.level_gaps[level.k]) <= atol, (n, level.k)
            level = level.lower


def test_dense_diffusion_spectra_on_complete_graphs_match_the_closed_form():
    rng = np.random.default_rng(10)
    for n in (3, 4):
        alpha = rng.uniform(0.3, 3.0, size=n)
        g = complete_graph(n, alpha)
        level = Level(g, 4)
        while level.k >= 1:
            dense = reversible_spectrum(bep_matrix(level).matrix.toarray(),
                                        level.measure.probabilities, want_vectors=False)
            expected = [l * (alpha.sum() + l - 1) / n for l in range(level.k + 1)]
            assert hausdorff_gap(dense.eigenvalues, expected) <= 1e-9, (n, level.k)
            level = level.lower
