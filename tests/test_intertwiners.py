import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import siplab.intertwiners
from conftest import (CONTRACT_RTOL, DEGENERATE_GRAPHS, assert_dichotomy_matches_dense,
                      binomial_removal_matrix, injectivity_margin, kernel_gap, loop_annihilation,
                      loop_creation, loop_dirichlet_decomposition, loop_minmax_comparison,
                      loop_shifted_walks, loop_sip_generator, project_to_kernel,
                      qr_eigen_dichotomy, removal_composition, svd_kernel_basis)
from siplab.configs import enumerate_configs, inner_product, sip_measure, variance
from siplab.errors import InputError, StateCapError
from siplab.graphs import (Spectrum, build_rw_generator, complete_graph, cycle_graph,
                           graph_from_dict, path_graph, random_connected_graph, rw_dirichlet_form,
                           rw_spectrum, symmetrize_reversible)
from siplab.intertwiners import (Level, build_annihilation, build_creation, check_adjoint,
                                 check_intertwinings, dirichlet_decomposition_check,
                                 dirichlet_form_identity, eigen_dichotomy, eigen_groups,
                                 build_shifted_walks, fresh_basis, invert_annihilation,
                                 ladder_bound, ladder_covered, lift_eigenfunction,
                                 minmax_comparison_check, peeling_block, shifted_walk_forms,
                                 shifted_walks_clear)
from siplab.reporting import ENERGY_RTOL, SPECTRAL_RTOL, gap_tolerance
from siplab.sip import build_sip_generator, sip_spectrum


def kernel_columns(level: Level) -> np.ndarray:
    """D_k^(-1/2) G, G = `Level.fresh`: columns spanning Ker C_k."""
    return level.fresh / np.sqrt(level.measure.probabilities)[:, None]


def test_down_to_links_each_level_to_the_one_below(monkeypatch):
    g = path_graph(3)
    levels = Level(g, 3).down_to(0)
    assert [level.k for level in levels] == [0, 1, 2, 3]
    assert all(level.lower is below for below, level in zip(levels, levels[1:]))
    assert levels[3].down_to(2) == levels[2:]
    np.testing.assert_array_equal(levels[0].generator.matrix.toarray(), [[0.0]])
    assert Level(g, 2).lower.k == 1
    with pytest.raises(InputError):
        Level(g, 2, lower=levels[2])
    with pytest.raises(InputError):
        Level(g, -1)
    with pytest.raises(InputError):
        levels[0].lower
    # an over-cap top is refused before any level below it is made
    top = Level(g, 10 ** 5)
    made = []
    original = Level.__init__

    def counted(self, graph, k, lower=None):
        made.append(k)
        original(self, graph, k, lower)

    monkeypatch.setattr(Level, "__init__", counted)
    with pytest.raises(StateCapError):
        top.down_to(0)
    assert made == []


def _assert_level_operators_match_loops(graph, k):
    """L_k, A_k and C_k are CSR, equal the state-by-state oracles (the
    diagonal of L_k to rounding), and hold at most n(n-1)+1, at most n and
    exactly n entries a row."""
    n = graph.n
    low, high = enumerate_configs(n, k - 1), enumerate_configs(n, k)
    gen = build_sip_generator(graph, k).matrix
    ann = build_annihilation(low, high)
    cre = build_creation(graph, low, high)
    for op in (gen, ann, cre):
        assert isinstance(op, scipy.sparse.csr_array)
    oracle = loop_sip_generator(graph, k)
    off = ~np.eye(oracle.shape[0], dtype=bool)
    np.testing.assert_array_equal(gen.toarray()[off], oracle[off])
    np.testing.assert_allclose(gen.diagonal(), np.diag(oracle), rtol=1e-14, atol=0)
    np.testing.assert_array_equal(ann.toarray(), loop_annihilation(graph, k))
    np.testing.assert_array_equal(cre.toarray(), loop_creation(graph, k))
    assert np.diff(ann.indptr).max() <= n
    assert np.all(np.diff(cre.indptr) == n)
    assert np.diff(gen.indptr).max() <= n * (n - 1) + 1


@pytest.mark.parametrize("alpha_range", [(0.3, 0.9), (1.0, 2.5)], ids=["general", "equality"])
@pytest.mark.parametrize("n", range(2, 7))
def test_level_operators_match_the_loop_oracles(alpha_range, n):
    g = random_connected_graph(n, np.random.default_rng(44 + n), alpha_range=alpha_range)
    for k in range(1, 6):
        _assert_level_operators_match_loops(g, k)


def test_level_operators_match_the_loop_oracles_past_int64_keys():
    # 3^40 > 2^63: the level-2 keys are Python integers
    _assert_level_operators_match_loops(path_graph(40), 2)
    assert peeling_block(Level(path_graph(40), 2))[3] == 1.0


def test_annihilation_on_constants_counts_particles():
    rng = np.random.default_rng(0)
    g = random_connected_graph(3, rng)
    for k in (1, 2, 4):
        level = Level(g, k)
        np.testing.assert_allclose(level.annihilation @ np.ones(level.lower.space.size),
                                   float(k), atol=1e-14)


def test_annihilation_two_sites_explicit_rows():
    high, low = enumerate_configs(2, 2), enumerate_configs(2, 1)
    ann = build_annihilation(low, high)
    # (A g)(1,1) = g(0,1) + g(1,0); (A g)(2,0) = 2 g(1,0)
    row = ann[high.rank((1, 1))]
    assert row[low.rank((0, 1))] == 1.0 and row[low.rank((1, 0))] == 1.0
    row = ann[high.rank((2, 0))]
    assert row[low.rank((1, 0))] == 2.0 and row[low.rank((0, 1))] == 0.0


def test_removal_composition_equals_scaled_binomial_matrix():
    rng = np.random.default_rng(1)
    g = random_connected_graph(3, rng)
    for k, level in [(2, 1), (3, 1), (4, 2), (3, 0)]:
        comp = removal_composition(g, k, level)
        binom = binomial_removal_matrix(enumerate_configs(3, k),
                                        enumerate_configs(3, level))
        np.testing.assert_allclose(comp, math.factorial(k - level) * binom, atol=1e-12)


def test_annihilation_injective_two_ways():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        g = random_connected_graph(n, rng)
        for k in (1, 2, 3, 4):
            level = Level(g, k)
            assert injectivity_margin(level.annihilation.toarray()) > 1e-8
            assert peeling_block(level)[3] == 1.0
            gvec = rng.standard_normal(level.lower.space.size)
            recovered = invert_annihilation(level, level.annihilation @ gvec)
            np.testing.assert_allclose(recovered, gvec, atol=1e-12)


def test_creation_on_constants():
    rng = np.random.default_rng(3)
    g = random_connected_graph(3, rng)
    for k in (1, 2, 3):
        level = Level(g, k)
        expected = g.alpha_total + k - 1
        np.testing.assert_allclose(level.creation @ np.ones(level.space.size),
                                   expected, atol=1e-12)


def test_creation_level_zero_scalar():
    g = path_graph(2)
    cre = build_creation(g, enumerate_configs(2, 0), enumerate_configs(2, 1))
    assert cre.shape == (1, 2)
    f = np.array([4.0, 7.0])
    # states [(0,1), (1,0)]: alpha-weighted sum over single-particle states
    assert (cre @ f)[0] == pytest.approx(11.0)


def test_kernel_dimension_and_mean_zero_condition():
    rng = np.random.default_rng(4)
    g = random_connected_graph(3, rng)
    for k in (1, 2, 3):
        level = Level(g, k)
        basis = kernel_columns(level)
        assert basis.shape[1] == level.space.size - level.lower.space.size
        np.testing.assert_allclose(level.creation @ basis, 0.0, atol=1e-10)
        # kernel functions integrate to zero against the reversible law
        mu = level.measure
        ones = np.ones(level.space.size)
        for j in range(basis.shape[1]):
            assert abs(inner_product(mu, basis[:, j], ones)) <= 1e-11


def test_variance_on_kernel_is_second_moment():
    rng = np.random.default_rng(5)
    g = random_connected_graph(3, rng)
    k = 3
    mu = sip_measure(g, enumerate_configs(3, k))
    f = project_to_kernel(Level(g, k), rng.standard_normal(mu.space.size))
    assert variance(mu, f) == pytest.approx(inner_product(mu, f, f), rel=1e-10)


def test_adjoint_identity_on_constants_and_random():
    g = path_graph(2, alpha=[1.5, 0.5])
    k = 2
    level = Level(g, k)
    mu_hi, mu_lo = level.measure, level.lower.measure
    ones_lo = np.ones(level.lower.space.size)
    ones_hi = np.ones(level.space.size)
    lhs = inner_product(mu_hi, level.annihilation @ ones_lo, ones_hi)
    factor = k / (g.alpha_total + k - 1)
    rhs = factor * inner_product(mu_lo, ones_lo, level.creation @ ones_hi)
    assert lhs == pytest.approx(float(k)) and rhs == pytest.approx(float(k))
    rng = np.random.default_rng(6)
    g3 = random_connected_graph(3, rng)
    assert check_adjoint(Level(g3, 3)).residual <= 1e-11


def test_image_orthogonal_to_kernel():
    rng = np.random.default_rng(7)
    g = random_connected_graph(3, rng)
    level = Level(g, 3)
    basis = kernel_columns(level)
    for _ in range(10):
        h = rng.standard_normal(level.lower.space.size)
        for j in range(basis.shape[1]):
            assert abs(inner_product(level.measure, level.annihilation @ h,
                                     basis[:, j])) <= 1e-11


def test_intertwinings_small_and_random():
    ann_check, cre_check = check_intertwinings(Level(path_graph(2), 2))
    assert ann_check.residual <= 1e-14 and cre_check.residual <= 1e-14
    deg_a, deg_c = check_intertwinings(Level(path_graph(2), 1))
    assert deg_a.passed and deg_c.passed
    rng = np.random.default_rng(8)
    g = random_connected_graph(4, rng)
    for c in check_intertwinings(Level(g, 4)):
        assert c.passed and c.residual <= c.tolerance


def test_lift_constant_eigenfunction():
    g = path_graph(3)
    f, lam = lift_eigenfunction(g, np.ones(3), 4)
    assert lam == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(f, 4.0)
    gen = build_sip_generator(g, 4)
    np.testing.assert_allclose(gen.matrix @ f, 0.0, atol=1e-12)


def test_lift_two_site_slow_mode():
    g = path_graph(2)
    f, lam = lift_eigenfunction(g, np.array([1.0, -1.0]), 2)
    assert lam == pytest.approx(2.0)
    # states [(0,2), (1,1), (2,0)]
    np.testing.assert_allclose(f, [-2.0, 0.0, 2.0])
    gen = build_sip_generator(g, 2)
    np.testing.assert_allclose(-gen.matrix @ f, 2.0 * f, atol=1e-12)


def test_lift_equals_normalized_removal_composition():
    rng = np.random.default_rng(9)
    g = random_connected_graph(3, rng)
    spec = rw_spectrum(build_rw_generator(g))
    psi = spec.eigenfunctions[:, 1]
    k = 3
    f, lam = lift_eigenfunction(g, psi, k)
    space1 = enumerate_configs(3, 1)
    gvec = np.empty(space1.size)
    for x in range(3):
        gvec[space1.rank(tuple(int(y == x) for y in range(3)))] = psi[x]
    comp = removal_composition(g, k, 1) @ gvec
    np.testing.assert_allclose(comp, math.factorial(k - 1) * f, atol=1e-10)
    gen = build_sip_generator(g, k)
    assert np.abs(-gen.matrix @ f - lam * f).max() <= 1e-9 * max(1.0, np.abs(f).max())


def test_lift_rejects_non_eigenfunction():
    g = path_graph(3)
    with pytest.raises(InputError):
        lift_eigenfunction(g, np.array([1.0, 2.0, -4.0]), 2)


def test_eigen_dichotomy_dimensions_and_new_levels():
    rng = np.random.default_rng(10)
    g = random_connected_graph(3, rng)
    for k in (2, 3, 4):
        level = Level(g, k)
        assert eigen_dichotomy(level).passed
        assert_dichotomy_matches_dense(level)
        # the zero eigenvalue is the lifted constant
        assert eigen_groups(level)[0].dim_image == 1


def test_eigen_dichotomy_degenerate_complete_graph():
    # complete-graph eigenspaces are heavily degenerate; each new level
    # adds exactly one eigenvalue whose whole eigenspace is fresh
    g = complete_graph(4)
    for k in (2, 3, 4):
        level = Level(g, k)
        assert eigen_dichotomy(level).passed
        assert_dichotomy_matches_dense(level)
        fresh = [gr for gr in eigen_groups(level) if gr.dim_kernel]
        assert len(fresh) == 1
        assert fresh[0].dim == level.space.size - level.lower.space.size
        assert fresh[0].dim_kernel == fresh[0].dim


def test_eigen_dichotomy_image_multiplicities_match_lower_level():
    rng = np.random.default_rng(11)
    g = random_connected_graph(3, rng)
    k = 3
    groups = eigen_groups(Level(g, k))
    low_vals = sip_spectrum(build_sip_generator(g, k - 1),
                            want_vectors=False).eigenvalues
    for group in groups:
        mult_low = int(np.sum(np.abs(low_vals - group.eigenvalue)
                              <= 1e-8 * (1.0 + abs(group.eigenvalue))))
        assert group.dim_image == mult_low


def _dichotomy_levels():
    """Levels k = 2..5 of one random graph per n = 3..6 in each regime,
    then complete(4), whose eigenspaces are degenerate."""
    rng = np.random.default_rng(40)
    graphs = [random_connected_graph(n, rng, alpha_range=alpha_range)
              for n in range(3, 7) for alpha_range in [(0.3, 0.9), (1.0, 2.5)]]
    for g in graphs + [complete_graph(4)]:
        yield from Level(g, 5).down_to(2)


DICHOTOMY_LEVELS = list(_dichotomy_levels())
# levels 2..5 of G1 and G2, where mu spans up to 17 decades
DEGENERATE_LEVELS = [Level(graph_from_dict(spec), k) for spec in DEGENERATE_GRAPHS.values()
                     for k in range(2, 6)]


def test_eigen_dichotomy_matches_dense_oracle():
    """complete(5) at k=4 has eigenvalues of multiplicity up to 35."""
    for level in DICHOTOMY_LEVELS + DEGENERATE_LEVELS + [Level(complete_graph(5), 4)]:
        assert eigen_dichotomy(level).passed, (level.graph.n, level.k)
        assert_dichotomy_matches_dense(level)


def test_eigen_groups_match_the_loop_oracle():
    """Same groups, dimensions and verdict as the full-QR dichotomy, and mean
    eigenvalues within the output contract's 1e-12 relative: its fresh block
    is solved in another basis, and a group's sum may add its values in
    another order than `np.mean`."""
    levels = DICHOTOMY_LEVELS + [Level(complete_graph(5), 4)]
    assert max(g.dim for g in eigen_groups(levels[-1])) == 35
    for level in levels:
        got, want = eigen_groups(level), qr_eigen_dichotomy(level)
        assert want.passed and eigen_dichotomy(level).passed
        assert [(g.dim, g.dim_image, g.dim_kernel) for g in got] == [
            (g.dim, g.dim_image, g.dim_kernel) for g in want.groups], (level.graph.n, level.k)
        np.testing.assert_allclose([g.eigenvalue for g in got],
                                   [g.eigenvalue for g in want.groups],
                                   rtol=CONTRACT_RTOL, atol=0.0,
                                   err_msg=str((level.graph.n, level.k)))


def test_kernel_basis_matches_svd_oracle():
    """D_k^(-1/2) G and the SVD oracle span one space: the oracle's projection
    keeps each column, and both have S_k - S_{k-1} independent columns."""
    for level in DICHOTOMY_LEVELS:
        basis = kernel_columns(level)
        assert basis.shape == (level.space.size, level.space.size - level.lower.space.size)
        assert svd_kernel_basis(level).shape == basis.shape
        assert np.linalg.matrix_rank(level.fresh) == basis.shape[1]
        np.testing.assert_allclose(project_to_kernel(level, basis), basis, rtol=0,
                                   atol=1e-10 * np.abs(basis).max())


def test_lower_spectrum_and_fresh_block_make_the_level_spectrum():
    """The fresh block is the pencil (B^T D (-L_k) B, B^T D B), B = D_k^(-1/2) G."""
    for level in DICHOTOMY_LEVELS:
        neg, mu = -level.generator.matrix, level.measure.probabilities
        basis = kernel_columns(level)
        block = basis.T @ (mu[:, None] * neg) @ basis
        fresh = scipy.linalg.eigvalsh(0.5 * (block + block.T), basis.T @ (mu[:, None] * basis))
        low = sip_spectrum(level.lower.generator, want_vectors=False).eigenvalues
        dense = sip_spectrum(level.generator, want_vectors=False).eigenvalues
        scale = max(1.0, float(np.abs(neg).max()))
        np.testing.assert_allclose(np.sort(np.concatenate([low, fresh])), dense,
                                   rtol=0, atol=1e-10 * scale)


def _mutation_levels():
    rng = np.random.default_rng(42)
    for alpha_range in [(0.3, 0.9), (1.0, 2.5)]:
        yield from Level(random_connected_graph(4, rng, alpha_range=alpha_range), 4).down_to(2)


def _failing_checks(result, level, tol=1e-8) -> set:
    """Which of the four dichotomy checks `result` fails, at the bounds
    of the intact level; a NaN residual was not computed."""
    largest = float(level.balanced_removal.max())
    addition = tol * max(1.0, largest)
    rate = tol * max(1.0, float(np.abs(level.generator.matrix).max()) * largest)
    return {name for name, bad in [("injectivity", result.injectivity != 1.0),
                                   ("off_diagonal", result.off_diagonal > rate),
                                   ("image_spectrum", result.image_spectrum > rate),
                                   ("kernel_residual", result.kernel_residual > addition)]
            if bad}


def _mutated(level, **pieces) -> Level:
    mutated = Level(level.graph, level.k, pieces.pop("lower", level.lower))
    mutated.__dict__.update(pieces)
    # the full-QR oracle fails every mutation too
    assert not qr_eigen_dichotomy(mutated).passed
    return mutated


def _heavier_edge(graph):
    """`graph` with its first edge 0.1% heavier, in both directions."""
    x, y = np.argwhere(graph.edge_weights > 0)[0]
    c = graph.edge_weights.copy()
    c[x, y] *= 1.001
    c[y, x] = c[x, y]
    return replace(graph, edge_weights=c)


def test_eigen_dichotomy_fails_a_wrong_generator():
    # reversible for the same law and still intertwined with A_k, but
    # one edge is 0.1% heavier than at level k-1
    for level in _mutation_levels():
        gen = build_sip_generator(_heavier_edge(level.graph), level.k)
        assert eigen_dichotomy(level).passed
        result = eigen_dichotomy(_mutated(level, generator=gen))
        assert not result.passed, level.k
        # the lifted part stays invariant, with the spectrum of the new edge
        assert _failing_checks(result, level) == {"image_spectrum"}


def test_eigen_dichotomy_fails_a_wrong_removal_entry():
    for level in _mutation_levels():
        matrix = level.annihilation.toarray()
        s, t = np.argwhere(matrix > 0)[len(matrix) // 2]
        matrix[s, t] *= 1.01
        result = eigen_dichotomy(_mutated(level, annihilation=scipy.sparse.csr_array(matrix)))
        assert not result.passed, level.k
        # the complement of the wrong range is no longer Ker C_k
        assert "kernel_residual" in _failing_checks(result, level)


def test_eigen_dichotomy_fails_a_wrong_addition_entry():
    for level in _mutation_levels():
        matrix = level.creation.toarray()
        s, t = np.argwhere(matrix > 0)[len(matrix) // 2]
        matrix[s, t] *= 1.01
        result = eigen_dichotomy(_mutated(level, creation=scipy.sparse.csr_array(matrix)))
        assert not result.passed, level.k
        assert _failing_checks(result, level) == {"kernel_residual"}


def test_eigen_dichotomy_fails_a_nearly_singular_removal():
    # one column scaled by 1e-10 spans the same range and leaves the same fresh
    # basis, but its W_k no longer intertwines the symmetric forms
    for level in _mutation_levels():
        matrix = level.annihilation.toarray()
        matrix[:, -1] *= 1e-10
        result = eigen_dichotomy(_mutated(level, annihilation=scipy.sparse.csr_array(matrix)))
        assert not result.passed, level.k
        assert _failing_checks(result, level) == {"injectivity", "image_spectrum"}


def test_eigen_dichotomy_fails_a_lifted_direction_coupled_to_a_fresh_one():
    # -L_k + eps (u v^T + v u^T) D, u lifted and v fresh, both of mu-norm 1:
    # still self-adjoint for mu, but neither part is invariant any more.  In
    # the balanced frame H_k gains eps (u' v'^T + v' u'^T), u' = D^(1/2) u and
    # v' = D^(1/2) v, so W_k^T H_k Q gains eps W_k^T u' in the column of v'.
    for level in _mutation_levels():
        d, w = np.sqrt(level.measure.probabilities), level.balanced_removal
        lifted = w[:, [0]].toarray().ravel()
        lifted /= np.linalg.norm(lifted)
        fresh = level.fresh[:, 0]
        coupling = 1e-3 * (np.outer(lifted, fresh) + np.outer(fresh, lifted))
        gen = replace(level.generator,
                      matrix=scipy.sparse.csr_array(
                          level.generator.matrix - coupling * (d[None, :] / d[:, None])),
                      symmetric=scipy.sparse.csr_array(level.generator.symmetric + coupling))
        result = eigen_dichotomy(_mutated(level, generator=gen))
        assert not result.passed, level.k
        # H_k W_k - W_k H_{k-1} reads eps v (W_k^T u)^T: the lifted part is not invariant either
        assert _failing_checks(result, level) == {"off_diagonal", "image_spectrum"}
        lifted_flux = np.abs(w.T @ lifted).max()
        assert result.off_diagonal == pytest.approx(1e-3 * lifted_flux, rel=1e-6)
        assert result.image_spectrum == pytest.approx(
            1e-3 * lifted_flux * np.abs(fresh).max(), rel=1e-6)


def test_eigen_dichotomy_fails_a_wrong_lower_spectrum():
    # the level below has one edge 0.1% heavier, so its spectrum is wrong
    # and W_k no longer carries it onto the lifted part
    for level in _mutation_levels():
        lower = Level(level.graph, level.k - 1, level.lower.lower)
        lower.__dict__["generator"] = build_sip_generator(_heavier_edge(level.graph), level.k - 1)
        result = eigen_dichotomy(_mutated(level, lower=lower))
        assert not result.passed, level.k
        assert _failing_checks(result, level) == {"image_spectrum"}


def test_eigen_groups_read_a_wrong_lower_spectrum():
    # eigen_groups takes the lower spectrum as given, so it disagrees with
    # the dense oracle, which solves the level itself
    for level in _mutation_levels():
        lower = Level(level.graph, level.k - 1, level.lower.lower)
        vals = level.lower.spectrum.eigenvalues.copy()
        vals[len(vals) // 2] *= 1.001
        lower.__dict__["spectrum"] = Spectrum(vals, None)
        mutated = Level(level.graph, level.k, lower)
        assert eigen_dichotomy(mutated).passed
        with pytest.raises(AssertionError):
            assert_dichotomy_matches_dense(mutated)


def test_peeling_margin_is_exactly_one():
    # cycle(7) at k=8 has 3003 states; the check needs no QR there
    for level in DICHOTOMY_LEVELS + [Level(cycle_graph(7), 8)]:
        rows, cols, block, margin = peeling_block(level)
        assert margin == 1.0, (level.graph.n, level.k)
        assert block.shape == (level.lower.space.size,) * 2
        assert np.array_equal(np.sort(cols), np.arange(cols.size))
        assert np.unique(rows).size == rows.size


def test_an_entry_above_the_peeling_diagonal_fails_the_peeling_and_image_checks():
    # the mutated A_k keeps the intact W_k, so the fresh basis holds, but the
    # image check reads A_k through the removal pair
    for level in _mutation_levels():
        rows, cols, block, _ = peeling_block(level)
        # the first entry of the last row of the block goes to its first row
        i = block.shape[0] - 1
        j = block.indices[block.indptr[i]:block.indptr[i + 1]].min()
        matrix = level.annihilation.toarray()
        matrix[rows[0], cols[i]] = matrix[rows[i], cols[j]]
        matrix[rows[i], cols[j]] = 0.0
        mutated = _mutated(level, annihilation=scipy.sparse.csr_array(matrix),
                           balanced_removal=level.balanced_removal)
        result = eigen_dichotomy(mutated)
        assert result.injectivity == 0.0 and not result.passed, level.k
        assert _failing_checks(result, level) == {"injectivity", "image_spectrum"}
        assert math.isnan(result.off_diagonal) and math.isnan(result.kernel_residual)
        with pytest.raises(InputError, match="peeling"):
            invert_annihilation(mutated, np.zeros(level.space.size))
        with pytest.raises(InputError, match="peeling"):
            fresh_basis(mutated)


def test_invert_annihilation_matches_a_dense_least_squares_solve():
    rng = np.random.default_rng(43)
    level = Level(random_connected_graph(7, rng), 7)
    ann = level.annihilation
    h = ann @ rng.standard_normal(ann.shape[1])
    want = scipy.linalg.lstsq(ann.toarray(), h)[0]
    np.testing.assert_allclose(invert_annihilation(level, h), want, rtol=0, atol=1e-12)
    with pytest.raises(InputError):
        invert_annihilation(level, h[:-1])


def test_fresh_basis_spans_the_kernel_of_the_balanced_removal():
    """Unit columns of full rank in Ker W_k^T, S_k - S_{k-1} of them, so they
    span it, kept read-only."""
    for level in DICHOTOMY_LEVELS[:8] + DEGENERATE_LEVELS:
        g, d = level.fresh, np.sqrt(level.measure.probabilities)
        balanced = (d[:, None] * level.annihilation.toarray()
                    / np.sqrt(level.lower.measure.probabilities)[None, :])
        np.testing.assert_allclose(level.balanced_removal.toarray(), balanced, rtol=1e-14, atol=0)
        assert g.shape == (level.space.size, level.space.size - level.lower.space.size)
        np.testing.assert_allclose(np.linalg.norm(g, axis=0), 1.0, rtol=0, atol=1e-14)
        assert np.linalg.matrix_rank(g) == g.shape[1]
        np.testing.assert_allclose(balanced.T @ g, 0.0, rtol=0,
                                   atol=1e-14 * level.k * np.abs(balanced).max())
        assert level.fresh is g and not g.flags.writeable


def test_the_fresh_pencil_gives_the_dense_spectrum():
    """eigen_groups, each mean repeated over its dimension, is the dense
    spectrum within SPECTRAL_RTOL of its largest value, on 45 levels, G1 and
    G2 among them; the Gram matrix G^T G of the pencil stays well conditioned."""
    levels = DICHOTOMY_LEVELS + DEGENERATE_LEVELS + [Level(complete_graph(5), 4)]
    assert len(levels) >= 30
    worst = 0.0
    for level in levels:
        groups = eigen_groups(level)
        got = np.repeat([gr.eigenvalue for gr in groups], [gr.dim for gr in groups])
        dense = sip_spectrum(level.generator, want_vectors=False).eigenvalues
        np.testing.assert_allclose(got, dense, rtol=0, atol=SPECTRAL_RTOL * dense[-1],
                                   err_msg=str((level.graph.n, level.k)))
        worst = max(worst, np.linalg.cond(level.fresh.T @ level.fresh))
    assert worst < 1e3, worst


def test_dirichlet_decomposition_zero_function():
    result = dirichlet_decomposition_check(Level(path_graph(2), 2), np.zeros(3))
    assert result.passed
    assert result.energy == pytest.approx(0.0, abs=1e-14)


def test_dirichlet_decomposition_two_sites_hand_case():
    level = Level(path_graph(2), 2)
    result = dirichlet_decomposition_check(level, project_to_kernel(level, [1.0, -1.0, 1.0]))
    # each residual within 1e-12 of its scale, a thousandth of the ENERGY_RTOL tolerance
    assert all(c.residual <= 1e-12 / ENERGY_RTOL * c.tolerance for c in result.checks), result
    assert result.energy == pytest.approx(result.decomposed, abs=1e-12)


def test_dirichlet_decomposition_random_sweep():
    rng = np.random.default_rng(12)
    g = random_connected_graph(3, rng)
    for k in (2, 3, 4):
        level = Level(g, k)
        for _ in range(34):  # 102 random functions across the three levels
            f = project_to_kernel(level, rng.standard_normal(level.space.size))
            result = dirichlet_decomposition_check(level, f)
            assert result.passed, result.checks


def test_a_function_outside_the_kernel_fails_the_section_means():
    """The check takes f as given: off Ker C_k the sections have nonzero means,
    while the energy identity, which holds for every f, still passes."""
    rng = np.random.default_rng(12)
    for level in DICHOTOMY_LEVELS[:8]:
        f = rng.standard_normal(level.space.size)
        verdicts = {c.identity: c.passed for c in dirichlet_decomposition_check(level, f).checks}
        assert not verdicts[f"section-variance-reduction[k={level.k}]"], level.k
        assert verdicts[f"dirichlet-decomposition[k={level.k}]"], level.k


def test_minmax_comparisons():
    rng = np.random.default_rng(13)
    g = random_connected_graph(3, rng, alpha_range=(0.3, 2.0))
    for k in (2, 3, 4):
        report = minmax_comparison_check(Level(g, k))
        assert report.passed, [c for c in report.checks if not c.passed]
    # alpha = 1: the eigenvalue comparison factor at k = 2 is 1/2
    g1 = path_graph(3)
    vals = rw_spectrum(build_rw_generator(g1), want_vectors=False).eigenvalues
    shifted = g1.with_site_weights(g1.site_weights + np.array([1, 0, 0]))
    vals_shifted = rw_spectrum(build_rw_generator(shifted), want_vectors=False).eigenvalues
    assert np.all(vals_shifted >= 0.5 * vals - 1e-12)


def test_the_comparison_check_finishes_on_a_2000_deep_level():
    # the walk spectrum is the graph's, not read through 2000 lower levels
    report = minmax_comparison_check(Level(path_graph(2), 2000))
    assert report.passed, [c for c in report.checks if not c.passed]


def test_lower_bound_induction_chain():
    rng = np.random.default_rng(14)
    for alpha_range in [(0.3, 0.9), (1.0, 2.5)]:
        g = random_connected_graph(3, rng, alpha_range=alpha_range)
        walk_gap = g.walk_spectrum.gap
        a_min = g.alpha_min
        for k in (2, 3):
            level = Level(g, k)
            b_k = ladder_bound(k, level.shifted_walks[1])
            assert kernel_gap(level) >= b_k - 1e-9
            assert b_k >= (a_min * k / (a_min + k - 1)) * walk_gap - 1e-9


def _walk_levels():
    """Levels k = 2..5 of one random graph per n = 3..7 in each regime,
    alpha_min below 1 and at least 1."""
    rng = np.random.default_rng(30)
    for n in range(3, 8):
        for alpha_range in [(0.3, 0.9), (1.0, 2.5)]:
            yield from Level(random_connected_graph(n, rng, alpha_range=alpha_range), 5).down_to(2)


WALK_LEVELS = list(_walk_levels())


def test_stacked_walk_spectra_match_per_walk_solves():
    for level in WALK_LEVELS:
        beta, vals = level.shifted_walks
        walks = loop_shifted_walks(level)
        assert beta.shape == vals.shape == (level.lower.space.size, level.graph.n)
        for s, (xi, walk, walk_vals) in enumerate(walks):
            np.testing.assert_array_equal(beta[s], level.graph.site_weights + xi)
            scale = max(1.0, float(np.abs(walk.matrix).max()))
            np.testing.assert_allclose(vals[s], walk_vals, rtol=0, atol=1e-12 * scale)


def test_array_checks_match_loop_oracle():
    """Same names, verdicts and tolerances as the loop oracle.  The edge, site and
    scalar comparison residuals are equal; the decomposition's and the section
    means' are rounding noise summed in another order, seen below 6e-7 of its
    tolerance, and the eigenvalue comparison's the rounding of the closed-form
    walk stack against each walk symmetrized alone."""
    rng = np.random.default_rng(32)
    for level in WALK_LEVELS:
        f = project_to_kernel(level, rng.standard_normal(level.space.size))
        fast = minmax_comparison_check(level).checks + dirichlet_decomposition_check(level, f).checks
        slow = loop_minmax_comparison(level) + loop_dirichlet_decomposition(level, f)
        assert [(c.identity, c.passed) for c in fast] == [(c.identity, c.passed) for c in slow]
        for a, b in zip(fast, slow):
            assert a.passed
            assert a.tolerance == pytest.approx(b.tolerance, rel=1e-12)
            if a.identity.startswith(("dirichlet-decomposition", "section-variance",
                                      "eigenvalue-comparison")):
                assert abs(a.residual - b.residual) <= 1e-5 * a.tolerance
            else:
                assert a.residual == b.residual, a.identity


def test_each_comparison_fails_a_mutated_edge_or_site_on_every_level():
    """One row's beta_x lowered so that beta_x beta_y < alpha_x alpha_y on an
    edge (x, y), or raised past alpha_x (alpha_min + k - 1) / alpha_min, fails
    the matching comparison on every level, whatever the test function.  The
    sampled check of 50 random phi that these replace passed them on 22 and 40
    of these 40 levels."""
    for level in WALK_LEVELS:
        graph, k = level.graph, level.k
        alpha, (beta, vals) = graph.site_weights, level.shifted_walks
        assert minmax_comparison_check(level).passed
        s, (x, y) = beta.shape[0] // 2, np.argwhere(graph.edge_weights > 0)[0]
        lowered, raised = beta.copy(), beta.copy()
        lowered[s, x] = 0.9 * alpha[x] * alpha[y] / beta[s, y]
        raised[s, x] = 1.1 * alpha[x] * (graph.alpha_min + k - 1) / graph.alpha_min
        for shifted, name in ((lowered, "dirichlet-comparison"), (raised, "norm-comparison")):
            mutated = Level(graph, k, level.lower)
            mutated.__dict__["shifted_walks"] = (shifted, vals)
            verdicts = {c.identity: c.passed for c in minmax_comparison_check(mutated).checks}
            assert not verdicts[f"{name}[k={k}]"]


def test_walk_off_by_a_little_fails_the_decomposition():
    rng = np.random.default_rng(33)
    for level in WALK_LEVELS:
        beta, vals = level.shifted_walks
        f = project_to_kernel(level, rng.standard_normal(level.space.size))
        assert dirichlet_decomposition_check(level, f).passed
        shifted = beta.copy()
        shifted[beta.shape[0] // 2, 0] += 1e-3
        mutated = Level(level.graph, level.k, level.lower)
        mutated.__dict__["shifted_walks"] = (shifted, vals)
        assert not dirichlet_decomposition_check(mutated, f).checks[0].passed


def loop_dirichlet_sum_form(level: Level) -> np.ndarray:
    """(|alpha|+k-1) (Z_{k-1}/Z_k) sum_xi mu_{k-1}(xi) R_xi^T B_{alpha+xi} R_xi as a
    dense matrix, one walk at a time, B_beta = diag(pi_beta) (-Q_beta) from each walk
    of `loop_shifted_walks` and R_xi from `ConfigSpace.rank`."""
    graph, k, space = level.graph, level.k, level.space
    z_ratio = math.exp(level.lower.measure.log_normalization - level.measure.log_normalization)
    total = np.zeros((space.size, space.size))
    for (xi, walk, _), mu in zip(loop_shifted_walks(level), level.lower.measure.probabilities):
        sections = np.zeros((graph.n, space.size))
        for x in range(graph.n):
            sections[x, space.rank(tuple(xi + np.eye(graph.n, dtype=int)[x]))] = 1.0
        total += mu * sections.T @ (walk.stationary[:, None] * -walk.matrix) @ sections
    return (graph.alpha_total + k - 1) * z_ratio * total


def test_the_dirichlet_form_identity_holds_entry_by_entry_and_passes():
    """mu_k (-L_k) equals the dense sum of the shifted walks' forms within
    1e-12 of its largest entry, so the decomposition holds for every f, and
    `dirichlet_form_identity` passes, on 48 levels, G1 and G2 among them."""
    levels = WALK_LEVELS + DEGENERATE_LEVELS
    for level in levels:
        energy_form = level.measure.probabilities[:, None] * -level.generator.matrix.toarray()
        np.testing.assert_allclose(loop_dirichlet_sum_form(level), energy_form, rtol=0,
                                   atol=1e-12 * np.abs(energy_form).max())
        check = dirichlet_form_identity(level)
        assert check.identity == f"dirichlet-decomposition[k={level.k}]"
        assert check.passed, (level.graph.n, level.k, check)


def six_vertex_levels():
    """Levels 2..4 of the benchmark's 6-vertex topology, a 6-cycle with chords
    (0, 3) and (1, 4), with alpha_min below 1 and at least 1."""
    edges = [[0, 1, 0.8], [1, 2, 1.4], [2, 3, 0.6], [3, 4, 1.9], [4, 5, 1.1], [5, 0, 0.7],
             [0, 3, 1.2], [1, 4, 0.9]]
    for alpha in ([0.4, 1.3, 0.7, 2.1, 0.9, 1.6], [1.2, 2.6, 1.0, 1.8, 2.3, 1.4]):
        yield from Level(graph_from_dict({"n": 6, "edges": edges, "alpha": alpha}), 4).down_to(2)


def test_the_form_identity_fails_a_walk_weight_or_a_rate_off_by_a_millionth():
    """One shifted walk's site weight, or one off-diagonal rate of L_k, scaled by
    1 + 1e-6 fails `dirichlet-decomposition[k]` on every level."""
    for level in six_vertex_levels():
        assert dirichlet_form_identity(level).passed
        beta, vals = level.shifted_walks
        for s, x in ((0, 0), (beta.shape[0] // 2, 3), (beta.shape[0] - 1, 5)):
            shifted = beta.copy()
            shifted[s, x] *= 1 + 1e-6
            mutated = Level(level.graph, level.k, level.lower)
            mutated.__dict__["shifted_walks"] = (shifted, vals)
            assert not dirichlet_form_identity(mutated).passed, (level.k, s, x)
        gen = level.generator
        coo = gen.matrix.tocoo()
        off = np.flatnonzero(coo.row != coo.col)
        for entry in off[[0, off.size // 2, -1]]:
            data = coo.data.copy()
            data[entry] *= 1 + 1e-6
            mutated = Level(level.graph, level.k, level.lower)
            mutated.__dict__["generator"] = replace(gen, matrix=scipy.sparse.csr_array(
                (data, (coo.row, coo.col)), shape=coo.shape))
            assert not dirichlet_form_identity(mutated).passed, (level.k, entry)


def test_the_ladder_covers_a_prefix_of_levels_and_asks_for_no_walk_above_it(monkeypatch):
    """b_k is k times the least second walk eigenvalue; coverage asks `shifted_walks_clear`
    of each level's (k-1)-particle space at (gap_rw + gap_tolerance) / k, stops at the first
    level it refuses and asks for no later level's space, nor for the walk with no level."""
    graph = path_graph(3, alpha=[0.5, 1.0, 2.0])
    margin = graph.walk_spectrum.gap + gap_tolerance(graph)
    assert ladder_bound(3, np.array([[0.0, 0.5, 2.0], [0.0, 0.25, 1.0]])) == 0.75
    asked, clears = [], {}

    def clear(g, space, floor):
        assert g is graph and floor == margin / (space.k + 1)
        return clears[space.k + 1]

    def lower_space(k):
        asked.append(k)
        return enumerate_configs(graph.n, k - 1)

    monkeypatch.setattr(siplab.intertwiners, "shifted_walks_clear", clear)
    clears = dict.fromkeys(range(2, 6), True)
    assert ladder_covered(graph, range(2, 6), lower_space) == [2, 3, 4, 5]
    asked.clear()
    clears = {2: True, 3: False, 4: True}
    assert ladder_covered(graph, range(2, 6), lower_space) == [2]
    assert asked == [2, 3]
    asked.clear()
    no_walk = path_graph(3)
    no_walk.__dict__["walk_spectrum"] = None  # reading its gap would fail
    assert ladder_covered(no_walk, range(2, 2), lower_space) == [] and asked == []


def test_a_walk_stack_that_overflows_clears_nothing():
    """Edge weight 1e308 keeps the walk with site weights below 0.9 finite.  With alpha_1 =
    0.85 the walk forms of weights alpha + xi overflow, which `build_shifted_walks` refuses;
    with 0.7 they stay finite, but the factor does not.  Either stack clears no floor,
    and no warning is raised."""
    for alpha_1, forms_overflow in ((0.85, True), (0.7, False)):
        graph = graph_from_dict({"n": 3, "edges": [[0, 1, 1e308], [1, 2, 1.0]],
                                 "alpha": [0.5, alpha_1, 0.9]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert graph.walk_spectrum.gap > 0.0
            assert not shifted_walks_clear(graph, enumerate_configs(3, 1), 1e-300)
            assert ladder_covered(graph, range(2, 4),
                                  lambda k: enumerate_configs(3, k - 1)) == []
            if forms_overflow:
                with pytest.raises(InputError, match="overflow"):
                    build_shifted_walks(graph, enumerate_configs(3, 1))
            else:
                assert np.isfinite(shifted_walk_forms(graph, graph.site_weights + np.eye(3))).all()


def test_the_factor_decides_coverage_as_the_walk_eigenvalues_do():
    """On 1200 levels, 240 random graphs, n = 3..6, 40 with site weights U(lo, 3 lo) for
    each lo, k = 2..6, the stack clears (gap_rw + gap_tolerance) / k exactly when
    `ladder_bound` of its eigenvalues reaches gap_rw + gap_tolerance; 73 levels miss."""
    rng = np.random.default_rng(11)
    verdicts = []
    for lo in (0.003, 0.01, 0.03, 0.05, 0.2, 1.0):
        for i in range(40):
            graph = random_connected_graph(3 + i % 4, rng, alpha_range=(lo, 3 * lo))
            margin = graph.walk_spectrum.gap + gap_tolerance(graph)
            for k in range(2, 7):
                space = enumerate_configs(graph.n, k - 1)
                bound = ladder_bound(k, build_shifted_walks(graph, space)[1])
                verdicts.append((shifted_walks_clear(graph, space, margin / k), bound >= margin))
    assert len(verdicts) == 1200
    assert all(factor == eigenvalues for factor, eigenvalues in verdicts)
    assert sum(not factor for factor, _ in verdicts) == 73


def test_the_closed_form_walk_stack_is_the_symmetrized_walk():
    """Each row of `shifted_walk_forms` equals `symmetrize_reversible` of its walk built
    alone, within 4 ulps of the walk's largest rate."""
    for level in WALK_LEVELS:
        beta, _ = level.shifted_walks
        forms = shifted_walk_forms(level.graph, beta)
        for s, (_, walk, _) in enumerate(loop_shifted_walks(level)):
            sym = symmetrize_reversible(walk.matrix, walk.stationary)
            np.testing.assert_allclose(forms[s], sym, rtol=0,
                                       atol=4 * np.spacing(np.abs(walk.matrix).max()))


def _stack_with_one_walk_moved(level, factor):
    """(beta, forms, floor): the closed-form stack of `level`'s walks with the second
    eigenvalue of its middle walk moved to factor * floor, floor half the least one."""
    beta = level.shifted_walks[0]
    forms = shifted_walk_forms(level.graph, beta)
    vals, vecs = np.linalg.eigh(forms)
    floor, s = 0.5 * float(vals[:, 1].min()), beta.shape[0] // 2
    forms[s] += (factor * floor - vals[s, 1]) * np.outer(vecs[s, :, 1], vecs[s, :, 1])
    return beta, forms, floor


def test_a_walk_whose_second_eigenvalue_dips_below_the_floor_is_refused(monkeypatch):
    """Moving one walk's second eigenvalue to (1 - 1e-6) times the floor refuses the
    stack, and to (1 + 1e-6) times it clears the stack, on every level."""
    for level in six_vertex_levels():
        for factor, clears in ((1 - 1e-6, False), (1 + 1e-6, True)):
            beta, forms, floor = _stack_with_one_walk_moved(level, factor)
            rows = {row.tobytes(): s for s, row in enumerate(beta)}
            with monkeypatch.context() as patch:
                patch.setattr(siplab.intertwiners, "shifted_walk_forms", lambda graph, part,
                              _forms=forms: _forms[[rows[row.tobytes()] for row in part]])
                assert shifted_walks_clear(level.graph, level.lower.space, floor) is clears


def test_a_stack_split_in_chunks_gives_the_answer_of_one_chunk(monkeypatch):
    """1, 7 and 64 walks a chunk decide as one chunk does, at floors below and above
    the least second eigenvalue; the chunks stop at the first that fails."""
    level = Level(cycle_graph(7, alpha=np.linspace(0.2, 0.8, 7)), 5)
    graph, space = level.graph, level.lower.space
    least = float(level.shifted_walks[1][:, 1].min())
    floors = (0.5 * least, (1 - 1e-9) * least, (1 + 1e-9) * least, 2 * least)
    one_chunk = [shifted_walks_clear(graph, space, floor) for floor in floors]
    assert one_chunk == [True, True, False, False]
    real, calls = shifted_walk_forms, []

    def counted(graph, part):
        calls.append(len(part))
        return real(graph, part)

    monkeypatch.setattr(siplab.intertwiners, "shifted_walk_forms", counted)
    for walks in (1, 7, 64):
        monkeypatch.setattr(siplab.intertwiners, "LADDER_CHUNK_BYTES", walks * 8 * graph.n ** 2)
        assert [shifted_walks_clear(graph, space, floor) for floor in floors] == one_chunk
    calls.clear()
    shifted_walks_clear(graph, space, 2 * least)
    assert calls == [64]


def test_walk_stack_refuses_an_irreversible_walk():
    level = WALK_LEVELS[-1]
    walks = loop_shifted_walks(level)
    rates = np.array([walk.matrix for _, walk, _ in walks])
    laws = np.array([walk.stationary for _, walk, _ in walks])
    sym = symmetrize_reversible(rates, laws)
    for s, (_, walk, _) in enumerate(walks):
        np.testing.assert_array_equal(sym[s], symmetrize_reversible(walk.matrix, walk.stationary))
    x, y = np.argwhere(level.graph.edge_weights > 0)[0]
    rates[len(walks) // 2, x, y] *= 1.01
    with pytest.raises(InputError, match="not reversible"):
        symmetrize_reversible(rates, laws)


def test_adjoint_by_broadcasting_equals_diagonal_products():
    rng = np.random.default_rng(34)
    for _ in range(20):
        g = random_connected_graph(int(rng.integers(2, 6)), rng, alpha_range=(0.3, 2.5))
        for k in (2, 3, 4):
            level = Level(g, k)
            factor = k / (g.alpha_total + k - 1)
            lhs = level.annihilation.T @ np.diag(level.measure.probabilities)
            rhs = factor * np.diag(level.lower.measure.probabilities) @ level.creation
            assert check_adjoint(level).residual == float(np.abs(lhs - rhs).max())


def test_adjoint_fails_on_a_scaled_or_dropped_creation_entry():
    """The aligned comparison catches a wrong value, and a pattern that no
    longer matches falls back to sparse sides with the true residual."""
    g = random_connected_graph(4, np.random.default_rng(35), alpha_range=(0.3, 2.5))
    level = Level(g, 3)
    factor = 3 / (g.alpha_total + 2)
    assert check_adjoint(level).passed
    scaled = level.creation.copy()
    scaled.data[7] *= 1.01
    coo = level.creation.tocoo()
    keep = np.arange(coo.nnz) != 7
    dropped = scipy.sparse.csr_array((coo.data[keep], (coo.row[keep], coo.col[keep])),
                                     shape=coo.shape)
    for matrix in (scaled, dropped):
        mutated = Level(g, 3, level.lower)
        mutated.__dict__["creation"] = matrix
        check = check_adjoint(mutated)
        lhs = level.annihilation.T @ np.diag(level.measure.probabilities)
        rhs = factor * np.diag(level.lower.measure.probabilities) @ matrix.toarray()
        assert not check.passed and check.residual == float(np.abs(lhs - rhs).max())
