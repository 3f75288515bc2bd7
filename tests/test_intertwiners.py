import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from conftest import (CONTRACT_RTOL, assert_dichotomy_matches_dense, binomial_removal_matrix,
                      injectivity_margin, kernel_gap, loop_annihilation, loop_creation,
                      loop_dirichlet_decomposition, loop_eigen_groups, loop_minmax_comparison,
                      loop_shifted_walks, loop_sip_generator, removal_composition,
                      svd_kernel_basis)
from siplab.configs import enumerate_configs, inner_product, sip_measure, variance
from siplab.errors import InputError
from siplab.graphs import (Spectrum, build_rw_generator, complete_graph, cycle_graph, path_graph,
                           random_connected_graph, rw_dirichlet_form, rw_gap, rw_spectrum,
                           symmetrize_reversible)
from siplab.intertwiners import (Ladder, Level, build_annihilation, build_creation, check_adjoint,
                                 check_intertwinings, comparison_tables,
                                 dirichlet_decomposition_check,
                                 eigen_dichotomy, invert_annihilation, lift_eigenfunction,
                                 minmax_comparison_check, peeling_block, project_to_kernel,
                                 removal_qr, shifted_walk_gap_infimum)
from siplab.reporting import ENERGY_RTOL
from siplab.sip import build_sip_generator, sip_spectrum


def test_ladder_shares_each_level_with_the_one_above():
    g = path_graph(3)
    ladder = Ladder(g)
    top = ladder[3]
    assert top.lower is ladder[2] and ladder[2].lower is ladder[1]
    assert top.generator is ladder[3].generator
    np.testing.assert_array_equal(ladder[0].generator.matrix.toarray(), [[0.0]])
    assert Level(g, 2).lower.k == 1
    with pytest.raises(InputError):
        Level(g, 2, lower=ladder[2])
    with pytest.raises(InputError):
        ladder[-1]
    with pytest.raises(InputError):
        ladder[0].lower


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
    assert peeling_block(Ladder(path_graph(40))[2])[3] == 1.0


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
        basis = level.kernel
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
    basis = level.kernel
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
        result = eigen_dichotomy(level)
        assert result.passed
        assert_dichotomy_matches_dense(level, result)
        # the zero eigenvalue is the lifted constant
        assert result.groups[0].dim_image == 1


def test_eigen_dichotomy_degenerate_complete_graph():
    # complete-graph eigenspaces are heavily degenerate; each new level
    # adds exactly one eigenvalue whose whole eigenspace is fresh
    g = complete_graph(4)
    for k in (2, 3, 4):
        level = Level(g, k)
        result = eigen_dichotomy(level)
        assert result.passed
        assert_dichotomy_matches_dense(level, result)
        fresh = [gr for gr in result.groups if gr.dim_kernel]
        assert len(fresh) == 1
        assert fresh[0].dim == result.size_high - result.size_low
        assert fresh[0].dim_kernel == fresh[0].dim


def test_eigen_dichotomy_image_multiplicities_match_lower_level():
    rng = np.random.default_rng(11)
    g = random_connected_graph(3, rng)
    k = 3
    result = eigen_dichotomy(Level(g, k))
    low_vals = sip_spectrum(build_sip_generator(g, k - 1),
                            want_vectors=False).eigenvalues
    for group in result.groups:
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
        ladder = Ladder(g)
        for k in range(2, 6):
            yield ladder[k]


DICHOTOMY_LEVELS = list(_dichotomy_levels())


def test_eigen_dichotomy_matches_dense_oracle():
    for level in DICHOTOMY_LEVELS:
        result = eigen_dichotomy(level)
        assert result.passed, (level.graph.n, level.k)
        assert_dichotomy_matches_dense(level, result)


def test_eigen_groups_match_the_loop_oracle():
    """Same groups and dimensions, and mean eigenvalues within the output
    contract's 1e-12 relative: a group's sum may add its values in another
    order than `np.mean`.  complete(5) at k=4 has eigenvalues of multiplicity
    up to 35."""
    levels = DICHOTOMY_LEVELS + [Ladder(complete_graph(5))[4]]
    assert max(g.dim for g in eigen_dichotomy(levels[-1]).groups) == 35
    for level in levels:
        got, want = eigen_dichotomy(level).groups, loop_eigen_groups(level)
        assert [(g.dim, g.dim_image, g.dim_kernel) for g in got] == [
            (g.dim, g.dim_image, g.dim_kernel) for g in want], (level.graph.n, level.k)
        np.testing.assert_allclose([g.eigenvalue for g in got], [g.eigenvalue for g in want],
                                   rtol=CONTRACT_RTOL, atol=0.0,
                                   err_msg=str((level.graph.n, level.k)))


def test_kernel_basis_matches_svd_oracle():
    rng = np.random.default_rng(41)
    for level in DICHOTOMY_LEVELS:
        mu = level.measure.probabilities
        basis = level.kernel
        assert basis.shape == (level.space.size, level.space.size - level.lower.space.size)
        np.testing.assert_allclose(basis.T @ (mu[:, None] * basis), np.eye(basis.shape[1]),
                                   rtol=0, atol=1e-12)
        svd = svd_kernel_basis(level)
        for _ in range(3):
            f = rng.standard_normal(level.space.size)
            np.testing.assert_allclose(project_to_kernel(level, f), svd @ (svd.T @ (mu * f)),
                                       rtol=0, atol=1e-10)


def test_lower_spectrum_and_fresh_block_make_the_level_spectrum():
    for level in DICHOTOMY_LEVELS:
        neg = -level.generator.matrix
        basis = level.kernel
        block = basis.T @ (level.measure.probabilities[:, None] * neg) @ basis
        fresh = scipy.linalg.eigvalsh(0.5 * (block + block.T))
        low = sip_spectrum(level.lower.generator, want_vectors=False).eigenvalues
        dense = sip_spectrum(level.generator, want_vectors=False).eigenvalues
        scale = max(1.0, float(np.abs(neg).max()))
        np.testing.assert_allclose(np.sort(np.concatenate([low, fresh])), dense,
                                   rtol=0, atol=1e-10 * scale)


def _mutation_levels():
    rng = np.random.default_rng(42)
    for alpha_range in [(0.3, 0.9), (1.0, 2.5)]:
        ladder = Ladder(random_connected_graph(4, rng, alpha_range=alpha_range))
        for k in (2, 3, 4):
            yield ladder[k]


def _failing_checks(result, level, tol=1e-8) -> set:
    """Which of the four dichotomy checks `result` fails, at the bounds
    of the intact level."""
    rate = tol * max(1.0, float(np.abs(level.generator.matrix).max()))
    addition = tol * max(1.0, float(level.balanced_removal.max()))
    return {name for name, bad in [("injectivity", result.injectivity != 1.0),
                                   ("off_diagonal", result.off_diagonal > rate),
                                   ("image_spectrum", result.image_spectrum > rate),
                                   ("kernel_residual", result.kernel_residual > addition)]
            if bad}


def _mutated(level, **pieces) -> Level:
    mutated = Level(level.graph, level.k, pieces.pop("lower", level.lower))
    mutated.__dict__.update(pieces)
    return mutated


def test_eigen_dichotomy_fails_a_wrong_generator():
    # reversible for the same law and still intertwined with A_k, but
    # one edge is 0.1% heavier than at level k-1
    for level in _mutation_levels():
        g = level.graph
        x, y = np.argwhere(g.edge_weights > 0)[0]
        c = g.edge_weights.copy()
        c[x, y] *= 1.001
        c[y, x] = c[x, y]
        gen = build_sip_generator(replace(g, edge_weights=c), level.k)
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
    # one column scaled by 1e-10 spans the same range, so only the
    # injectivity check sees it
    for level in _mutation_levels():
        matrix = level.annihilation.toarray()
        matrix[:, -1] *= 1e-10
        result = eigen_dichotomy(_mutated(level, annihilation=scipy.sparse.csr_array(matrix)))
        assert not result.passed, level.k
        assert _failing_checks(result, level) == {"injectivity"}


def test_eigen_dichotomy_fails_a_lifted_direction_coupled_to_a_fresh_one():
    # -L_k + eps (u v^T + v u^T) D, u lifted and v fresh, both of mu-norm 1:
    # still self-adjoint for mu with the same image block, but not block diagonal
    for level in _mutation_levels():
        basis = level.qr
        u, v = basis[:, 0], basis[:, level.lower.space.size]
        coupling = 1e-3 * (np.outer(u, v) + np.outer(v, u)) * level.measure.probabilities
        gen = replace(level.generator,
                      matrix=scipy.sparse.csr_array(level.generator.matrix - coupling))
        result = eigen_dichotomy(_mutated(level, generator=gen))
        assert not result.passed, level.k
        assert _failing_checks(result, level) == {"off_diagonal"}
        assert result.off_diagonal == pytest.approx(1e-3, rel=1e-6)


def test_eigen_dichotomy_fails_a_wrong_lower_spectrum():
    for level in _mutation_levels():
        spec = level.lower.spectrum
        vals = spec.eigenvalues.copy()
        vals[len(vals) // 2] *= 1.001
        lower = Level(level.graph, level.k - 1, level.lower.lower)
        lower.__dict__["spectrum"] = Spectrum(vals, None)
        result = eigen_dichotomy(_mutated(level, lower=lower))
        assert not result.passed, level.k
        assert _failing_checks(result, level) == {"image_spectrum"}


def test_peeling_margin_is_exactly_one():
    # cycle(7) at k=8 has 3003 states; the check needs no QR there
    for level in DICHOTOMY_LEVELS + [Ladder(cycle_graph(7))[8]]:
        rows, cols, block, margin = peeling_block(level)
        assert margin == 1.0, (level.graph.n, level.k)
        assert block.shape == (level.lower.space.size,) * 2
        assert np.array_equal(np.sort(cols), np.arange(cols.size))
        assert np.unique(rows).size == rows.size


def test_an_entry_above_the_peeling_diagonal_fails_injectivity_only():
    # the mutated A_k keeps the intact W_k, so only the peeling check reads it
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
        assert _failing_checks(result, level) == {"injectivity"}
        with pytest.raises(InputError, match="peeling"):
            invert_annihilation(mutated, np.zeros(level.space.size))


def test_invert_annihilation_matches_a_dense_least_squares_solve():
    rng = np.random.default_rng(43)
    level = Level(random_connected_graph(7, rng), 7)
    ann = level.annihilation
    h = ann @ rng.standard_normal(ann.shape[1])
    want = scipy.linalg.lstsq(ann.toarray(), h)[0]
    np.testing.assert_allclose(invert_annihilation(level, h), want, rtol=0, atol=1e-12)
    with pytest.raises(InputError):
        invert_annihilation(level, h[:-1])


def test_removal_qr_factors_the_weighted_removal():
    for level in DICHOTOMY_LEVELS[:8]:
        basis, r = removal_qr(level)
        d = np.sqrt(level.measure.probabilities)
        balanced = (d[:, None] * level.annihilation.toarray()
                    / np.sqrt(level.lower.measure.probabilities)[None, :])
        np.testing.assert_allclose(level.balanced_removal.toarray(), balanced, rtol=1e-14, atol=0)
        np.testing.assert_allclose((d[:, None] * basis) @ r, balanced,
                                   rtol=0, atol=1e-12 * level.k)
        assert np.allclose(np.tril(r, -1), 0.0)
        assert np.shares_memory(level.kernel, level.qr)


def test_dirichlet_decomposition_zero_function():
    result = dirichlet_decomposition_check(Level(path_graph(2), 2), np.zeros(3))
    assert result.passed
    assert result.energy == pytest.approx(0.0, abs=1e-14)


def test_dirichlet_decomposition_two_sites_hand_case():
    result = dirichlet_decomposition_check(Level(path_graph(2), 2), np.array([1.0, -1.0, 1.0]))
    # each residual within 1e-12 of its scale, a thousandth of the ENERGY_RTOL tolerance
    assert all(c.residual <= 1e-12 / ENERGY_RTOL * c.tolerance for c in result.checks), result
    assert result.energy == pytest.approx(result.decomposed, abs=1e-12)


def test_dirichlet_decomposition_random_sweep():
    rng = np.random.default_rng(12)
    g = random_connected_graph(3, rng)
    for k in (2, 3, 4):
        level = Level(g, k)
        for _ in range(34):  # 102 random functions across the three levels
            f = rng.standard_normal(level.space.size)
            result = dirichlet_decomposition_check(level, f)
            assert result.passed, result.checks


def test_minmax_comparisons():
    rng = np.random.default_rng(13)
    g = random_connected_graph(3, rng, alpha_range=(0.3, 2.0))
    for k in (2, 3, 4):
        report = minmax_comparison_check(Level(g, k), rng=rng)
        assert report.passed, [c for c in report.checks if not c.passed]
    # alpha = 1: the eigenvalue comparison factor at k = 2 is 1/2
    g1 = path_graph(3)
    vals = rw_spectrum(build_rw_generator(g1), want_vectors=False).eigenvalues
    shifted = g1.with_site_weights(g1.site_weights + np.array([1, 0, 0]))
    vals_shifted = rw_spectrum(build_rw_generator(shifted), want_vectors=False).eigenvalues
    assert np.all(vals_shifted >= 0.5 * vals - 1e-12)


def test_lower_bound_induction_chain():
    rng = np.random.default_rng(14)
    for alpha_range in [(0.3, 0.9), (1.0, 2.5)]:
        g = random_connected_graph(3, rng, alpha_range=alpha_range)
        walk_gap = rw_gap(g)
        a_min = g.alpha_min
        for k in (2, 3):
            level = Level(g, k)
            kg = kernel_gap(level)
            inf_shift = shifted_walk_gap_infimum(level)
            assert kg >= k * inf_shift - 1e-9
            assert k * inf_shift >= (a_min * k / (a_min + k - 1)) * walk_gap - 1e-9


def _walk_levels():
    """Levels k = 2..5 of one random graph per n = 3..7 in each regime,
    alpha_min below 1 and at least 1."""
    rng = np.random.default_rng(30)
    for n in range(3, 8):
        for alpha_range in [(0.3, 0.9), (1.0, 2.5)]:
            ladder = Ladder(random_connected_graph(n, rng, alpha_range=alpha_range))
            for k in range(2, 6):
                yield ladder[k]


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


def test_comparison_tables_equal_per_walk_loop():
    rng = np.random.default_rng(31)
    for level in WALK_LEVELS:
        phis = rng.standard_normal((50, level.graph.n))
        beta, _ = level.shifted_walks
        energies, norms = comparison_tables(level.graph, beta, phis)
        loop_energies, loop_norms = [], []
        for xi, walk, _ in loop_shifted_walks(level):
            b = level.graph.site_weights + xi
            loop_energies.append([rw_dirichlet_form(walk, phi) for phi in phis])
            loop_norms.append([float((b / b.sum()) @ (phi * phi)) for phi in phis])
        np.testing.assert_allclose(energies, loop_energies, rtol=1e-12)
        np.testing.assert_allclose(norms, loop_norms, rtol=1e-12)
        # the comparison sees walks out of rank order
        if beta.shape[0] > 1:
            rolled, _ = comparison_tables(level.graph, np.roll(beta, 1, axis=0), phis)
            assert not np.allclose(rolled, loop_energies, rtol=1e-12)


def test_array_checks_match_loop_oracle():
    """Same names, verdicts and tolerances as the loop oracle.  Every
    residual is equal but the decomposition's, which is rounding noise
    summed in another order, seen below 6e-7 of its tolerance."""
    rng = np.random.default_rng(32)
    for level in WALK_LEVELS:
        seed = int(rng.integers(2 ** 31))
        f = rng.standard_normal(level.space.size)
        fast = (minmax_comparison_check(level, rng=np.random.default_rng(seed)).checks
                + dirichlet_decomposition_check(level, f).checks)
        slow = (loop_minmax_comparison(level, rng=np.random.default_rng(seed))
                + loop_dirichlet_decomposition(level, f))
        assert [(c.identity, c.passed) for c in fast] == [(c.identity, c.passed) for c in slow]
        for a, b in zip(fast, slow):
            assert a.passed
            assert a.tolerance == pytest.approx(b.tolerance, rel=1e-12)
            if a.identity.startswith("dirichlet-decomposition"):
                assert abs(a.residual - b.residual) <= 1e-5 * a.tolerance
            else:
                assert a.residual == b.residual, a.identity


def test_walk_off_by_a_little_fails_the_decomposition():
    rng = np.random.default_rng(33)
    for level in WALK_LEVELS:
        beta, vals = level.shifted_walks
        f = rng.standard_normal(level.space.size)
        assert dirichlet_decomposition_check(level, f).passed
        shifted = beta.copy()
        shifted[beta.shape[0] // 2, 0] += 1e-3
        mutated = Level(level.graph, level.k, level.lower)
        mutated.__dict__["shifted_walks"] = (shifted, vals)
        assert not dirichlet_decomposition_check(mutated, f).checks[0].passed


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
