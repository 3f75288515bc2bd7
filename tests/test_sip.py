import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import conftest
import siplab.sip
from conftest import (DEGENERATE_GRAPHS, SIX_VERTEX_ALPHA, SIX_VERTEX_EDGES, hausdorff_gap,
                      reference_jumps, reference_sip_generator, sip_dirichlet_oracle,
                      spectrum_included)
from siplab.bep import bep_gap_report
from siplab.configs import space_size
from siplab.errors import EigensolverError, InputError, VerificationError
from siplab.graphs import (Graph, build_rw_generator, complete_graph, graph_from_dict, path_graph,
                           random_connected_graph, rw_spectrum)
from siplab.intertwiners import Level
from siplab.reporting import gap_tolerance, require_reversible
from siplab.sip import (SPARSE_GAP_MIN_STATES, build_sip_generator, gap_sandwich_report,
                        sip_dirichlet_form, sip_gap, sip_spectrum, transition_matrix,
                        tv_sandwich)

# assembled by hand from the jump rates eta_x c (alpha_y + eta_y) on
# states [(0,2), (1,1), (2,0)] with c = 1, alpha = (1, 1)
L2_TWO_SITES = np.array([[-2.0, 2.0, 0.0],
                         [2.0, -4.0, 2.0],
                         [0.0, 2.0, -2.0]])


def test_generator_two_sites_matches_hand_matrix():
    gen = build_sip_generator(path_graph(2), 2)
    np.testing.assert_array_equal(gen.matrix.toarray(), L2_TWO_SITES)


def test_generator_single_particle_is_the_walk():
    rng = np.random.default_rng(0)
    g = random_connected_graph(4, rng)
    gen1 = build_sip_generator(g, 1)
    walk = build_rw_generator(g).matrix
    # lex order of one-particle states is site n-1 first
    relabel = [gen1.space.rank(tuple(int(x == s) for s in range(g.n)))
               for x in range(g.n)]
    np.testing.assert_allclose(gen1.matrix.toarray()[np.ix_(relabel, relabel)], walk,
                               atol=1e-14)


def test_generator_zero_edges_is_zero():
    g = Graph(3, np.zeros((3, 3)), np.ones(3))
    gen = build_sip_generator(g, 3)
    np.testing.assert_array_equal(gen.matrix.toarray(), 0.0)


def test_spectrum_two_sites_hand_values():
    spec = sip_spectrum(build_sip_generator(path_graph(2), 2), want_vectors=False)
    np.testing.assert_allclose(spec.eigenvalues, [0.0, 2.0, 6.0], atol=1e-12)


def test_spectrum_complete_graph_formula():
    rng = np.random.default_rng(1)
    for n in (3, 4):
        alpha = rng.uniform(0.3, 3.0, size=n)
        g = complete_graph(n, alpha)
        total = g.alpha_total
        for k in (1, 2, 3):
            vals = sip_spectrum(build_sip_generator(g, k), want_vectors=False).eigenvalues
            expected = [l * (total + l - 1) / n for l in range(k + 1)]
            assert hausdorff_gap(np.unique(np.round(vals, 9)), expected) <= 1e-8


def test_spectrum_level_one_equals_walk_spectrum():
    rng = np.random.default_rng(2)
    g = random_connected_graph(5, rng)
    s_walk = rw_spectrum(build_rw_generator(g), want_vectors=False).eigenvalues
    s_one = sip_spectrum(build_sip_generator(g, 1), want_vectors=False).eigenvalues
    np.testing.assert_allclose(s_one, s_walk, atol=1e-10)


def test_dirichlet_form_basics():
    gen = build_sip_generator(path_graph(2), 2)
    assert sip_dirichlet_form(gen, np.full(3, 1.3)) == pytest.approx(0.0, abs=1e-13)
    spec = sip_spectrum(gen)
    f = spec.eigenfunctions[:, 1]
    mu = gen.measure.probabilities
    var = float(mu @ (f * f)) - float(mu @ f) ** 2
    assert sip_dirichlet_form(gen, f) / var == pytest.approx(spec.gap, rel=1e-10)


def test_dirichlet_form_against_double_sum_oracle():
    rng = np.random.default_rng(3)
    gen = build_sip_generator(path_graph(2), 2)
    for _ in range(5):
        f = rng.standard_normal(3)
        assert sip_dirichlet_form(gen, f) == pytest.approx(
            sip_dirichlet_oracle(gen, f), rel=1e-10)
    g = random_connected_graph(3, rng)
    gen = build_sip_generator(g, 3)
    for _ in range(5):
        f = rng.standard_normal(gen.space.size)
        assert sip_dirichlet_form(gen, f) == pytest.approx(
            sip_dirichlet_oracle(gen, f), rel=1e-9)


def test_gap_report_complete_graph_equality_any_alpha():
    rng = np.random.default_rng(4)
    alpha = rng.uniform(0.2, 2.5, size=4)  # includes entries below 1
    g = complete_graph(4, alpha)
    report = gap_sandwich_report(Level(g, 4))
    assert report.passed
    expected = g.alpha_total / 4
    for k, gap_k in report.gaps.items():
        assert gap_k == pytest.approx(expected, abs=1e-9)


def test_gap_report_path_graph_unit_alpha_equality():
    report = gap_sandwich_report(Level(path_graph(4), 4))
    assert report.passed and report.equality_expected
    for gap_k in report.gaps.values():
        assert gap_k == pytest.approx(report.gap_rw, abs=1e-8)


def test_gap_report_small_alpha_sandwich():
    g = path_graph(2, alpha=[0.2, 0.2])
    report = gap_sandwich_report(Level(g, 5))
    assert report.passed
    assert not report.equality_expected
    for ratio in report.ratios.values():
        assert 0.2 - 1e-9 <= ratio <= 1.0 + 1e-9


def test_gap_report_fails_on_a_gap_above_gap_rw():
    g = path_graph(2, alpha=[0.2, 0.2])
    top = Level(g, 3)
    # a mutated level: gap_rw is 0.4, and a level gap above it breaks the sandwich
    top.gap = 0.5
    report = gap_sandwich_report(top)
    assert not report.passed and report.gaps[2] == top.lower.gap
    assert any(f.startswith("k=3: gap_k=0.5 above gap_rw") for f in report.failures)


def _stubbed(graph, k_max, gap):
    """Level k_max of `graph` with the gap of every level 1..k_max stubbed at
    gap(gap_rw, tolerance), for both reports: the diffusion report reads the
    least gap of levels 1..k_max, the particle report levels 2..k_max."""
    levels = Level(graph, k_max).down_to(1)
    for level in levels:
        level.gap = gap(graph.walk_spectrum.gap, gap_tolerance(graph))
    return levels[-1]


GAP_VERDICTS = {
    # alpha_min = 0.2: the lower bound is 0.2 gap_rw
    "below the lower bound": (
        path_graph(2, alpha=[0.2, 0.2]), 3, lambda rw, tol: 0.1 * rw,
        [(2, "below lower bound"), (3, "below lower bound")], ["bep-gap-lower[K=3]"]),
    "3 tolerances below gap_rw, equality expected": (
        path_graph(3), 2, lambda rw, tol: rw - 3 * tol,
        [(2, "below lower bound"), (2, "expected equality")],
        ["bep-gap-lower[K=2]", "bep-gap-equality[K=2]"]),
    "3 tolerances above gap_rw, equality expected": (
        path_graph(3), 2, lambda rw, tol: rw + 3 * tol,
        [(2, "above gap_rw"), (2, "expected equality")],
        ["bep-gap-upper[K=2]", "bep-gap-equality[K=2]"]),
    # one fact, one line: at k=2 the gap below is gap_rw itself
    "gap_2 above gap_rw": (
        path_graph(2, alpha=[0.2, 0.2]), 2, lambda rw, tol: 1.25 * rw,
        [(2, "above gap_rw")], ["bep-gap-upper[K=2]"]),
}


@pytest.mark.parametrize("case", list(GAP_VERDICTS))
def test_both_gap_reports_give_each_sandwich_verdict(case):
    graph, k_max, gap, lines, failing = GAP_VERDICTS[case]
    report = gap_sandwich_report(_stubbed(graph, k_max, gap))
    assert len(report.failures) == len(lines), report.failures
    for failure, (k, phrase) in zip(report.failures, lines):
        assert failure.startswith(f"k={k}: ") and phrase in failure, failure
    bep = bep_gap_report(_stubbed(graph, k_max, gap))
    assert [c.identity for c in bep.checks if not c.passed] == failing


def test_gap_report_finishes_on_a_2000_deep_ladder():
    # levels up to 2000 of path(2) hold at most 2001 states each; their gaps
    # are stubbed at the walk gap 2.0, and the walk gap is read from the graph
    levels = Level(path_graph(2), 2000).down_to(2)
    for level in levels:
        level.gap = 2.0
    report = gap_sandwich_report(levels[-1])
    assert report.passed, report.failures
    assert report.gap_rw == pytest.approx(2.0) and len(report.gaps) == 1999


def test_spectrum_inclusion_across_levels():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = random_connected_graph(int(rng.integers(2, 5)), rng)
        prev = sip_spectrum(build_sip_generator(g, 1), want_vectors=False).eigenvalues
        for k in range(2, 5):
            cur = sip_spectrum(build_sip_generator(g, k), want_vectors=False).eigenvalues
            assert spectrum_included(prev, cur, rtol=1e-8)
            prev = cur


def test_rayleigh_quotient_bounds_sip_gap():
    rng = np.random.default_rng(6)
    g = random_connected_graph(3, rng)
    gen = build_sip_generator(g, 3)
    gap = sip_spectrum(gen, want_vectors=False).gap
    mu = gen.measure.probabilities
    for _ in range(200):
        f = rng.standard_normal(gen.space.size)
        var = float(mu @ (f * f)) - float(mu @ f) ** 2
        if var < 1e-12:
            continue
        assert sip_dirichlet_form(gen, f) / var >= gap - 1e-9


def test_permutation_equivariance():
    rng = np.random.default_rng(7)
    g = random_connected_graph(4, rng)
    perm = rng.permutation(4)
    g2 = Graph(4, g.edge_weights[np.ix_(perm, perm)], g.site_weights[perm])
    for k in (2, 3):
        s1 = sip_spectrum(build_sip_generator(g, k), want_vectors=False).eigenvalues
        s2 = sip_spectrum(build_sip_generator(g2, k), want_vectors=False).eigenvalues
        np.testing.assert_allclose(s1, s2, atol=1e-9)


def test_semigroup_stochastic_and_matches_expm():
    rng = np.random.default_rng(8)
    g = random_connected_graph(3, rng)
    gen = build_sip_generator(g, 2)
    for t in (0.0, 0.3, 1.7):
        p = transition_matrix(gen, t)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert p.min() >= -1e-12
        np.testing.assert_allclose(p, scipy.linalg.expm(t * gen.matrix.toarray()), atol=1e-10)
    with pytest.raises(InputError):
        transition_matrix(gen, -0.1)


def test_tv_sandwich_time_zero_and_large_time():
    gen = build_sip_generator(path_graph(2), 2)
    table = tv_sandwich(gen, [0.0, 10.0])
    row0 = table.rows[0]
    # starting anywhere, the distance to the uniform law at t = 0 is
    # 2 (1 - mass of the start state), maximized at the smallest mass
    assert row0.value == pytest.approx(2.0 * (1.0 - 1.0 / 3.0), abs=1e-12)
    assert row0.lower == 1.0
    row_late = table.rows[1]  # gap * t = 20
    assert max(row_late.value, row_late.lower, row_late.upper) <= 1e-7


def test_tv_sandwich_half_time_window():
    gen = build_sip_generator(path_graph(2), 2)
    table = tv_sandwich(gen, [0.5])
    row = table.rows[0]
    assert np.exp(-1.0) - 1e-12 <= row.value <= np.sqrt(3.0) * np.exp(-1.0) + 1e-12
    assert table.passed


def test_tv_sandwich_all_levels_small_graph():
    for k in (1, 2, 3):
        gen = build_sip_generator(path_graph(2), k)
        table = tv_sandwich(gen, [0.1, 0.5, 1.0, 2.0])
        assert table.passed


def test_sip_gap_monotone_in_particle_number():
    rng = np.random.default_rng(9)
    g = random_connected_graph(3, rng, alpha_range=(0.3, 0.9))
    gaps = [sip_gap(build_sip_generator(g, k)) for k in range(1, 5)]
    for lo, hi in zip(gaps[1:], gaps[:-1]):
        assert lo <= hi + 1e-9


def dense_gap(graph, k):
    """The dense oracle: full symmetric eigensolve of the assembled generator."""
    return sip_spectrum(build_sip_generator(graph, k), want_vectors=False).gap


def count_eigsh_calls(monkeypatch):
    calls = []
    real = scipy.sparse.linalg.eigsh

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    return calls


@pytest.mark.parametrize("alpha_range", [(0.3, 3.0), (1.0, 3.0)])
def test_sparse_gap_matches_dense_oracle_random_graphs(alpha_range):
    rng = np.random.default_rng(31)
    for n in (4, 5, 6, 7):
        g = random_connected_graph(n, rng, alpha_range=alpha_range)
        for k in range(1, 8):
            gap = sip_gap(build_sip_generator(g, k))
            assert gap == pytest.approx(dense_gap(g, k), rel=1e-10), (n, k)


def test_sparse_gap_complete_graph_degenerate_gap(monkeypatch):
    calls = count_eigsh_calls(monkeypatch)
    alpha = np.random.default_rng(32).uniform(0.3, 3.0, size=6)
    for g in (complete_graph(6), complete_graph(6, alpha)):
        # the gap |alpha| / n has multiplicity n - 1 at every level
        gap = sip_gap(build_sip_generator(g, 6))
        assert gap == pytest.approx(dense_gap(g, 6), rel=1e-10)
        assert gap == pytest.approx(g.alpha_total / 6, rel=1e-10)
    assert calls == [space_size(6, 6)] * 2


def test_sparse_gap_zero_edge_graph():
    g = Graph(3, np.zeros((3, 3)), np.ones(3))
    for k in (2, 30):  # 6 states, and 496 states, past the dense fallback
        assert sip_gap(build_sip_generator(g, k)) == 0.0 == dense_gap(g, k)


def test_sparse_gap_either_side_of_dense_fallback(monkeypatch):
    calls = count_eigsh_calls(monkeypatch)
    g = path_graph(2, alpha=[0.7, 1.9])  # k particles on two sites: k + 1 states
    for size in (SPARSE_GAP_MIN_STATES - 1, SPARSE_GAP_MIN_STATES):
        gap = sip_gap(build_sip_generator(g, size - 1))
        assert gap == pytest.approx(dense_gap(g, size - 1), rel=1e-10)
    assert calls == [SPARSE_GAP_MIN_STATES]
    # the smallest spaces ARPACK accepts: two wanted eigenpairs and one more state
    monkeypatch.setattr(siplab.sip, "SPARSE_GAP_MIN_STATES", 3)
    for k in (1, 2, 3):
        assert sip_gap(build_sip_generator(g, k)) == pytest.approx(dense_gap(g, k), rel=1e-10)
    assert calls == [SPARSE_GAP_MIN_STATES, 3, 4]


def test_every_level_from_the_gap_bound_to_300_states_gives_the_dense_gap(monkeypatch):
    """The levels of SPARSE_GAP_MIN_STATES to 299 states on the acceptance grid (the
    150 graphs of `test_every_gap_the_ladder_covers_is_the_walk_gap`, k = 2..5) and on
    the benchmark's 6-vertex topology at k = 5 take the banded route, and each gives
    the dense eigh gap within 1e-12 relative."""
    calls = count_eigsh_calls(monkeypatch)
    rng = np.random.default_rng(11)
    graphs = [random_connected_graph(3 + i % 4, rng, alpha_range=(lo, 3 * lo))
              for lo in (0.01, 0.05, 0.2, 0.5, 1.0) for i in range(30)]
    graphs += [graph_from_dict({"n": 6, "edges": SIX_VERTEX_EDGES, "alpha": alpha})
               for alpha in SIX_VERTEX_ALPHA.values()]
    levels = [(g, k) for g in graphs for k in range(2, 6)
              if SPARSE_GAP_MIN_STATES <= space_size(g.n, k) < 300]
    for g, k in levels:
        gen = build_sip_generator(g, k)
        dense = scipy.linalg.eigh(gen.symmetric.toarray(), eigvals_only=True,
                                  subset_by_index=(0, 1))[1]
        assert abs(sip_gap(gen) - dense) <= 1e-12 * dense, (g.n, k)
    assert len(calls) == len(levels) == 37


def _mutate_move_table(monkeypatch, mutate):
    """Make `_move_table` hand its tables (sources, targets, rates, exits,
    offsets) to `mutate` and the assembly what `mutate` returns."""
    real = siplab.sip._move_table
    monkeypatch.setattr(siplab.sip, "_move_table", lambda graph, space: mutate(*real(graph, space)))


def test_sparse_gap_checks_detailed_balance(monkeypatch):
    def skew(sources, targets, rates, exits, offsets):
        rates[0, 0] *= 1.5
        return sources, targets, rates, exits, offsets

    _mutate_move_table(monkeypatch, skew)
    with pytest.raises(VerificationError, match="not reversible"):
        build_sip_generator(path_graph(4), 12)


def test_a_move_with_no_reverse_is_a_verification_error(monkeypatch):
    # the moves along the first pair are dropped; those along its reverse
    # pair are still there, and find nothing to pair with
    def drop(sources, targets, rates, exits, offsets):
        return sources[1:], targets[1:], rates[1:], exits, offsets[1:]

    _mutate_move_table(monkeypatch, drop)
    for g in (path_graph(4), complete_graph(5)):
        with pytest.raises(VerificationError, match="no reverse move"):
            build_sip_generator(g, 3)


def _assembly_levels():
    """Levels 1..4 of random graphs with n = 3..7 in both regimes, complete(6),
    a disconnected graph with an isolated vertex (its states with every
    particle there have no move at all) and the two degenerate graphs of
    the CLI tests; then path(40) at k=2, whose keys are Python integers."""
    rng = np.random.default_rng(17)
    graphs = [random_connected_graph(n, rng, alpha_range=alpha_range)
              for n in range(3, 8) for alpha_range in [(0.3, 0.9), (1.0, 2.5)]]
    split = np.zeros((5, 5))
    split[:3, :3] = 1.0 - np.eye(3)
    split[2, 3] = split[3, 2] = 0.7
    graphs += [complete_graph(6), Graph(5, split, np.linspace(0.4, 1.6, 5))]
    graphs += [graph_from_dict(data) for data in DEGENERATE_GRAPHS.values()]
    for g in graphs:
        for k in range(1, 5):
            yield g, k
    yield path_graph(40), 2


def test_assembly_matches_the_scipy_reference(monkeypatch):
    """The move-table assembly gives the scipy.sparse arithmetic's generator and
    symmetric form bit for bit, passes the same defect and scale to
    `require_reversible`, and `_jumps` gives the same triplets in the same order."""
    passed = []

    def recorded(asym, scale):
        passed.append((float(asym), float(scale)))
        return require_reversible(asym, scale)

    for module in (siplab.sip, conftest):
        monkeypatch.setattr(module, "require_reversible", recorded)
    levels, moveless = list(_assembly_levels()), 0
    assert len(levels) >= 40
    for g, k in levels:
        want, got = reference_sip_generator(g, k), build_sip_generator(g, k)
        moveless += int(np.any(np.diff(got.matrix.indptr) == 0))
        for name in ("matrix", "symmetric"):
            a, b = getattr(want, name), getattr(got, name)
            for part in ("indptr", "indices", "data"):
                x, y = getattr(a, part), getattr(b, part)
                assert x.dtype == y.dtype and np.array_equal(x, y), (g.n, k, name, part)
        assert passed[-2] == passed[-1], (g.n, k)
        for x, y in zip(reference_jumps(g, want.space), siplab.sip._jumps(g, got.space)):
            assert x.dtype == y.dtype and np.array_equal(x, y), (g.n, k)
    # the isolated vertex holds every particle in one state, which has no move
    assert moveless > 0


def test_assembly_peak_memory_per_stored_entry():
    # tables of one cell per move and arrays of one entry per stored entry,
    # none over every (state, pair) cell: about 77 bytes a stored entry,
    # where the scipy.sparse assembly peaks at about 122
    g = complete_graph(7, np.linspace(0.3, 2.0, 7))
    tracemalloc.start()
    try:
        gen = build_sip_generator(g, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gen.space.size == 924
    assert peak < 100 * gen.matrix.nnz


def test_assembly_peak_memory_with_many_more_sites_than_particles(monkeypatch):
    """path(40) at k=2: 39 pairs of moves a state but about 5 moves, so a table
    over every (state, pair) cell would be mostly empty.  The peak is read from
    the level's law on, as the enumeration and the law peak first here.  About
    159 bytes a stored entry; the scipy.sparse assembly peaks at about 193, and
    dense (pair, state) tables of one to eight bytes a cell at about 499."""
    real = siplab.sip.sip_measure

    def measured(graph, space):
        mu = real(graph, space)
        tracemalloc.reset_peak()
        return mu

    monkeypatch.setattr(siplab.sip, "sip_measure", measured)
    tracemalloc.start()
    try:
        gen = build_sip_generator(path_graph(40), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gen.space.size == 820 and gen.matrix.nnz == 3940
    assert peak < 175 * gen.matrix.nnz


def test_sparse_gap_checks_eigenpair_residual(monkeypatch):
    real = scipy.sparse.linalg.eigsh

    def perturbed(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        return vals * (1 + 1e-4), vecs

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", perturbed)
    with pytest.raises(EigensolverError):
        sip_gap(build_sip_generator(path_graph(4), 12))


def test_sparse_gap_when_keys_overflow_int64():
    # 3^40 > 2^63, so the level-2 ranks fall back to Python-integer keys;
    # unit site weights put the gap in the equality regime
    g = path_graph(40)
    assert space_size(40, 2) >= SPARSE_GAP_MIN_STATES
    assert sip_gap(build_sip_generator(g, 2)) == pytest.approx(g.walk_spectrum.gap, rel=1e-10)


def test_sparse_gap_disconnected_graph_is_zero():
    # two triangles: 462 states at k=6, past the dense fallback; every
    # split of the particles between the components is its own class
    tri = np.ones((3, 3)) - np.eye(3)
    g = Graph(6, scipy.linalg.block_diag(tri, tri), np.linspace(0.5, 2.0, 6))
    gen = build_sip_generator(g, 6)
    assert gen.space.size >= SPARSE_GAP_MIN_STATES
    gap = sip_gap(gen)
    assert gap == pytest.approx(0.0, abs=1e-10)
    assert gap == pytest.approx(dense_gap(g, 6), abs=1e-10)


def test_sparse_gap_indefinite_shift_is_an_eigensolver_error(monkeypatch):
    # a shift above the gap leaves sym - sigma I indefinite, so its
    # Cholesky factor fails; that must surface as a failed solve
    monkeypatch.setattr(siplab.sip, "GAP_SHIFT_FRACTION", -0.5)
    gen = build_sip_generator(path_graph(4), 12)
    assert gen.space.size >= SPARSE_GAP_MIN_STATES
    with pytest.raises(EigensolverError, match="not positive definite"):
        sip_gap(gen)


def test_sparse_gap_equals_walk_gap_on_a_long_path():
    # 3876 states, too many for the dense oracle; unit site weights put the
    # level in the equality regime, so the walk gap is the oracle
    g = path_graph(16)
    gen = build_sip_generator(g, 4)
    assert gen.space.size == 3876
    assert sip_gap(gen) == pytest.approx(g.walk_spectrum.gap, rel=1e-10)


def test_sparse_gap_factors_the_band_in_place(monkeypatch):
    # the band is the largest array; a copy of it (as LAPACK makes of a
    # C-ordered band) would push the peak past twice its size
    g = complete_graph(7)
    gen = build_sip_generator(g, 6)
    bands = []
    real = scipy.linalg.cholesky_banded

    def recorded(ab, **kwargs):
        bands.append(ab.shape)
        return real(ab, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", recorded)
    tracemalloc.start()
    try:
        gap = sip_gap(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gap == pytest.approx(g.alpha_total / 7, rel=1e-10)
    (rows, size), = bands
    assert size == gen.space.size == 924 and rows > size // 4
    assert peak < 1.5 * rows * size * 8


def test_dense_spectrum_peaks_near_two_copies_of_the_level():
    # a dense copy of the symmetric form and the solver's own: no dense
    # generator and no dense re-symmetrization beside them
    g = complete_graph(7)
    gen = build_sip_generator(g, 6)
    size = gen.space.size
    assert size == 924
    tracemalloc.start()
    try:
        spec = sip_spectrum(gen, want_vectors=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.gap == pytest.approx(g.alpha_total / 7, rel=1e-10)
    assert peak < 3 * size * size * 8


@pytest.mark.parametrize("alpha_range", [(0.3, 3.0), (1.0, 3.0)])
def test_gap_verdicts_invariant_under_time_rescaling(alpha_range):
    """c -> lam c multiplies every gap by lam; verdicts and ratios must not move.
    K=6 on 6 vertices takes levels 2-5 through the dense solve and level 6
    (462 states) through the sparse one."""
    rng = np.random.default_rng(33)
    for _ in range(3):
        g = random_connected_graph(6, rng, alpha_range=alpha_range)
        base = gap_sandwich_report(Level(g, 6))
        base_bep = bep_gap_report(Level(g, 3))
        assert base.passed and base_bep.passed
        for lam in (1e-6, 1.0, 1e3, 1e5, 1e7):
            scaled = Graph(g.n, g.edge_weights * lam, g.site_weights)
            report = gap_sandwich_report(Level(scaled, 6))
            assert report.passed, report.failures
            assert report.tolerance == pytest.approx(lam * base.tolerance, rel=1e-9)
            for k, ratio in base.ratios.items():
                assert report.ratios[k] == pytest.approx(ratio, rel=1e-9)
            bep = bep_gap_report(Level(scaled, 3))
            assert [c.passed for c in bep.checks] == [c.passed for c in base_bep.checks]
