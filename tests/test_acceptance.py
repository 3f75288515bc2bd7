"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them inline).
The random sweeps are seeded so the suite is deterministic.
"""

import time

import numpy as np

from conftest import assert_dichotomy_matches_dense, hausdorff_gap, project_to_kernel
from siplab.bep import bep_gap_report, bep_matrix
from siplab.graphs import complete_graph, path_graph, random_connected_graph
from siplab.intertwiners import (Level, check_adjoint, check_intertwinings,
                                 dirichlet_decomposition_check, eigen_dichotomy, ladder_covered,
                                 minmax_comparison_check)
from siplab.lookdown import check_labeled_identities, check_stationary_law
from siplab.reporting import gap_tolerance
from siplab.sip import build_sip_generator, sip_gap, sip_spectrum, tv_sandwich
from siplab.simulate import (SimConfig, projection_test, relaxation_estimate,
                             stationary_chi_square)


def _report(num, name, ok):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_complete_graph_spectrum():
    ok = False
    started = time.time()
    try:
        rng = np.random.default_rng(101)
        for n in (3, 4, 5):
            alpha = rng.uniform(0.3, 3.0, size=n)
            g = complete_graph(n, alpha)
            total = g.alpha_total
            for k in range(1, 6):
                vals = sip_spectrum(build_sip_generator(g, k),
                                    want_vectors=False).eigenvalues
                expected = [l * (total + l - 1) / n for l in range(k + 1)]
                assert hausdorff_gap(vals, expected) <= 1e-8, (n, k)
        elapsed = time.time() - started
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
        ok = True
    finally:
        _report(1, "complete-graph spectrum set formula", ok)


def test_criterion_2_gap_sandwich_random_graphs():
    ok = False
    started = time.time()
    try:
        rng = np.random.default_rng(202)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            g = random_connected_graph(n, rng, alpha_range=(0.1, 3.0))
            gap_walk = g.walk_spectrum.gap
            floor = min(1.0, g.alpha_min) * gap_walk
            for k in range(2, 6):
                gap_k = sip_gap(build_sip_generator(g, k))
                assert floor - 1e-8 <= gap_k <= gap_walk + 1e-8, (n, k)
        elapsed = time.time() - started
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
        ok = True
    finally:
        _report(2, "two-sided gap sandwich on 50 random graphs", ok)


def test_criterion_3_gap_equality_log_concave_regime():
    ok = False
    try:
        rng = np.random.default_rng(303)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            g = random_connected_graph(n, rng, alpha_range=(1.0, 3.0))
            gap_walk = g.walk_spectrum.gap
            for k in range(2, 6):
                assert abs(sip_gap(build_sip_generator(g, k)) - gap_walk) <= 1e-8, (n, k)
            report = bep_gap_report(Level(g, 4))
            assert abs(report.gap_bep - gap_walk) <= 1e-8, n
        ok = True
    finally:
        _report(3, "gap equality for site weights >= 1 (particles and diffusion)", ok)


def test_criterion_4_identity_suite():
    ok = False
    try:
        rng = np.random.default_rng(404)
        kernel_budget = 100
        combos = [(n, k) for n in (2, 3, 4) for k in (2, 3, 4)]
        per_combo = -(-kernel_budget // len(combos))
        for n, k in combos:
            g = random_connected_graph(n, rng, alpha_range=(0.3, 2.5))
            level = Level(g, k)
            assert check_adjoint(level).passed
            for check in check_intertwinings(level):
                assert check.passed, check
            dichotomy = eigen_dichotomy(level)
            assert dichotomy.passed
            assert_dichotomy_matches_dense(level)
            for _ in range(per_combo):
                f = project_to_kernel(level, rng.standard_normal(level.space.size))
                result = dirichlet_decomposition_check(level, f)
                assert result.passed, result.checks
            assert minmax_comparison_check(level).passed
        ok = True
    finally:
        _report(4, "intertwining / adjoint / decomposition / comparison suite", ok)


def test_criterion_5_labeled_suite():
    ok = False
    try:
        rng = np.random.default_rng(505)
        for n in (2, 3):
            g = random_connected_graph(n, rng, alpha_range=(0.4, 2.0))
            for k in (2, 3):
                level = Level(g, k)
                for check in check_labeled_identities(level):
                    assert check.passed, check
                law = check_stationary_law(level)
                assert law.passed, [c for c in law.checks if not c.passed]
                assert law.nonreversibility_witness is not None
        ok = True
    finally:
        _report(5, "labeled (lookdown) identity and stationarity suite", ok)


def test_criterion_6_diffusion_matrix_equality():
    ok = False
    try:
        rng = np.random.default_rng(606)
        for n in (2, 3, 4):
            g = random_connected_graph(n, rng, alpha_range=(0.3, 2.5))
            for k in (2, 3, 4):
                built = bep_matrix(Level(g, k))
                assert built.check.passed, built.check
        ok = True
    finally:
        _report(6, "symbolic diffusion matrix equals particle generator", ok)


def test_criterion_7_tv_sandwich():
    ok = False
    try:
        g = path_graph(2)
        for k in (1, 2, 3):
            table = tv_sandwich(build_sip_generator(g, k), [0.1, 0.5, 1.0, 2.0])
            assert table.passed
        ok = True
    finally:
        _report(7, "total-variation sandwich from the exact semigroup", ok)


def test_criterion_8_monte_carlo():
    ok = False
    started = time.time()
    try:
        g = path_graph(2, alpha=[2.0, 1.0])
        st1 = stationary_chi_square(SimConfig(g, 1, "sip", 2.0, 100_000, 81, (2.0,)))
        assert st1.passed, st1.p_values
        g11 = path_graph(2)
        st2 = stationary_chi_square(SimConfig(g11, 2, "sip", 1.0, 30_000, 82, (0.5, 1.0)))
        assert st2.passed, st2.p_values
        st3 = stationary_chi_square(SimConfig(g11, 2, "lookdown", 1.0, 30_000, 83, (1.0,)))
        assert st3.passed, st3.p_values
        proj = projection_test(SimConfig(g11, 2, "lookdown", 0.5, 100_000, 84,
                                         (0.0, 0.25, 0.5)), initial_config=(2, 0))
        assert proj.min_p > 1e-4, proj.p_values
        fit = relaxation_estimate(SimConfig(g11, 2, "sip", 1.0, 100_000, 85,
                                            (0.0, 0.25, 0.5, 0.75, 1.0)))
        assert fit.conclusive
        assert abs(fit.rate - fit.reference_gap) <= 0.1 * fit.reference_gap
        elapsed = time.time() - started
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min"
        ok = True
    finally:
        _report(8, "Monte Carlo stationarity, projection, and relaxation", ok)


def test_every_gap_the_ladder_covers_is_the_walk_gap():
    """150 random graphs, n = 3..6, 30 with site weights U(lo, 3 lo) for each lo:
    every level k = 2..5 that `ladder_covered` takes has its solved gap within
    gap_tolerance of gap_rw; the certificate misses some levels at lo = 0.01 and
    0.05, and none from lo = 0.2 on."""
    rng = np.random.default_rng(11)
    misses = {}
    for lo in (0.01, 0.05, 0.2, 0.5, 1.0):
        for i in range(30):
            graph = random_connected_graph(3 + i % 4, rng, alpha_range=(lo, 3 * lo))
            levels = Level(graph, 5).down_to(0)
            covered = ladder_covered(graph, range(2, 6), lambda k: levels[k].lower.space)
            for k in covered:
                assert abs(levels[k].gap - graph.walk_spectrum.gap) <= gap_tolerance(graph), k
            misses[lo] = misses.get(lo, 0) + 4 - len(covered)
    assert misses[0.01] > 0 and misses[0.05] > 0
    assert misses[0.2] == misses[0.5] == misses[1.0] == 0
