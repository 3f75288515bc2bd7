import collections
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import siplab.cli
import siplab.configs
import siplab.graphs
import siplab.intertwiners
import siplab.lookdown
import siplab.sip
from conftest import DEGENERATE_GRAPHS, unreaped
from siplab.cli import main
from siplab.configs import space_size
from siplab.errors import EigensolverError
from siplab.graphs import graph_from_preset, random_connected_graph
from siplab.reporting import GAP_RTOL, gap_tolerance
from siplab.simulate import SimConfig, simulate

EXPECTED_CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "expected_checks.json"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def test_spectrum_complete_graph(capsys):
    code, out, _ = run(["spectrum", "complete(3)", "--k", "2"], capsys)
    assert code == 0
    assert out.startswith("# manifest {")  # every output embeds its manifest
    header, rows = read_csv(out)
    assert header == ["k", "index", "eigenvalue"]
    values_k2 = sorted(float(r[2]) for r in rows if r[0] == "2")
    distinct = sorted(set(round(v, 8) for v in values_k2))
    assert distinct == pytest.approx([0.0, 1.0, 8.0 / 3.0], abs=1e-8)


def test_spectrum_single_particle(capsys):
    code, out, _ = run(["spectrum", "path(2)", "--k", "1"], capsys)
    assert code == 0
    _, rows = read_csv(out)
    values = sorted(float(r[2]) for r in rows)
    assert values == pytest.approx([0.0, 2.0], abs=1e-10)


def test_spectrum_malformed_graph_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["spectrum", str(bad), "--k", "1"], capsys)
    assert code == 2
    assert "malformed" in err or "input error" in err


def test_a_graph_argument_naming_a_directory_is_an_input_error(tmp_path, capsys):
    code, _, err = run(["verify", str(tmp_path), "--K", "2"], capsys)
    assert code == 2
    assert f"cannot read graph file {tmp_path}" in err


@pytest.mark.parametrize("argv", [["verify", "path(3)", "--K", "2", "--suite", "sip", "--json"],
                                  ["spectrum", "path(3)", "--k", "2", "--csv"],
                                  ["spectrum", "path(3)", "--k", "2", "--json"]])
def test_an_unwritable_output_path_is_an_input_error(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "out"
    code, _, err = run(argv + [str(target)], capsys)
    assert code == 2
    assert f"cannot write {target}" in err


@pytest.mark.parametrize("weight", ["Infinity", "NaN"])
def test_verify_refuses_a_non_finite_edge_weight(weight, tmp_path, capsys):
    graph = tmp_path / "weights.json"
    graph.write_text(f'{{"n": 3, "edges": [[0, 1, {weight}], [1, 2, 1]], "alpha": [1, 1, 1]}}')
    code, _, err = run(["verify", str(graph), "--K", "2", "--suite", "sip"], capsys)
    assert code == 2
    assert "edge_weights must be nonnegative and finite" in err


@pytest.mark.parametrize("graph", [
    {"n": 3, "edges": [[0, 1, "x"], [1, 2, 1]], "alpha": [1, 1, 1]},
    {"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "alpha": [1, "a", 1]},
    {"n": 3, "edges": [[0, 1, 1], 5], "alpha": [1, 1, 1]},
    {"n": 3, "edges": [[0, 1.5, 1], [1, 2, 1]], "alpha": [1, 1, 1]},
], ids=["edge-weight", "site-weight", "edge-entry", "vertex-index"])
def test_graph_file_refuses_a_bad_field(graph, tmp_path, capsys):
    # each once ended in a traceback, or read vertex 1.5 as vertex 1
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, out, err = run(["spectrum", str(path), "--k", "1"], capsys)
    assert code == 2 and out == "" and err.startswith("siplab: input error")


@pytest.mark.parametrize("graph", ["path(1000000000)", "complete(1000000000)", "file"])
def test_a_graph_over_the_state_cap_is_refused_before_its_weights(graph, tmp_path, capsys):
    # level 1 has n states, so the cap refuses the graph before its n x n weights exist
    if graph == "file":
        graph = str(tmp_path / "graph.json")
        Path(graph).write_text(json.dumps({"n": 1e9, "edges": [[0, 1, 1]], "alpha": [1, 1]}))
    code, out, err = run(["spectrum", graph, "--k", "2"], capsys)
    assert code == 3 and out == "" and err.startswith("siplab: state cap")


def test_spectrum_state_cap_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIPLAB_STATE_CAP", "10")
    code, _, err = run(["spectrum", "complete(4)", "--k", "5"], capsys)
    assert code == 3


def test_verify_all_pass_unit_alpha(tmp_path, capsys):
    out_file = tmp_path / "verify.json"
    code, _, _ = run(["verify", "complete(4)", "--K", "4",
                      "--json", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["pass"] is True
    assert report["gap_report"]["equality_check"] == "applies"
    assert set(report["suites"]) == {"sip", "lookdown", "bep"}


def test_verify_small_alpha_marks_equality_not_applicable(tmp_path, capsys):
    out_file = tmp_path / "verify.json"
    code, _, _ = run(["verify", "path(3)", "--alpha", "0.5,0.5,0.5",
                      "--K", "4", "--suite", "sip", "--json", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["pass"] is True
    assert report["gap_report"]["equality_check"] == "not-applicable"


def _five_vertex_graph(tmp_path, alpha):
    """A 5-cycle with one chord, the topology of the benchmark's labeled runs."""
    edges = [[0, 1, 0.7], [1, 2, 1.3], [2, 3, 0.9], [3, 4, 1.6], [4, 0, 0.5], [0, 2, 1.1]]
    path = tmp_path / "g5.json"
    path.write_text(json.dumps({"n": 5, "edges": edges, "alpha": alpha}))
    return str(path)


@pytest.mark.parametrize("regime, alpha", [("general", [0.3, 0.8, 1.7, 0.5, 2.2]),
                                           ("equality", [1.0, 2.4, 1.3, 2.9, 1.6])])
def test_lookdown_suite_keeps_the_recorded_identities(regime, alpha, tmp_path, capsys):
    _assert_recorded_identities(_five_vertex_graph(tmp_path, alpha), "lookdown", 4, regime,
                                capsys)


def _assert_recorded_identities(path, suite, K, regime, capsys):
    """Each identity the benchmark's gate lists for `suite` at `K` appears at
    least as often as listed, and passes."""
    expected = json.loads(EXPECTED_CHECKS.read_text())[f"{suite}_K{K}"][regime]
    code, out, _ = run(["verify", path, "--K", str(K), "--suite", suite], capsys)
    assert code == 0
    checks = json.loads(out)["suites"][suite]["checks"]
    seen = collections.Counter(c["identity"] for c in checks)
    for identity, count in expected.items():
        assert seen[identity] >= count, identity
    assert all(c["pass"] for c in checks if c["identity"] in expected)


def _six_vertex_graph(tmp_path, alpha):
    """A 6-cycle with chords (0, 3) and (1, 4), the topology of the benchmark's
    identity and diffusion runs."""
    edges = [[0, 1, 0.8], [1, 2, 1.4], [2, 3, 0.6], [3, 4, 1.9], [4, 5, 1.1], [5, 0, 0.7],
             [0, 3, 1.2], [1, 4, 0.9]]
    path = tmp_path / "g6.json"
    path.write_text(json.dumps({"n": 6, "edges": edges, "alpha": alpha}))
    return str(path)


@pytest.mark.parametrize("suite", ["sip", "bep"])
@pytest.mark.parametrize("regime, alpha", [("general", [0.4, 1.3, 0.7, 2.1, 0.9, 1.6]),
                                           ("equality", [1.2, 2.6, 1.0, 1.8, 2.3, 1.4])])
def test_identity_and_diffusion_suites_keep_the_recorded_identities(suite, regime, alpha,
                                                                     tmp_path, capsys):
    _assert_recorded_identities(_six_vertex_graph(tmp_path, alpha), suite, 5, regime, capsys)


def test_each_labeled_level_is_built_once_per_run(tmp_path, capsys, monkeypatch):
    original = siplab.lookdown.build_labeled_generators
    counts = collections.Counter()

    def counted(graph, k, *args, **kwargs):
        counts[k] += 1
        return original(graph, k, *args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("siplab") and getattr(module, "build_labeled_generators",
                                                        None) is original:
            monkeypatch.setattr(module, "build_labeled_generators", counted)
    code, _, _ = run(["verify", _five_vertex_graph(tmp_path, [1.0] * 5), "--K", "4",
                      "--suite", "lookdown"], capsys)
    assert code == 0
    assert counts == {1: 1, 2: 1, 3: 1, 4: 1}


def test_verify_lookdown_suite_cycle(tmp_path, capsys):
    out_file = tmp_path / "verify.json"
    code, _, _ = run(["verify", "cycle(3)", "--K", "3", "--suite", "lookdown",
                      "--json", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["suites"]["lookdown"]["pass"] is True


def _strict_json(text):
    """Parse JSON, refusing the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_disconnected_graph_fails_verify_and_report(tmp_path, capsys):
    graph = tmp_path / "split.json"
    graph.write_text(json.dumps({"n": 4, "edges": [[0, 1, 1], [2, 3, 1]],
                                 "alpha": [1, 1, 1, 1]}))
    for argv in (["verify", str(graph), "--K", "3", "--suite", "sip"],
                 ["verify", str(graph), "--K", "3", "--suite", "bep"],
                 ["verify", str(graph), "--K", "3"],
                 ["report", str(graph), "--K", "3"]):
        code, out, _ = run(argv, capsys)
        assert code == 1, argv
        report = _strict_json(out)
        assert report["pass"] is False
        if "gap_report" in report:
            gaps = report["gap_report"]
            assert gaps["ratio_k"] == {"2": None, "3": None}
            assert any("disconnected (2 components)" in f for f in gaps["failures"])
        if "bep_report" in report:
            failing = [c for c in report["suites"]["bep"]["checks"] if not c["pass"]]
            assert [c["identity"] for c in failing] == ["graph-connected[K=3]"]
    # the labeled identities hold on any graph
    code, out, _ = run(["verify", str(graph), "--K", "3", "--suite", "lookdown"], capsys)
    assert code == 0 and _strict_json(out)["pass"] is True


def test_lookdown_suite_names_skipped_levels(capsys):
    # 9^3 = 729 labeled states fit the cap of 4096, 9^4 = 6561 do not
    code, out, _ = run(["verify", "path(9)", "--K", "4", "--suite", "lookdown"], capsys)
    assert code == 0
    note = json.loads(out)["suites"]["lookdown"]["note"]
    assert note.endswith("; level k=4 skipped: 9^4 = 6561 labeled states exceed the cap 4096")
    code, out, _ = run(["verify", "path(9)", "--K", "1000000000", "--suite", "lookdown"],
                       capsys)
    assert code == 0
    note = json.loads(out)["suites"]["lookdown"]["note"]
    assert note.endswith("; levels k=4..1000000000 skipped: 9^4 = 6561 labeled states "
                         "and more exceed the cap 4096")
    checks = json.loads(out)["suites"]["lookdown"]["checks"]
    assert {c["identity"].split("[")[1] for c in checks} == {"k=2]", "k=3]"}


def test_levels_beyond_the_state_cap_are_refused(capsys, monkeypatch):
    monkeypatch.setenv("SIPLAB_STATE_CAP", "50")
    for suite in ("sip", "bep", "all"):
        code, _, err = run(["verify", "path(3)", "--K", "2000", "--suite", suite], capsys)
        assert code == 3, (suite, err)
    code, _, _ = run(["verify", "path(3)", "--K", "1000000000", "--suite", "bep"], capsys)
    assert code == 3
    code, _, _ = run(["verify", "path(3)", "--K", "0", "--suite", "bep"], capsys)
    assert code == 2


@pytest.mark.parametrize("k", [-1, 0, 1])
@pytest.mark.parametrize("command", ["sip", "lookdown", "bep", "all", "report"])
def test_small_and_negative_k_are_refused_in_every_suite(command, k, capsys):
    # the diffusion truncated at degree 1 is the walk; every other suite needs K >= 2
    argv = ["report"] if command == "report" else ["verify", "--suite", command]
    code, _, err = run([argv[0], "path(3)", "--K", str(k), *argv[1:]], capsys)
    assert code == (0 if (command, k) == ("bep", 1) else 2), err


def _count_level_builds(monkeypatch):
    """Wrap the level builders in every siplab module that binds them and
    count their calls by level k."""
    levels = {"enumerate_configs": (siplab.configs, lambda n, k: k),
              "build_sip_generator": (siplab.intertwiners, lambda graph, k: k),
              "_move_table": (siplab.sip, lambda graph, space: space.k),
              "peeling_block": (siplab.intertwiners, lambda level: level.k),
              "fresh_basis": (siplab.intertwiners, lambda level: level.k),
              "build_shifted_walks": (siplab.intertwiners, lambda graph, space: space.k + 1),
              "sip_gap": (siplab.sip, lambda gen: gen.space.k),
              "sip_spectrum": (siplab.sip, lambda gen, want_vectors=True: gen.space.k),
              # on path(3), 3^k labeled states
              "symmetrizer": (siplab.lookdown, lambda unlabel, average: round(
                  math.log(unlabel.size, 3)))}
    counts = {name: collections.Counter() for name in levels}
    for name, (home, level_of) in levels.items():
        original = getattr(home, name)

        def counted(*args, _name=name, _level_of=level_of, _original=original, **kwargs):
            counts[_name][_level_of(*args, **kwargs)] += 1
            return _original(*args, **kwargs)

        _rebind(monkeypatch, name, original, counted)
    return counts


def _count_removal_products(monkeypatch, graph, ks):
    """Count by level k the products A_k L_{k-1} and L_k A_k formed with a CSR
    factor, each factor told by its pattern: A_k's, raw, balanced or dense, and
    the generator's, raw, symmetric or dense."""
    def pattern(m):
        return (m.toarray() if scipy.sparse.issparse(m) else np.asarray(m)) != 0

    gens = {k: pattern(siplab.sip.build_sip_generator(graph, k).matrix)
            for k in range(min(ks) - 1, max(ks) + 1)}
    anns = {k: pattern(siplab.intertwiners.build_annihilation(
        siplab.configs.enumerate_configs(graph.n, k - 1),
        siplab.configs.enumerate_configs(graph.n, k))) for k in ks}
    counts = collections.Counter()

    def tally(left, right):
        for k, ann in anns.items():
            for side, factors in (("A L", (ann, gens[k - 1])), ("L A", (gens[k], ann))):
                if all(np.shape(m) == p.shape and np.array_equal(pattern(m), p)
                       for m, p in zip((left, right), factors)):
                    counts[k, side] += 1

    for name, order in (("__matmul__", 1), ("__rmatmul__", -1)):
        original = getattr(scipy.sparse.csr_array, name)

        def counted(self, other, _original=original, _order=order):
            tally(*(self, other)[::_order])
            return _original(self, other)

        monkeypatch.setattr(scipy.sparse.csr_array, name, counted)
    return counts


def _rebind(monkeypatch, name, original, wrapper):
    """Bind `wrapper` in place of `original` in every siplab module that holds it."""
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("siplab") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("argv", [["verify", "path(3)", "--K", "4", "--suite", "all"],
                                  ["report", "path(3)", "--K", "4"]])
def test_each_level_is_built_once_per_run(argv, capsys, monkeypatch):
    products = _count_removal_products(monkeypatch, graph_from_preset("path(3)"), (2, 3, 4))
    counts = _count_level_builds(monkeypatch)
    code, _, _ = run(argv, capsys)
    assert code == 0
    # the removal check, the dichotomy and the labeled chain read one pair per level
    assert products == {(k, side): 1 for k in (2, 3, 4) for side in ("A L", "L A")}
    # and the labeled chain reads one pair of symmetrizer factors per level
    assert counts["symmetrizer"] == {1: 1, 2: 1, 3: 1, 4: 1}
    assert counts["build_sip_generator"] == {1: 1, 2: 1, 3: 1, 4: 1}
    # the gap report reads the shared generators: no level's moves are tabled twice
    assert counts["_move_table"] == {1: 1, 2: 1, 3: 1, 4: 1}
    assert counts["peeling_block"] == counts["fresh_basis"] == {2: 1, 3: 1, 4: 1}
    assert counts["build_shifted_walks"] == {2: 1, 3: 1, 4: 1}
    # the gap report and the diffusion report read each level's gap once
    assert counts["sip_gap"] == {1: 1, 2: 1, 3: 1, 4: 1}


def test_each_configuration_space_is_enumerated_once(capsys, monkeypatch):
    """The removal and addition operators read the spaces of their two levels;
    level 0 is never needed."""
    counts = _count_level_builds(monkeypatch)
    code, _, _ = run(["verify", "path(3)", "--K", "5", "--suite", "all"], capsys)
    assert code == 0
    assert counts["enumerate_configs"] == {k: 1 for k in range(1, 6)}


@pytest.mark.parametrize("name", sorted(DEGENERATE_GRAPHS))
def test_degenerate_weights_pass_every_check(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DEGENERATE_GRAPHS[name]))
    code, out, _ = run(["verify", str(path), "--K", "5"], capsys)
    payload = json.loads(out)
    failed = [c["identity"] for suite in payload["suites"].values()
              for c in suite["checks"] if not c["pass"]]
    assert failed == [] and code == 0
    assert payload["gap_report"]["pass"] and payload["bep_report"]["pass"]


def test_the_walk_is_built_and_solved_once_per_run(capsys, monkeypatch):
    """The gap report, the comparison check at each level, the diffusion
    report and the bottom-particle check at each labeled level read the walk
    and its spectrum from the graph."""
    counts = collections.Counter()
    for name in ("build_rw_generator", "rw_spectrum"):
        original = getattr(siplab.graphs, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        _rebind(monkeypatch, name, original, counted)
    code, _, _ = run(["verify", "cycle(6)", "--K", "5"], capsys)
    assert code == 0
    assert counts == {"build_rw_generator": 1, "rw_spectrum": 1}


@pytest.mark.parametrize("argv", [["report", "cycle(6)", "--K", "5"],
                                  ["spectrum", "cycle(5)", "--k", "3"],
                                  ["sweep", "SPEC", "--jobs", "1"]],
                         ids=["report", "spectrum", "sweep"])
def test_each_graph_builds_and_solves_its_walk_once(argv, tmp_path, capsys, monkeypatch):
    """One walk build and one walk solve per graph, both kept on the graph: a
    sweep of two samples makes two of each, in the same order."""
    spec = _sweep_spec(tmp_path / "sweep.json", ["path(4)"], 3, 1, n_samples=2)
    calls = {"build_rw_generator": [], "rw_spectrum": []}
    for name, graph_of in (("build_rw_generator", lambda graph: graph),
                           ("rw_spectrum", lambda walk: walk.graph)):
        original = getattr(siplab.graphs, name)

        def counted(arg, *args, _name=name, _original=original, _graph_of=graph_of, **kwargs):
            result = _original(arg, *args, **kwargs)
            calls[_name].append((_graph_of(arg), result))
            return result

        _rebind(monkeypatch, name, original, counted)
    code, _, _ = run([spec if a == "SPEC" else a for a in argv], capsys)
    assert code == 0
    builds, solves = calls["build_rw_generator"], calls["rw_spectrum"]
    graphs = 2 if argv[0] == "sweep" else 1
    assert len({id(graph) for graph, _ in builds}) == len(builds) == graphs
    assert [id(graph) for graph, _ in solves] == [id(graph) for graph, _ in builds]
    assert all(graph.walk is walk for graph, walk in builds)
    assert all(graph.walk_spectrum is spectrum for graph, spectrum in solves)


def test_the_diffusion_suite_solves_no_spectrum_above_level_one(capsys, monkeypatch):
    counts = _count_level_builds(monkeypatch)
    code, _, _ = run(["verify", "path(3)", "--K", "4", "--suite", "bep"], capsys)
    assert code == 0
    assert counts["sip_spectrum"] == {1: 1}
    assert counts["sip_gap"] == {1: 1, 2: 1, 3: 1, 4: 1}


def test_the_identity_suite_solves_no_level_spectrum_and_no_qr(capsys, monkeypatch):
    """The dichotomy checks the split with no eigensolve, and every check reads
    the span of the fresh basis, which is not orthogonalized."""
    counts = _count_level_builds(monkeypatch)
    modes, qr = [], scipy.linalg.qr

    def recorded(*args, mode="full", **kwargs):
        modes.append(mode)
        return qr(*args, mode=mode, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", recorded)
    code, out, _ = run(["verify", "cycle(5)", "--K", "5", "--suite", "sip"], capsys)
    assert code == 0 and json.loads(out)["pass"]
    assert counts["sip_spectrum"] == {}
    assert modes == []


def test_each_level_is_symmetrized_and_checked_once(capsys, monkeypatch):
    """The reversibility check runs once per level, inside the assembly that
    builds the symmetric form; sip_gap and sip_spectrum read that form and
    neither symmetrize nor check it again."""
    stack, entered, checks = [], collections.Counter(), []
    for name, level_of in (("build_sip_generator", lambda graph, k: k),
                           ("sip_gap", lambda gen: gen.space.k),
                           ("sip_spectrum", lambda gen, want_vectors=True: gen.space.k)):
        original = getattr(siplab.sip, name)

        def inside(*args, _name=name, _level_of=level_of, _original=original, **kwargs):
            stack.append((_name, _level_of(*args, **kwargs)))
            entered[stack[-1]] += 1
            try:
                return _original(*args, **kwargs)
            finally:
                stack.pop()

        _rebind(monkeypatch, name, original, inside)
    for name in ("symmetrize_reversible", "require_reversible"):
        original = getattr(siplab.graphs, name)

        def recorded(*args, _name=name, _original=original, **kwargs):
            checks.append((_name, stack[-1] if stack else None))
            return _original(*args, **kwargs)

        _rebind(monkeypatch, name, original, recorded)
    code, _, _ = run(["verify", "path(3)", "--K", "5", "--suite", "all"], capsys)
    assert code == 0
    levels = range(1, 6)
    assert {k for name, k in entered if name == "build_sip_generator"} == set(levels)
    assert {k for name, k in entered if name == "sip_gap"} == set(levels)
    # the dichotomy solves no spectrum; the diffusion report's walk-gap check reads level 1's
    assert {k for name, k in entered if name == "sip_spectrum"} == {1}
    assert set(entered.values()) == {1}
    # the walks' own checks run outside every level function
    assert sorted(where for _, where in checks if where is not None) == [
        ("build_sip_generator", k) for k in levels]
    assert {name for name, where in checks if where is not None} == {"require_reversible"}


def _write_graph(path, weights, alpha):
    n = len(alpha)
    edges = [[x, y, weights[x, y]] for x in range(n) for y in range(x + 1, n) if weights[x, y] > 0]
    path.write_text(json.dumps({"n": n, "edges": edges, "alpha": list(alpha)}))
    return str(path)


def _verdicts(payload):
    """Every pass/fail of a verify payload, by suite and identity."""
    verdicts = {"pass": payload["pass"], "gap_report": payload["gap_report"]["pass"],
                "equality": payload["gap_report"]["equality_check"]}
    for name, suite in payload["suites"].items():
        verdicts[name] = (suite["pass"], [(c["identity"], c["pass"]) for c in suite["checks"]])
    return verdicts


@pytest.mark.parametrize("alpha_range", [(0.3, 0.9), (1.0, 2.5)], ids=["general", "equality"])
def test_verdicts_invariant_under_relabeling_vertices(alpha_range, tmp_path, capsys):
    """verify --suite all and report: same exit code and verdicts, and every
    gap and ratio within the report's tolerance."""
    rng = np.random.default_rng(61)
    for i, n in enumerate((3, 4, 5)):
        g = random_connected_graph(n, rng, alpha_range=alpha_range)
        paths = [_write_graph(tmp_path / f"g{i}_{j}.json", g.edge_weights[np.ix_(perm, perm)],
                              g.site_weights[perm].tolist())
                 for j, perm in enumerate((np.arange(n), rng.permutation(n)))]
        for command, options in (("verify", ["--suite", "all"]), ("report", [])):
            payloads = []
            for path in paths:
                code, out, _ = run([command, path, "--K", "4", *options], capsys)
                payloads.append((code, json.loads(out)))
            (code, base), (code_perm, permuted) = payloads
            assert code == code_perm and _verdicts(base) == _verdicts(permuted), (n, command)
            report, report_perm = base["gap_report"], permuted["gap_report"]
            for k, gap in report["gap_k"].items():
                assert abs(report_perm["gap_k"][k] - gap) <= report["tolerance"], (n, k)
                assert (abs(report_perm["ratio_k"][k] - report["ratio_k"][k])
                        <= report["relative_tolerance"]), (n, k)
            for k, gap in base["bep_report"]["level_gaps"].items():
                assert (abs(permuted["bep_report"]["level_gaps"][k] - gap)
                        <= report["tolerance"]), (n, k)


@pytest.mark.parametrize("alpha_range", [(0.3, 0.9), (1.0, 2.5)], ids=["general", "equality"])
def test_verdicts_invariant_under_rescaling_time(alpha_range, tmp_path, capsys):
    # c -> lambda c is a change of time scale: every rate and gap scales by lambda
    rng = np.random.default_rng(62)
    for n in (3, 4, 5):
        g = random_connected_graph(n, rng, alpha_range=alpha_range)
        payloads = {}
        for scale in (1.0, 1e-6, 1e-3, 1e3, 1e6):
            path = _write_graph(tmp_path / "g.json", scale * g.edge_weights,
                                g.site_weights.tolist())
            code, out, _ = run(["verify", path, "--K", "4", "--suite", "all"], capsys)
            payloads[scale] = (code, json.loads(out))
        code, base = payloads.pop(1.0)
        assert code == 0
        for scale, (code_scaled, scaled) in payloads.items():
            assert code_scaled == code and _verdicts(scaled) == _verdicts(base), (n, scale)
            tolerance = scaled["gap_report"]["tolerance"]
            for k, gap in base["gap_report"]["gap_k"].items():
                assert abs(scaled["gap_report"]["gap_k"][k] - scale * gap) <= tolerance, (n, k)


def test_sweep_ratios_within_sandwich(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "graphs": ["path(4)"],
        "alpha": {"n_samples": 4, "range": [0.1, 1.0]},
        "k_max": 5,
        "seed": 0,
    }))
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(["sweep", str(spec), "--csv", str(out_csv), "--jobs", "2"], capsys)
    assert code == 0
    header, rows = read_csv(out_csv.read_text())
    assert header == ["graph_id", "alpha_id", "k", "gap_k", "gap_rw", "ratio", "error"]
    assert len(rows) == 4 * 4  # four alpha draws, k = 2..5
    for row in rows:
        ratio = float(row[5])
        assert 0.1 - 1e-9 <= ratio <= 1.0 + 1e-9


def test_sweep_complete_graph_ratio_one(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "graphs": ["complete(3)"],
        "alpha": {"n_samples": 3, "range": [0.1, 3.0]},
        "k_max": 4,
        "seed": 5,
    }))
    code, out, _ = run(["sweep", str(spec)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    for row in rows:
        assert float(row[5]) == pytest.approx(1.0, abs=1e-9)


def test_sweep_empty_spec_is_input_error(tmp_path, capsys):
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"graphs": [], "alpha": {}, "k_max": 0}))
    code, _, _ = run(["sweep", str(spec)], capsys)
    assert code == 2


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_sweep_refuses_jobs_below_one(jobs, tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"graphs": ["path(3)"], "k_max": 2, "seed": 0,
                                "alpha": {"n_samples": 1, "range": [0.5, 2.0]}}))
    code, out, err = run(["sweep", str(spec), "--jobs", jobs], capsys)
    assert code == 2 and out == ""
    assert f"--jobs: must be an integer of at least 1, got {jobs!r}" in err


@pytest.mark.parametrize("argv", [["verify", "path(3)", "--K", "2"],
                                  ["report", "path(3)", "--K", "2"],
                                  ["simulate", "path(3)", "--k", "2", "--horizon", "1",
                                   "--paths", "10", "--times", "0,1"]],
                         ids=["verify", "report", "simulate"])
def test_a_negative_seed_is_refused(argv, capsys):
    code, out, err = run(argv + ["--seed", "-1"], capsys)
    assert code == 2 and out == ""
    assert "--seed: must be an integer of at least 0, got '-1'" in err


_GOOD_SWEEP = {"graphs": ["path(3)"], "alpha": {"n_samples": 1, "range": [0.5, 2.0]},
               "k_max": 3, "seed": 1}


@pytest.mark.parametrize("spec", [
    [_GOOD_SWEEP],
    {**_GOOD_SWEEP, "alpha": [1]},
    {**_GOOD_SWEEP, "alpha": {"n_samples": "x", "range": [0.5, 2.0]}},
    {**_GOOD_SWEEP, "alpha": {"n_samples": 2.7, "range": [0.5, 2.0]}},
    {**_GOOD_SWEEP, "alpha": {"n_samples": 1, "range": [1, "a"]}},
    {**_GOOD_SWEEP, "alpha": {"n_samples": 1, "range": [1, "inf"]}},
    {**_GOOD_SWEEP, "graphs": [3]},
    {**_GOOD_SWEEP, "seed": -1},
    {**_GOOD_SWEEP, "seed": 1.5},
    {**_GOOD_SWEEP, "Seed": 5},
    {**_GOOD_SWEEP, "alpha": {"n_samples": 1, "range": [0.5, 2.0], "rnage": [1, 2]}},
], ids=["list", "alpha-list", "n-samples-text", "n-samples-fraction", "range-text",
        "range-inf", "graph-number", "seed-negative", "seed-fraction", "unknown-key",
        "unknown-alpha-key"])
def test_sweep_refuses_a_malformed_spec(spec, tmp_path, capsys):
    # each once ended in a traceback, or truncated a fraction to an integer
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(["sweep", str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("siplab: input error")


@pytest.mark.parametrize("key, extra", [("'Seed'", {"Seed": 5}),
                                        ("'alpha.rnage'", {"alpha": {**_GOOD_SWEEP["alpha"],
                                                                     "rnage": [1, 2]}})])
def test_sweep_names_an_unknown_spec_key(key, extra, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({**_GOOD_SWEEP, **extra}))
    code, _, err = run(["sweep", str(path)], capsys)
    assert code == 2 and f"unknown key {key}" in err


def test_sweep_digests_the_spec_text_it_parsed(tmp_path, capsys, monkeypatch):
    """A spec rewritten after it was read does not reach the manifest: the
    digest is of the text swept."""
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(_GOOD_SWEEP))
    real_read = Path.read_text
    reads = []

    def read_text(self, *args, **kwargs):
        if self != path:
            return real_read(self, *args, **kwargs)
        reads.append(self)
        return real_read(self) if len(reads) == 1 else json.dumps({**_GOOD_SWEEP, "seed": 2})

    monkeypatch.setattr(Path, "read_text", read_text)
    code, out, _ = run(["sweep", str(path)], capsys)
    assert code == 0
    manifest = json.loads(out.splitlines()[0].removeprefix("# manifest "))
    assert manifest["input_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert manifest["master_seed"] == 1


def _sweep_spec(path, graphs, k_max, seed, n_samples=1):
    path.write_text(json.dumps({"graphs": graphs, "k_max": k_max, "seed": seed,
                                "alpha": {"n_samples": n_samples, "range": [0.5, 2.0]}}))
    return str(path)


GOOD_GRAPH = {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]], "alpha": [1.0, 1.0, 1.0]}
GOOD_SPEC = {"graphs": ["path(3)"], "k_max": 3, "seed": 1,
             "alpha": {"n_samples": 1, "range": [0.5, 2.0]}}
# each holds JSON true where one number belongs
GRAPH_BOOLEANS = {"n": {**GOOD_GRAPH, "n": True},
                  "vertex index": {**GOOD_GRAPH, "edges": [[True, 2, 1.0], [0, 1, 1.0]]},
                  "edge weight": {**GOOD_GRAPH, "edges": [[0, 1, True], [1, 2, 2.0]]},
                  "site weight": {**GOOD_GRAPH, "alpha": [True, 1.0, 1.0]}}
SPEC_BOOLEANS = {"k_max": {**GOOD_SPEC, "k_max": True},
                 "seed": {**GOOD_SPEC, "seed": True},
                 "alpha.n_samples": {**GOOD_SPEC,
                                     "alpha": {"n_samples": True, "range": [0.5, 2.0]}},
                 "alpha.range entry": {**GOOD_SPEC,
                                       "alpha": {"n_samples": 1, "range": [True, 2.0]}}}


@pytest.mark.parametrize("field", list(GRAPH_BOOLEANS))
def test_a_boolean_in_a_graph_file_is_refused(field, tmp_path, capsys):
    """JSON true is no number: read as 1 it would make edge (1, 2) of [true, 2]."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(GRAPH_BOOLEANS[field]))
    code, _, err = run(["spectrum", str(path), "--k", "2"], capsys)
    assert code == 2 and f"{field} must be a" in err and "True" in err, err


@pytest.mark.parametrize("field", list(SPEC_BOOLEANS))
def test_a_boolean_in_a_sweep_spec_is_refused(field, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SPEC_BOOLEANS[field]))
    code, _, err = run(["sweep", str(path), "--jobs", "1"], capsys)
    assert code == 2 and f"{field} must be a" in err and "True" in err, err


# 1e300 * alpha 1e10 overflows the walk's rates, and 1e308 * alpha in [1, 2]
# does on most draws; the sweep's single draw here does
OVERFLOWING_GRAPH = {"n": 3, "edges": [[0, 1, 1e300], [1, 2, 1.0]], "alpha": [1e10, 1.0, 2.0]}


@pytest.mark.parametrize("argv", [["spectrum", "G", "--k", "2"],
                                  ["verify", "G", "--K", "2", "--suite", "sip"]],
                         ids=["spectrum", "verify"])
def test_overflowing_rates_are_an_input_error(argv, tmp_path, capsys):
    path = tmp_path / "G.json"
    path.write_text(json.dumps(OVERFLOWING_GRAPH))
    code, out, err = run([str(path) if a == "G" else a for a in argv], capsys)
    assert code == 2 and out == "" and err.startswith("siplab: input error")
    assert "overflow" in err


def test_sweep_reports_overflowing_rates_in_a_row(tmp_path, capsys):
    graph = tmp_path / "G.json"
    graph.write_text(json.dumps({**OVERFLOWING_GRAPH, "edges": [[0, 1, 1e308], [1, 2, 1.0]]}))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"graphs": [str(graph)], "k_max": 3, "seed": 0,
                                "alpha": {"n_samples": 1, "range": [1, 2]}}))
    code, out, _ = run(["sweep", str(spec)], capsys)
    _, rows = read_csv(out)
    assert code == 1
    assert [row[2:6] for row in rows] == [["-1", "nan", "nan", "nan"]]
    assert "overflow" in rows[0][-1]


def test_a_walk_stack_that_overflows_covers_nothing(tmp_path, capsys):
    """Edge weight 1e308 with site weights below 1 keeps the walk finite, but
    the walks with site weights alpha + xi overflow: the recursion covers
    nothing, and level 2's own overflow ends the rows, with no warning."""
    graph = tmp_path / "G.json"
    graph.write_text(json.dumps({**OVERFLOWING_GRAPH, "edges": [[0, 1, 1e308], [1, 2, 1.0]]}))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"graphs": [str(graph)], "k_max": 3, "seed": 0,
                                "alpha": {"n_samples": 1, "range": [0.5, 0.9]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(["sweep", str(spec)], capsys)
    _, rows = read_csv(out)
    assert code == 1
    assert [row[2:] for row in rows] == [
        ["-1", "nan", "nan", "nan", "jump rates of level k=2 overflow to infinity"]]


# alpha 1e160 takes the law of level 3 below the least float on some states,
# and the labeled law of level 2 above the largest
FAR_ALPHA = ["path(3)", "--alpha", "1e160,1,1"]
SIMULATE = ["--horizon", "1", "--paths", "10", "--times", "0,1"]


@pytest.mark.parametrize("argv", [["verify", *FAR_ALPHA, "--K", "3", "--suite", "sip"],
                                  ["spectrum", *FAR_ALPHA, "--k", "3"],
                                  ["verify", *FAR_ALPHA, "--K", "2", "--suite", "lookdown"],
                                  ["simulate", *FAR_ALPHA, "--mode", "lookdown", "--k", "2",
                                   *SIMULATE]],
                         ids=["verify-sip", "spectrum", "verify-lookdown", "simulate-lookdown"])
def test_a_law_outside_float_range_is_an_input_error(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused by name, before any float warning
        code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and err.startswith("siplab: input error: the ")
    assert "law of level k=" in err


def test_the_particle_simulation_reads_only_the_rates_of_a_law_outside_float_range(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(["simulate", *FAR_ALPHA, "--mode", "sip", "--k", "3", *SIMULATE],
                           capsys)
    assert code == 0 and read_csv(out)[1]


@pytest.mark.parametrize("argv", [["verify", "path(3)", "--K", "3"],
                                  ["report", "path(3)", "--K", "3"],
                                  ["spectrum", "path(3)", "--k", "3"]],
                         ids=["verify", "report", "spectrum"])
def test_an_eigensolver_failure_is_a_verification_failure(argv, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise EigensolverError("gap eigensolve failed at k=3: injected")

    monkeypatch.setattr(siplab.intertwiners, "sip_gap", failing)
    monkeypatch.setattr(siplab.sip, "symmetric_spectrum", failing)
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "siplab: verification failure: gap eigensolve failed at k=3: injected\n"


def test_sweep_row_error_sets_exit_one(tmp_path, capsys, monkeypatch):
    """The rows of the level below the cap, then one -1 row; gap_k, gap_rw
    and ratio agree to 1e-12 relative, and every other field exactly."""
    monkeypatch.setenv("SIPLAB_STATE_CAP", "20")
    spec = _sweep_spec(tmp_path / "sweep.json", ["path(5)"], 4, 1)
    code, out, _ = run(["sweep", spec], capsys)
    assert code == 1
    _, rows = read_csv(out)
    _, expected = read_csv(
        "graph_id,alpha_id,k,gap_k,gap_rw,ratio,error\n"
        "path(5),0,2,0.21409082770481463,0.21409082770481452,1.0000000000000004,\n"
        "path(5),0,-1,nan,nan,nan,configuration space with n=5, k=3 has 35 states, "
        "exceeding the cap of 20\n")
    assert [row[:3] + row[6:] for row in rows] == [row[:3] + row[6:] for row in expected]
    for row, want in zip(rows, expected):
        assert [float(v) for v in row[3:6]] == pytest.approx(
            [float(v) for v in want[3:6]], rel=1e-12, nan_ok=True)


def _log_solves(monkeypatch, log: Path) -> None:
    """sip_gap logs "pid,n,k,states" to `log` before each solve, in
    whichever process solves the level: forked children inherit the patch,
    and each appended line is one write."""
    real = siplab.cli.sip_gap

    def logged(gen):
        with open(log, "a") as out:
            out.write(f"{os.getpid()},{gen.graph.n},{gen.space.k},{gen.space.size}\n")
        return real(gen)

    monkeypatch.setattr(siplab.cli, "sip_gap", logged)


def _cover_nothing(monkeypatch) -> None:
    """Every level of the sweep goes to the solver: the recursion covers none."""
    monkeypatch.setattr(siplab.cli, "ladder_covered", lambda graph, ks, lower_space: [])


def _solves(log: Path) -> list:
    return [tuple(int(v) for v in line.split(",")) for line in log.read_text().splitlines()]


def test_sweep_far_past_the_cap_solves_only_the_levels_under_it(tmp_path, capsys,
                                                                monkeypatch):
    """k_max 10**9 gives the rows and exit code of k_max 4: the levels stop
    at the first one over the cap, before any level is solved, so one level
    per sample reaches a solver."""
    monkeypatch.setenv("SIPLAB_STATE_CAP", "20")
    _cover_nothing(monkeypatch)
    log = tmp_path / "solves.log"
    _log_solves(monkeypatch, log)
    outputs = []
    for k_max in (4, 10 ** 9):
        spec = _sweep_spec(tmp_path / f"sweep{k_max}.json", ["path(5)", "cycle(4)"], k_max, 1, 2)
        code, out, _ = run(["sweep", spec], capsys)
        assert code == 1
        outputs.append(read_csv(out)[1])
    assert outputs[0] == outputs[1]
    assert [row[2] for row in outputs[0]] == ["2", "-1"] * 2 + ["2", "3", "-1"] * 2
    assert sorted(k for _, _, k, _ in _solves(log)) == [2] * 8 + [3] * 4


@pytest.mark.skipif(sys.platform != "linux",
                    reason="only forked workers inherit the patched sip_gap")
def test_sweep_rows_stop_at_a_failing_level(tmp_path, capsys, monkeypatch):
    """A level that fails in a worker ends its sample's rows with one -1 row
    after the levels below it; other samples and graphs keep every row."""
    _cover_nothing(monkeypatch)
    spec = _sweep_spec(tmp_path / "sweep.json", ["path(5)", "cycle(4)"], 5, 3, n_samples=2)
    code, out, _ = run(["sweep", spec, "--jobs", "2"], capsys)
    assert code == 0
    _, clean = read_csv(out)
    real = siplab.cli.sip_gap

    def failing_at_level_4(gen):
        if gen.graph.n == 5 and gen.space.k == 4:
            raise EigensolverError("gap eigensolve failed at k=4: injected")
        return real(gen)

    monkeypatch.setattr(siplab.cli, "sip_gap", failing_at_level_4)
    code, out, _ = run(["sweep", spec, "--jobs", "2"], capsys)
    assert code == 1
    _, rows = read_csv(out)
    error = ["nan", "nan", "nan", "gap eigensolve failed at k=4: injected"]
    assert rows == (clean[0:2] + [["path(5)", "0", "-1", *error]]
                    + clean[4:6] + [["path(5)", "1", "-1", *error]] + clean[8:])


def test_sweep_asks_for_no_more_workers_than_cores_or_levels(tmp_path, capsys, monkeypatch,
                                                              forked):
    """--jobs 1000000 forks no more children than the cores or the levels
    leave besides this process, and --jobs 1 forks none. Each process
    solves its levels largest first."""
    _cover_nothing(monkeypatch)
    cores = os.cpu_count() or 1
    eight_levels = _sweep_spec(tmp_path / "eight.json", ["path(3)", "cycle(4)"], 3, 0, 2)
    one_level = _sweep_spec(tmp_path / "one.json", ["path(3)"], 2, 0)
    counts = []
    for spec, jobs in ((eight_levels, "1000000"), (one_level, "1000000"), (eight_levels, "1")):
        log = tmp_path / f"solves{len(counts)}.log"
        _log_solves(monkeypatch, log)
        before = len(forked)
        code, _, _ = run(["sweep", spec, "--jobs", jobs], capsys)
        assert code == 0
        counts.append(len(forked) - before)
        solves = _solves(log)
        assert sorted(size for *_, size in solves) == ([6, 6, 10, 10, 10, 10, 20, 20]
                                                     if spec == eight_levels else [6])
        for pid in {pid for pid, *_ in solves}:
            sizes = [size for solver, *_, size in solves if solver == pid]
            assert sizes == sorted(sizes, reverse=True)
    assert counts == [min(cores, 8) - 1 if sys.platform == "linux" else 0, 0, 0]
    assert [size for *_, size in solves] == [20, 20, 10, 10, 10, 10, 6, 6]
    assert {pid for pid, *_ in solves} == {os.getpid()}


needs_two_processes = pytest.mark.skipif(
    sys.platform != "linux" or (os.cpu_count() or 1) < 2,
    reason="the sweep forks a child only on Linux with two cores or more")


@pytest.fixture
def deadline():
    """A TimeoutError in place of a sweep that hangs past 30 s."""
    def expire(signum, frame):
        raise TimeoutError("the sweep still runs after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _sweep_with_a_child(tmp_path, monkeypatch, forked, in_parent, in_child):
    """Runs `sweep --jobs 2` on eight levels, where each process solves
    20, 10, 10 and 6 states, with sip_gap calling `in_parent(gen)` or
    `in_child(gen)` first, and `forked` recording the pids forked; returns
    the exception the sweep must raise."""
    parent, real = os.getpid(), siplab.cli.sip_gap

    def patched(gen):
        (in_parent if os.getpid() == parent else in_child)(gen)
        return real(gen)

    monkeypatch.setattr(siplab.cli, "sip_gap", patched)
    spec = _sweep_spec(tmp_path / "eight.json", ["path(3)", "cycle(4)"], 3, 0, 2)
    with pytest.raises(RuntimeError) as raised:
        main(["sweep", spec, "--jobs", "2"])
    assert len(forked) == 1
    assert unreaped(forked) == []
    return raised.value


def test_the_fork_check_names_a_child_left_unreaped(forked):
    """The autouse fixture `forked` records a child forked here, and its
    check names the child until the test reaps it."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child waits for the parent to close the pipe
        try:
            os.close(write_fd)
            os.read(read_fd, 1)
        finally:
            os._exit(0)
    os.close(read_fd)
    try:
        assert forked == [pid]
        assert unreaped(forked) == [pid]
    finally:
        os.close(write_fd)
        os.waitpid(pid, 0)
    assert unreaped(forked) == []


def _at_ten_states(action):
    def at(gen):
        if gen.space.size == 10:
            action()
    return at


def _never(gen):
    pass


def _injected():
    raise RuntimeError("injected")


@needs_two_processes
def test_sweep_raises_a_childs_exception(tmp_path, capsys, monkeypatch, forked, deadline):
    _cover_nothing(monkeypatch)
    error = _sweep_with_a_child(tmp_path, monkeypatch, forked, _never,
                                _at_ten_states(_injected))
    assert str(error) == "injected"
    assert "in _level_gap" in str(error.__cause__)  # the child's traceback
    assert capsys.readouterr().out == ""


@needs_two_processes
def test_sweep_raises_when_a_child_dies(tmp_path, capsys, monkeypatch, forked, deadline):
    _cover_nothing(monkeypatch)
    error = _sweep_with_a_child(tmp_path, monkeypatch, forked, _never,
                                _at_ten_states(lambda: os._exit(7)))
    assert "ended with status 7 before sending its gaps" in str(error)
    assert capsys.readouterr().out == ""


@needs_two_processes
def test_sweep_kills_its_children_when_it_raises(tmp_path, capsys, monkeypatch, forked,
                                                 deadline):
    """The child would solve for a minute; the parent's failure ends it
    within the deadline, and BLAS gets its thread count back."""
    _cover_nothing(monkeypatch)
    before = _blas_thread_counts()
    error = _sweep_with_a_child(tmp_path, monkeypatch, forked, _at_ten_states(_injected),
                                lambda gen: time.sleep(60))
    assert str(error) == "injected"
    assert capsys.readouterr().out == ""
    assert _blas_thread_counts() == before


def _blas_thread_counts() -> list:
    return [get() for get, _ in siplab.cli._openblas_thread_controls()]


@pytest.mark.skipif(sys.platform != "linux",
                    reason="only forked workers inherit the patched sip_gap")
def test_sweep_workers_fork_with_one_blas_thread(tmp_path, capsys, monkeypatch):
    """The sweep's workers run each OpenBLAS on one thread, and after the
    sweep the count set before is back. The patched sip_gap reports the
    worker's largest count as its gap."""
    controls = siplab.cli._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    _cover_nothing(monkeypatch)
    before = _blas_thread_counts()
    monkeypatch.setattr(siplab.cli, "sip_gap", lambda gen: float(max(_blas_thread_counts())))
    try:
        for _, set_count in controls:
            set_count(2)
        code, out, _ = run(["sweep", _sweep_spec(tmp_path / "sweep.json", ["path(3)"], 4, 0),
                            "--jobs", "2"], capsys)
        assert code == 0
        assert [row[3] for row in read_csv(out)[1]] == ["1", "1", "1"]
        assert _blas_thread_counts() == [2] * len(controls)
    finally:
        for (_, set_count), count in zip(controls, before):
            set_count(count)


def _log_builds_and_solves(monkeypatch, log: Path) -> None:
    """`_log_solves`, and build_sip_generator, wherever bound, logs "pid,n,k,-1"."""
    _log_solves(monkeypatch, log)
    real = siplab.sip.build_sip_generator

    def logged(graph, k):
        with open(log, "a") as out:
            out.write(f"{os.getpid()},{graph.n},{k},-1\n")
        return real(graph, k)

    _rebind(monkeypatch, "build_sip_generator", real, logged)


def _benchmark_shaped_spec(tmp_path, lo, n_samples=2, k_max=7):
    """path(7) and cycle(7) with edge weights U(0.5, 2), site weights log-uniform
    on [lo, 3]: the shape of the gap_sweep benchmark."""
    rng = np.random.default_rng(17)
    graphs = []
    for name, edges in (("path7", [(i, i + 1) for i in range(6)]),
                        ("cycle7", [(i, (i + 1) % 7) for i in range(7)])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": 7, "alpha": [1.0] * 7, "edges": [
            [x, y, float(rng.uniform(0.5, 2.0))] for x, y in edges]}))
        graphs.append(str(path))
    spec = tmp_path / f"sweep-{lo}.json"
    spec.write_text(json.dumps({"graphs": graphs, "k_max": k_max, "seed": 11,
                                "alpha": {"n_samples": n_samples, "range": [lo, 3.0]}}))
    return str(spec)


@pytest.mark.parametrize("lo", [0.3, 1.0], ids=["general", "equality"])
def test_a_covered_level_builds_no_generator_and_solves_nothing(lo, tmp_path, capsys,
                                                               monkeypatch):
    """On benchmark-shaped samples every level k = 2..7 is covered: its row is
    gap_rw with ratio 1, and no level generator is built or solved."""
    log = tmp_path / "calls.log"
    _log_builds_and_solves(monkeypatch, log)
    code, out, _ = run(["sweep", _benchmark_shaped_spec(tmp_path, lo), "--jobs", "2"], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert [row[2] for row in rows] == [str(k) for k in range(2, 8)] * 4
    assert all(row[3] == row[4] and row[5] == "1" for row in rows)
    assert not log.exists()


def _gap_rows(rows) -> list:
    return [(row[:3], *(float(v) for v in row[3:6]), row[6]) for row in rows]


def _assert_rows_within_gap_tolerance(rows, solved_rows):
    """The same keys and errors, and each gap and ratio within GAP_RTOL of the row's gap_rw."""
    assert [(key, error) for key, *_, error in _gap_rows(rows)] == [
        (key, error) for key, *_, error in _gap_rows(solved_rows)]
    for (key, gap, gap_rw, ratio, _), (_, solved, solved_rw, solved_ratio, _) in zip(
            _gap_rows(rows), _gap_rows(solved_rows)):
        assert gap_rw == solved_rw, key
        assert abs(gap - solved) <= GAP_RTOL * gap_rw, key
        assert abs(ratio - solved_ratio) <= GAP_RTOL, key


def test_a_certificate_miss_solves_its_level_and_every_level_above(tmp_path, capsys,
                                                                   monkeypatch):
    """Site weights in [0.01, 0.03] on path(4): b_2 covers level 2, b_3 falls short
    of gap_rw, so levels 3, 4 and 5 are built and solved, and only they."""
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"graphs": ["path(4)"], "k_max": 5, "seed": 0,
                                "alpha": {"n_samples": 1, "range": [0.01, 0.03]}}))
    log = tmp_path / "calls.log"
    _log_builds_and_solves(monkeypatch, log)
    code, out, _ = run(["sweep", str(spec), "--jobs", "1"], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0][3] == rows[0][4] and rows[0][5] == "1"
    assert sorted((k, size) for _, _, k, size in _solves(log)) == [
        (3, -1), (3, 20), (4, -1), (4, 35), (5, -1), (5, 56)]
    _cover_nothing(monkeypatch)
    code, out, _ = run(["sweep", str(spec), "--jobs", "1"], capsys)
    assert code == 0
    solved = read_csv(out)[1]
    _assert_rows_within_gap_tolerance(rows, solved)
    assert solved[1:] == rows[1:]


@pytest.mark.parametrize("lo", [0.3, 1.0], ids=["general", "equality"])
def test_certified_rows_match_a_sweep_that_solves_every_level(lo, tmp_path, capsys,
                                                              monkeypatch):
    """20 samples of path(7) and cycle(7), k = 2..5: the rows the recursion gives
    agree with the solver's within gap_tolerance."""
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"graphs": ["path(7)", "cycle(7)"], "k_max": 5, "seed": 4,
                                "alpha": {"n_samples": 10, "range": [lo, 3.0]}}))
    code, out, _ = run(["sweep", str(spec), "--jobs", "2"], capsys)
    assert code == 0
    rows = read_csv(out)[1]
    assert len(rows) == 20 * 4 and sum(row[5] == "1" for row in rows) >= 70
    _cover_nothing(monkeypatch)
    code, out, _ = run(["sweep", str(spec), "--jobs", "2"], capsys)
    assert code == 0
    _assert_rows_within_gap_tolerance(rows, read_csv(out)[1])


def _ladder_checks(payload) -> dict:
    return {c["identity"]: c for c in payload["suites"]["sip"]["checks"]
            if c["identity"].startswith("ladder-certificate")}


@pytest.mark.parametrize("alpha", [[0.4, 1.3, 0.7, 2.1, 0.9, 1.6],
                                   [1.2, 2.6, 1.0, 1.8, 2.3, 1.4]], ids=["general", "equality"])
def test_the_ladder_certificate_fails_a_covered_gap_lowered_by_three_tolerances(
        alpha, tmp_path, capsys):
    """On the benchmark's 6-vertex topology at K = 4 the recursion covers levels
    2..4, each once, and each passes; a gap lowered by 3 gap_tolerance fails its
    level's certificate and no other."""
    path = _six_vertex_graph(tmp_path, alpha)
    code, out, _ = run(["verify", path, "--K", "4", "--suite", "sip"], capsys)
    assert code == 0
    checks = _ladder_checks(json.loads(out))
    assert list(checks) == [f"ladder-certificate[k={k}]" for k in (2, 3, 4)]
    assert all(c["pass"] and "detail" not in c for c in checks.values())
    graph = siplab.graphs.load_graph(path)
    tolerance = gap_tolerance(graph)
    for k in (2, 3, 4):
        levels = siplab.intertwiners.Level(graph, 4).down_to(0)
        levels[k].__dict__["gap"] = levels[k].gap - 3 * tolerance
        verdicts = {c.identity: c.passed for c in siplab.cli._suite_sip(levels)[0].checks
                    if c.identity.startswith("ladder-certificate")}
        assert verdicts == {f"ladder-certificate[k={j}]": j != k for j in (2, 3, 4)}


def test_a_level_the_ladder_misses_passes_and_names_its_ratio(capsys):
    """path(4) with site weights 0.01..0.03: b_3 / gap_2 falls below 1, so
    levels 3 and 4 read "not covered" with that ratio, and pass."""
    code, out, _ = run(["verify", "path(4)", "--alpha", "0.01,0.02,0.03,0.015", "--K", "4",
                        "--suite", "sip"], capsys)
    assert code == 0
    checks = _ladder_checks(json.loads(out))
    assert "detail" not in checks["ladder-certificate[k=2]"]
    for k in (3, 4):
        check = checks[f"ladder-certificate[k={k}]"]
        assert check["pass"] and check["residual"] == 0.0
        assert check["detail"].startswith("not covered: b_k / gap_(k-1) = ")


def test_sweep_disconnected_graph_is_an_error_row(tmp_path, capsys):
    graph = tmp_path / "split.json"
    graph.write_text(json.dumps({"n": 4, "edges": [[0, 1, 1], [2, 3, 1]],
                                 "alpha": [1, 1, 1, 1]}))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "graphs": [str(graph), "path(3)"],
        "alpha": {"n_samples": 1, "range": [0.5, 2.0]},
        "k_max": 3,
        "seed": 2,
    }))
    code, out, _ = run(["sweep", str(spec)], capsys)
    assert code == 1
    _, rows = read_csv(out)
    errors = [row for row in rows if row[-1]]
    assert len(errors) == 1 and errors[0][0] == str(graph)
    assert errors[0][2] == "-1" and "disconnected" in errors[0][-1]
    assert len(rows) == 1 + 2  # the connected graph still gets k = 2, 3
    # with no connected graph there is no level to solve and no pool
    code, out, _ = run(["sweep", _sweep_spec(tmp_path / "split_only.json", [str(graph)], 3, 2)],
                       capsys)
    assert code == 1 and read_csv(out)[1] == [errors[0]]


def test_sweep_byte_identical_across_jobs_and_calls(tmp_path, capsys, monkeypatch):
    """Levels of 462 states go through the sparse solver, whose fixed start
    vector makes the gaps repeat exactly."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "graphs": ["path(6)", "cycle(6)"],
        "alpha": {"n_samples": 2, "range": [0.3, 3.0]},
        "k_max": 6,
        "seed": 7,
    }))
    outputs = []
    for jobs in ("1", "2", "2"):
        path = tmp_path / f"sweep{len(outputs)}.csv"
        code, _, _ = run(["sweep", str(spec), "--csv", str(path), "--jobs", jobs], capsys)
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_simulate_outputs(tmp_path, capsys):
    csv_path = tmp_path / "sim.csv"
    json_path = tmp_path / "sim.json"
    code, _, _ = run(["simulate", "path(2)", "--k", "2", "--horizon", "1",
                      "--paths", "500", "--seed", "9", "--times", "0.5,1",
                      "--csv", str(csv_path), "--json", str(json_path)], capsys)
    assert code == 0
    _, rows = read_csv(csv_path.read_text())
    by_time = {}
    for t, rank, count in rows:
        by_time[t] = by_time.get(t, 0) + int(count)
    assert all(total == 500 for total in by_time.values())
    summary = json.loads(json_path.read_text())
    assert summary["n_paths"] == 500
    assert summary["manifest"]["master_seed"] == 9


@pytest.mark.parametrize("mode", ["sip", "lookdown"])
def test_simulate_csv_bytes_match_a_formatter_call_per_value(mode, capsys):
    argv = ["simulate", "cycle(4)", "--mode", mode, "--k", "3", "--horizon", "2",
            "--paths", "300", "--seed", "5", "--times", "0,0.25,1,2"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    cfg = SimConfig(graph_from_preset("cycle(4)"), 3, mode, 2.0, 300, 5, (0.0, 0.25, 1.0, 2.0))
    counts = simulate(cfg).counts
    # every value of every row through the formatter, as the CSV writer did before
    rows = [(t, int(rank), int(row[rank]))
            for t, row in zip(cfg.times, counts) for rank in np.flatnonzero(row)]
    lines = out.splitlines()
    assert lines[1:] == ["time,state_rank,count"] + [",".join(siplab.cli._fmt(v) for v in row)
                                                       for row in rows]


@pytest.mark.parametrize("horizon, times", [("1", "0.5,nan"), ("inf", "inf"), ("1", "1,1")])
def test_simulate_refuses_unfinishable_or_repeated_times(capsys, horizon, times):
    # a NaN or infinite time is never passed, and a repeated time would
    # count every path twice
    code, out, err = run(["simulate", "path(3)", "--k", "2", "--horizon", horizon,
                          "--paths", "10", "--times", times], capsys)
    assert code == 2 and out == "" and "input error" in err


@pytest.mark.parametrize("times", ["inf", "0.5,nan", "1,1", "-1,1"])
def test_tv_curve_refuses_bad_times_before_any_solve(capsys, monkeypatch, times):
    # each once wrote an inf or nan row, or the t=1 row twice, and exited 1
    def unreachable(*args, **kwargs):
        raise AssertionError("the spectrum was solved")

    monkeypatch.setattr(siplab.sip, "sip_spectrum", unreachable)
    code, out, err = run(["tv-curve", "path(3)", "--k", "2", f"--times={times}"], capsys)
    assert code == 2 and out == "" and "input error" in err


def test_parser_is_built_once_and_not_at_import():
    script = ("import siplab.cli as cli; built = cli.build_parser.cache_info().currsize; "
              "cli.main(['spectrum', 'path(2)', '--k', '1']); cli.main(['spectrum', 'path(2)', '--k', '1']); "
              "info = cli.build_parser.cache_info(); print(built, info.misses, info.hits)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 1 1"


def test_cached_parser_runs_the_command_bound_at_call_time(capsys, monkeypatch):
    # a tracer or a test may rebind a command after the parser was built
    assert run(["spectrum", "path(2)", "--k", "1"], capsys)[0] == 0
    monkeypatch.setattr(siplab.cli, "cmd_tv_curve", lambda args: 7)
    assert run(["tv-curve", "path(2)", "--k", "1", "--times", "1"], capsys)[0] == 7


def test_tv_curve(tmp_path, capsys):
    code, out, _ = run(["tv-curve", "path(2)", "--k", "2",
                        "--times", "0.1,0.5,1,2"], capsys)
    assert code == 0
    _, rows = read_csv(out)
    for row in rows:
        t, value, lower, upper, ok = row
        assert float(lower) - 1e-8 <= float(value) <= float(upper) + 1e-8
        assert ok == "1"


def test_report_aggregate(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run(["report", "path(3)", "--K", "3", "--json", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["pass"] is True
    assert "gap_report" in report and "bep_report" in report
    assert report["state_cap"] == 20_000


def test_report_runs_the_diffusion_at_degree_K(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run(["report", "path(3)", "--K", "5", "--json", str(path)], capsys)
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["bep_report"]["degree_max"] == 5
    assert "bep_degree" not in report


def test_outputs_byte_identical_with_pinned_timestamp(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(["verify", "path(3)", "--K", "2", "--suite", "sip",
                          "--seed", "4", "--json", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_alpha_flag_validation(capsys):
    code, _, _ = run(["spectrum", "path(3)", "--alpha", "1,2", "--k", "1"], capsys)
    assert code == 2
    code, _, _ = run(["spectrum", "path(3)", "--alpha", "x", "--k", "1"], capsys)
    assert code == 2
    code, _, _ = run(["spectrum", "path(3)", "--alpha", "2", "--k", "1"], capsys)
    assert code == 0  # single value broadcast


def test_unknown_flag_exits_two(capsys):
    assert main(["spectrum", "path(2)", "--bogus"]) == 2


def test_verify_and_report_read_no_seed(capsys, monkeypatch):
    """`--seed` is recorded in the manifest and changes no check of either command."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    for argv in (["verify", "cycle(4)", "--K", "3", "--alpha", "0.4,1,2,0.7"],
                 ["report", "path(3)", "--K", "3", "--alpha", "0.3,1,2"]):
        outputs = []
        for seed in ("0", "5"):
            code, out, _ = run(argv + ["--seed", seed], capsys)
            assert code == 0
            outputs.append(json.loads(out))
        assert [o["manifest"].pop("master_seed") for o in outputs] == [0, 5]
        assert outputs[0] == outputs[1]


def test_sip_suite_on_two_sites_reads_its_one_fresh_column_three_times(capsys):
    # with n = 2 each level adds one fresh state, so Level.fresh has one column
    code, out, _ = run(["verify", "path(2)", "--K", "4", "--suite", "sip"], capsys)
    assert code == 0
    checks = json.loads(out)["suites"]["sip"]["checks"]
    counts = collections.Counter(c["identity"] for c in checks)
    for k in (2, 3, 4):
        for name in ("dirichlet-decomposition", "section-variance-reduction",
                     "kernel-energy-lower-bound"):
            assert counts[f"{name}[k={k}]"] == 3
