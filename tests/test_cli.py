import collections
import json
import sys

import pytest

import siplab.intertwiners
from siplab.cli import main


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


def _count_level_builds(monkeypatch):
    """Wrap the level builders in every siplab module that binds them and
    count their calls by level k."""
    levels = {"build_sip_generator": lambda graph, k: k,
              "kernel_basis": lambda level, **_: level.k,
              "build_shifted_walks": lambda graph, space: space.k + 1}
    counts = {name: collections.Counter() for name in levels}
    for name, level_of in levels.items():
        original = getattr(siplab.intertwiners, name)

        def counted(*args, _name=name, _level_of=level_of, _original=original, **kwargs):
            counts[_name][_level_of(*args, **kwargs)] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("siplab") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("argv", [["verify", "path(3)", "--K", "4", "--suite", "all"],
                                  ["report", "path(3)", "--K", "4"]])
def test_each_level_is_built_once_per_run(argv, capsys, monkeypatch):
    counts = _count_level_builds(monkeypatch)
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert counts["build_sip_generator"] == {1: 1, 2: 1, 3: 1, 4: 1}
    assert counts["kernel_basis"] == {2: 1, 3: 1, 4: 1}
    assert counts["build_shifted_walks"] == {2: 1, 3: 1, 4: 1}


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


def test_sweep_row_error_sets_exit_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIPLAB_STATE_CAP", "20")
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "graphs": ["path(5)"],
        "alpha": {"n_samples": 1, "range": [0.5, 2.0]},
        "k_max": 4,
        "seed": 1,
    }))
    code, out, _ = run(["sweep", str(spec)], capsys)
    assert code == 1
    _, rows = read_csv(out)
    assert any(row[-1] for row in rows)


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


def test_report_records_the_clamped_diffusion_degree(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run(["report", "path(3)", "--K", "5", "--json", str(path)], capsys)
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["bep_report"]["degree_max"] == 4
    clamp = report["bep_degree"]
    assert (clamp["requested"], clamp["used"]) == (5, 4)
    assert "degree 4" in clamp["reason"] and "--K 5" in clamp["reason"]
    code, _, _ = run(["report", "path(3)", "--K", "3", "--json", str(tmp_path / "c.json")], capsys)
    assert code == 0
    assert json.loads((tmp_path / "c.json").read_text())["bep_degree"] == {
        "requested": 3, "used": 3, "reason": None}


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
