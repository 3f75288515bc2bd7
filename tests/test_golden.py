"""The CLI's outputs held to golden files under the output contract of
`conftest.outputs_equivalent`, and that contract's own mutation tests."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DEGENERATE_GRAPHS, output_mismatches, outputs_equivalent, read_output

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_commands_keep_their_golden_outputs(tmp_path):
    """`write_golden.py` run afresh gives every command's exit code and an
    output equivalent to the committed one; a failure names every breach."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, str(GOLDEN / "write_golden.py"), str(tmp_path)],
                   env=env, check=True, timeout=120)
    index = json.loads((GOLDEN / "index.json").read_text())
    assert json.loads((tmp_path / "index.json").read_text()) == index
    assert json.loads((GOLDEN / "G1.json").read_text()) == DEGENERATE_GRAPHS["G1"]
    mismatches = []
    for name, entry in index.items():
        file = name + (".json" if entry["argv"][0] in ("verify", "report") else ".csv")
        mismatches += output_mismatches(read_output(GOLDEN / file), read_output(tmp_path / file),
                                        file)
    assert not mismatches, "\n".join(mismatches)


@pytest.fixture(scope="module")
def report():
    return read_output(GOLDEN / "report.json")


def _check(payload, identity):
    checks = payload["suites"]["lookdown"]["checks"]
    return next(c for c in checks if c["identity"] == identity)


def _mutated(report, change):
    new = copy.deepcopy(report)
    change(new)
    return new


def test_the_contract_holds_an_output_to_itself(report):
    assert outputs_equivalent(report, copy.deepcopy(report))


def test_the_contract_allows_a_residual_within_its_share_of_the_tolerance(report):
    def move(payload):
        check = _check(payload, "top-drop-intertwining[k=2]")
        check["residual"] += 0.5e-3 * check["tolerance"]

    assert outputs_equivalent(report, _mutated(report, move))


def _move_residual(payload):
    check = _check(payload, "top-drop-intertwining[k=2]")
    check["residual"] += 0.01 * check["tolerance"]


def _move_gap(payload):
    payload["gap_report"]["gap_k"]["3"] *= 1.0 + 1e-10


def _flip_pass(payload):
    check = _check(payload, "labeled-chain-step-3[k=4]")
    check["pass"] = not check["pass"]


def _add_key(payload):
    payload["bep_report"]["extra"] = 0.0


def _drop_key(payload):
    del payload["gap_report"]["ratio_k"]


def _change_detail(payload):
    check = _check(payload, "lookdown-breaks-detailed-balance[k=3]")
    check["detail"] = check["detail"].replace("between", "for")


@pytest.mark.parametrize("change", [_move_residual, _move_gap, _flip_pass, _add_key,
                                    _drop_key, _change_detail])
def test_the_contract_fails_on_a_mutation(report, change):
    assert not outputs_equivalent(report, _mutated(report, change))


def test_the_contract_names_every_breach(report):
    def both(payload):
        _move_residual(payload)
        _move_gap(payload)

    mismatches = output_mismatches(report, _mutated(report, both), "report.json")
    assert len(mismatches) == 2
    assert mismatches[0].startswith("report.json.gap_report.gap_k.3: ")
    assert mismatches[1].startswith("report.json.suites.lookdown.checks[")
    assert "residual" in mismatches[1]


def test_the_contract_compares_csv_counts_exactly():
    old = read_output(GOLDEN / "simulate-lookdown.csv")
    new = copy.deepcopy(old)
    new["rows"][0][2] += 1.0
    assert not outputs_equivalent(old, new)


def _column(table, name):
    return table["header"].index(name)


def test_the_contract_holds_a_rounding_level_value_to_its_column():
    old = read_output(GOLDEN / "spectrum.csv")
    at = _column(old, "eigenvalue")
    zero = min(range(len(old["rows"])), key=lambda i: abs(old["rows"][i][at]))
    assert 0.0 < old["rows"][zero][at] < 1e-15
    new = copy.deepcopy(old)
    new["rows"][zero][at] = -3e-16
    assert outputs_equivalent(old, new)


@pytest.mark.parametrize("file, name", [("spectrum.csv", "eigenvalue"), ("sweep.csv", "gap_k")])
def test_the_contract_fails_on_any_value_moved_by_a_share_of_its_column(file, name):
    old = read_output(GOLDEN / file)
    at = _column(old, name)
    largest = max(abs(row[at]) for row in old["rows"])
    for i in range(len(old["rows"])):
        new = copy.deepcopy(old)
        new["rows"][i][at] += 1e-10 * largest
        assert output_mismatches(old, new, file) == [
            f"{file}.rows[{i}][{at}]: {old['rows'][i][at]!r} became {new['rows'][i][at]!r}"]


def test_the_contract_holds_a_json_list_of_floats_to_its_largest_entry():
    old = {"eigenvalues": [6e-16, 0.75, 10.0], "gap": 6e-16}
    assert outputs_equivalent(old, {"eigenvalues": [-3e-16, 0.75, 10.0], "gap": 6e-16})
    assert not outputs_equivalent(old, {"eigenvalues": [1e-9, 0.75, 10.0], "gap": 6e-16})
    # a float outside a list is held to its own magnitude
    assert not outputs_equivalent(old, {"eigenvalues": [6e-16, 0.75, 10.0], "gap": -3e-16})
