"""The CLI's outputs held to golden files under the output contract of
`conftest.outputs_equivalent`, and that contract's own mutation tests."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DEGENERATE_GRAPHS, output_mismatch, outputs_equivalent, read_output

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_commands_keep_their_golden_outputs(tmp_path):
    """`write_golden.py` run afresh gives every command's exit code and an
    output equivalent to the committed one."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, str(GOLDEN / "write_golden.py"), str(tmp_path)],
                   env=env, check=True, timeout=120)
    index = json.loads((GOLDEN / "index.json").read_text())
    assert json.loads((tmp_path / "index.json").read_text()) == index
    assert json.loads((GOLDEN / "G1.json").read_text()) == DEGENERATE_GRAPHS["G1"]
    for name, entry in index.items():
        file = name + (".json" if entry["argv"][0] in ("verify", "report") else ".csv")
        old, new = read_output(GOLDEN / file), read_output(tmp_path / file)
        assert outputs_equivalent(old, new), output_mismatch(old, new, file)


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


def test_the_contract_compares_csv_counts_exactly():
    old = read_output(GOLDEN / "simulate-lookdown.csv")
    new = copy.deepcopy(old)
    new["rows"][0][2] += 1.0
    assert not outputs_equivalent(old, new)
