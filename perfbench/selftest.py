"""Self-test of the benchmark harness at smoke size.

usage: python3 perfbench/selftest.py

Checks that every workload, traced and untraced, prints the result line
with every metric BENCHMARK.json names, each with its unit, and that the
output checks catch corrupted outputs: a perturbed gap, a ratio, a
dropped identity, a skewed Monte-Carlo histogram and a re-run of op 0
that does not reproduce. Exits 1 on the first failed expectation.
"""

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAIL: {message}")


def check_spec() -> None:
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    expect(len(names) == len(set(names)), "metric and workload names are unique")
    expect(all(NAME.fullmatch(n) for n in names), "names are well formed")
    expect(all(UNIT.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in SPEC[key]), "units are well formed")
    expect(sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json lists the harness's workloads")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    expect(max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values()),
           "bounds are at most 0.25 and setup_s has the largest")


def check_layer_names() -> None:
    """Every per-layer name refers to a function siplab has at this commit."""
    functions = set(Tracer().functions)
    modules = {key.partition(".")[0] for key in functions}
    for metric in SPEC["per_layer"]:
        module, _, rest = metric["name"].partition(".")
        if module == "run":
            continue
        expect(module in modules, f"{metric['name']}: siplab has a module {module}")
        function = rest.rpartition(".")[0]
        if function:
            expect(f"{module}.{function}" in functions, f"{metric['name']}: siplab has {function}")


def check_result_lines() -> None:
    for workload in workloads.WORKLOADS:
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0, f"{label}: ops failed")
            units = {m["name"]: m["unit"] for m in SPEC[listed]}
            metrics = result["metrics"]
            expect(set(metrics) == set(units), f"{label}: metric names")
            for name, unit in units.items():
                value = metrics[name]
                expect(value["unit"] == unit and isinstance(value["value"], (int, float)),
                       f"{label}: {name} has its unit and a number")
            print(f"selftest: {label}: {len(metrics)} metrics with units")


def _edit_json(change):
    def edit(text):
        data = json.loads(text)
        change(data)
        return json.dumps(data)
    return edit


def _perturb_gap(data):
    data["gap_report"]["gap_k"]["3"] *= 1.0 + 1e-6


def _drop_identity(data):
    data["suites"]["lookdown"]["checks"].pop()


def _scale_ratio(text):
    lines = text.splitlines(keepends=True)
    row = lines[2].split(",")
    row[5] = repr(float(row[5]) * 0.999)
    lines[2] = ",".join(row)
    return "".join(lines)


def _skew_histogram(text):
    """Move 100 samples at time 1 from the fullest cell to the emptiest one."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[2:]]
    at_one = [r for r in rows if float(r[0]) == 1.0]
    full = max(at_one, key=lambda r: int(r[2]))
    empty = min(at_one, key=lambda r: int(r[2]))
    full[2], empty[2] = str(int(full[2]) - 100), str(int(empty[2]) + 100)
    return "\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n"


class Corrupting:
    """Stands in for siplab.cli.main, editing the output of matching commands."""

    def __init__(self, real, matches, edit, after_calls: int = 0):
        self.real, self.matches, self.edit = real, matches, edit
        self.after_calls = after_calls
        self.calls = 0

    def __call__(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.real(argv)
        text = out.getvalue()
        if self.matches(argv):
            self.calls += 1
            if self.calls > self.after_calls:
                text = self.edit(text)
        sys.stdout.write(text)
        return code


CORRUPTIONS = [
    ("verify_sip", "perturbed gap_k", lambda a: "sip" in a, _edit_json(_perturb_gap), 0),
    ("gap_sweep", "ratio not gap_k / gap_rw", lambda a: a[0] == "sweep", _scale_ratio, 0),
    ("labeled_mc", "dropped identity", lambda a: a[0] == "verify", _edit_json(_drop_identity), 0),
    ("labeled_mc", "skewed histogram", lambda a: a[-1] == "sip", _skew_histogram, 0),
    # Only the second run of op 0 differs: the reproducibility check alone catches it.
    ("verify_sip", "re-run differs", lambda a: "bep" in a, lambda text: text + " ", 1),
]


def check_corruptions(cli) -> None:
    real = cli.main
    workloads.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.SCRATCH) as tmp:
        for workload, label, matches, edit, after_calls in CORRUPTIONS:
            cli.main = Corrupting(real, matches, edit, after_calls)
            try:
                client = run.Client(cli, workload, 3, Path(tmp))
                _, first = client.op(0)
                client.rerun_first(first)
            finally:
                cli.main = real
            ok_frac = 1.0 - len(client.failures()) / len(client.verdicts)
            expect(ok_frac < 1.0, f"{workload}: {label} should drive ok_frac below 1")
            print(f"selftest: {workload}: {label}: ok_frac {ok_frac:.2f}")
        client = run.Client(cli, "labeled_mc", 3, Path(tmp))
        _, first = client.op(0)
        client.rerun_first(first)
        expect(not client.failures(), "uncorrupted ops pass")
    with contextlib.suppress(OSError):
        workloads.SCRATCH.rmdir()


def main() -> int:
    check_spec()
    cli = workloads.import_cli()
    check_layer_names()
    check_corruptions(cli)
    check_result_lines()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
