"""The benchmark's workloads: seeded inputs, the siplab commands of one op,
and the checks on their outputs.

An op's inputs come from (workload seed, op index) alone. The topology of
each workload is fixed; edge weights and site weights are redrawn for
every op, and odd ops draw every site weight from [1, 3], the regime where
the gap sandwich holds with equality. Distinct inputs per op mean a cache
kept across calls cannot hit, as for a user who starts one process per
command.
"""

from __future__ import annotations

import collections
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
# Inputs are written here, inside the checkout, and removed after the run.
SCRATCH = ROOT / ".perfbench_tmp"
EXPECTED_CHECKS = json.loads((Path(__file__).parent / "expected_checks.json").read_text())

SWEEP_JOBS = 2
SIM_PATHS = 1000
SIM_TIMES = (0, 1, 2, 3)
SIM_JUMP_RATE = 20.0
SWEEP_HEADER = "graph_id,alpha_id,k,gap_k,gap_rw,ratio,error"

# Six vertices: a cycle with two chords. Five vertices: a cycle with one chord.
TOPOLOGY_6 = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4))
TOPOLOGY_5 = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2))
PATH_7 = tuple((i, i + 1) for i in range(6))
CYCLE_7 = tuple((i, (i + 1) % 7) for i in range(7))


def import_cli():
    """Import siplab.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "siplab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no siplab sources under {src}")
    sys.path.insert(0, str(src))
    import siplab.cli
    if Path(siplab.cli.__file__).resolve().parent != src / "siplab":
        raise SystemExit(f"perfbench: imported siplab from {siplab.cli.__file__}, not {src}")
    return siplab.cli


@dataclass
class Verdict:
    problems: list
    pvalues: list  # (label, p) of the Monte-Carlo goodness-of-fit tests


@dataclass
class Op:
    commands: list  # argv lists for siplab.cli.main, run in order
    check: Callable  # list of (exit code, stdout) -> Verdict


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _equality(index: int) -> bool:
    return index % 2 == 1


def _draw_graph(rng, n: int, topology, alpha_lo: float, alpha_hi: float = 3.0) -> dict:
    edges = [[x, y, float(rng.uniform(0.5, 2.0))] for x, y in topology]
    alpha = np.exp(rng.uniform(math.log(alpha_lo), math.log(alpha_hi), size=n))
    return {"n": n, "edges": edges, "alpha": [float(a) for a in alpha]}


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _regime(graph: dict) -> str:
    return "equality" if min(graph["alpha"]) >= 1.0 else "general"


def _check_verify(output, suite: str, K: int, graph: dict, problems: list):
    """Exit code, verdict and the identities recorded at the benchmark's
    commit: each must still be present, as often, and passing."""
    code, text = output
    if code != 0:
        problems.append(f"verify --suite {suite}: exit code {code}")
    try:
        data = json.loads(text)
    except ValueError:
        problems.append(f"verify --suite {suite}: output is not JSON")
        return None
    if data.get("pass") is not True:
        problems.append(f"verify --suite {suite}: pass is not true")
    found = data.get("suites", {}).get(suite, {}).get("checks", [])
    failing = [c.get("identity") for c in found if c.get("pass") is not True]
    if failing:
        problems.append(f"verify --suite {suite}: failing {failing[:3]}")
    expected = collections.Counter(EXPECTED_CHECKS[f"{suite}_K{K}"][_regime(graph)])
    missing = expected - collections.Counter(c.get("identity") for c in found)
    if missing:
        problems.append(f"verify --suite {suite}: missing {sorted(missing)[:3]}")
    return data


def _check_sandwich(label: str, gap_rw, gaps: dict, graph: dict, problems: list) -> None:
    """gap_rw against our own walk gap, and (1 ^ alpha_min) gap_rw <= gap <= gap_rw
    for each gap, with equality when alpha_min >= 1."""
    reference = checks.walk_gap(graph["n"], graph["edges"], graph["alpha"])
    if not isinstance(gap_rw, float) or abs(gap_rw - reference) > 1e-10 * reference:
        problems.append(f"{label}: gap_rw {gap_rw!r} != walk gap {reference!r}")
    alpha_min = min(graph["alpha"])
    lower = min(1.0, alpha_min) * reference
    tol = 1e-8 * reference
    for key, gap in gaps.items():
        if not isinstance(gap, float) or not lower - tol <= gap <= reference + tol:
            problems.append(f"{label}: gap {key}={gap!r} outside [{lower!r}, {reference!r}]")
        elif alpha_min >= 1.0 and abs(gap - reference) > tol:
            problems.append(f"{label}: gap {key}={gap!r} should equal {reference!r}")


def verify_sip_op(seed: int, index: int, workdir: Path) -> Op:
    rng = _rng(seed, index)
    K = 5
    graph = _draw_graph(rng, 6, TOPOLOGY_6, 1.0 if _equality(index) else 0.3)
    path = _write(workdir / "graph6.json", graph)
    verify_seed = str(int(rng.integers(2 ** 31)))

    def check(outputs) -> Verdict:
        problems = []
        sip = _check_verify(outputs[0], "sip", K, graph, problems)
        if sip is not None:
            report = sip.get("gap_report", {})
            gaps = report.get("gap_k", {})
            if sorted(gaps) != [str(k) for k in range(2, K + 1)]:
                problems.append(f"gap_report: levels {sorted(gaps)}")
            _check_sandwich("gap_report", report.get("gap_rw"), gaps, graph, problems)
        bep = _check_verify(outputs[1], "bep", K, graph, problems)
        if bep is not None:
            report = bep.get("bep_report", {})
            _check_sandwich("bep_report", report.get("gap_rw"),
                            {"truncated": report.get("gap_bep_truncated")}, graph, problems)
        return Verdict(problems, [])

    return Op([["verify", path, "--K", str(K), "--suite", "sip", "--seed", verify_seed],
               ["verify", path, "--K", str(K), "--suite", "bep"]], check)


def gap_sweep_op(seed: int, index: int, workdir: Path) -> Op:
    rng = _rng(seed, index)
    k_max = 7
    lo = 1.0 if _equality(index) else 0.3
    graphs = [_write(workdir / "path7.json", _draw_graph(rng, 7, PATH_7, 1.0, 1.0)),
              _write(workdir / "cycle7.json", _draw_graph(rng, 7, CYCLE_7, 1.0, 1.0))]
    spec = {"graphs": graphs, "alpha": {"n_samples": 1, "range": [lo, 3.0]},
            "k_max": k_max, "seed": int(rng.integers(2 ** 31))}
    spec_path = _write(workdir / "sweep.json", spec)
    expected_rows = {(g, str(k)) for g in graphs for k in range(2, k_max + 1)}

    def check(outputs) -> Verdict:
        problems = []
        code, text = outputs[0]
        if code != 0:
            problems.append(f"sweep: exit code {code}")
        lines = text.splitlines()
        if len(lines) < 2 or not lines[0].startswith("# manifest ") or lines[1] != SWEEP_HEADER:
            return Verdict(problems + ["sweep: missing manifest or header"], [])
        rows = [line.split(",") for line in lines[2:]]
        if len(rows) != len(expected_rows):
            problems.append(f"sweep: {len(rows)} rows, expected {len(expected_rows)}")
        if {(r[0], r[2]) for r in rows if len(r) == 7} != expected_rows:
            problems.append("sweep: rows do not cover each graph and k once")
        for row in rows:
            if len(row) != 7 or row[6]:
                problems.append(f"sweep: bad or errored row {row}")
                continue
            try:
                gap_k, gap_rw, ratio = (float(v) for v in row[3:6])
            except ValueError:
                problems.append(f"sweep: non-numeric row {row}")
                continue
            if abs(ratio - gap_k / gap_rw) > 1e-12 * abs(ratio):
                problems.append(f"sweep: ratio {ratio!r} != gap_k / gap_rw")
            if not min(1.0, lo) - 1e-8 <= ratio <= 1.0 + 1e-8:
                problems.append(f"sweep: ratio {ratio!r} outside [{min(1.0, lo)}, 1]")
            if lo >= 1.0 and abs(ratio - 1.0) > 1e-8:
                problems.append(f"sweep: ratio {ratio!r} should be 1")
        return Verdict(problems, [])

    return Op([["sweep", spec_path, "--jobs", str(SWEEP_JOBS)]], check)


def _check_histograms(label: str, output, probs: np.ndarray, problems: list, pvalues: list):
    """Counts per time equal the path count; each time's histogram fits the exact law."""
    code, text = output
    if code != 0:
        problems.append(f"{label}: exit code {code}")
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# manifest ") or lines[1] != "time,state_rank,count":
        problems.append(f"{label}: missing manifest or header")
        return
    histograms = {float(t): {} for t in SIM_TIMES}
    for line in lines[2:]:
        try:
            t, rank, count = line.split(",")
            t, rank, count = float(t), int(rank), int(count)
        except ValueError:
            t = None
        if t not in histograms or not 0 <= rank < probs.size or count < 1:
            problems.append(f"{label}: bad row {line!r}")
            return
        histograms[t][rank] = histograms[t].get(rank, 0) + count
    for t, counts in histograms.items():
        if sum(counts.values()) != SIM_PATHS:
            problems.append(f"{label}: {sum(counts.values())} samples at t={t}, expected {SIM_PATHS}")
        pvalues.append((f"{label} t={t:g}", checks.chi_square_pvalue(counts, probs)))


def _stationary_jump_rate(graph: dict, k: int) -> float:
    """Mean total jump rate of k inclusion particles in their stationary law;
    the lookdown particles' mean is the same."""
    n, alpha = graph["n"], graph["alpha"]
    c = checks.edge_matrix(n, graph["edges"])
    rates = [sum(eta[x] * c[x, y] * (alpha[y] + eta[y]) for x in range(n) for y in range(n))
             for eta in checks.compositions(n, k)]
    return float(np.dot(checks.inclusion_law(alpha, k), rates))


def labeled_mc_op(seed: int, index: int, workdir: Path) -> Op:
    rng = _rng(seed, index)
    K = 4
    graph = _draw_graph(rng, 5, TOPOLOGY_5, 1.0 if _equality(index) else 0.3)
    # Rescaling all edge weights is an exact change of time scale. Fixing the
    # mean jump rate fixes the expected number of jumps the simulations take,
    # so the op's cost does not swing five-fold with the drawn weights.
    scale = SIM_JUMP_RATE / _stationary_jump_rate(graph, K)
    graph["edges"] = [[x, y, w * scale] for x, y, w in graph["edges"]]
    path = _write(workdir / "graph5.json", graph)
    sim_seed = str(int(rng.integers(2 ** 31)))
    simulate = ["simulate", path, "--k", str(K), "--horizon", str(SIM_TIMES[-1]),
                "--paths", str(SIM_PATHS), "--times", ",".join(map(str, SIM_TIMES)),
                "--seed", sim_seed, "--mode"]

    def check(outputs) -> Verdict:
        problems, pvalues = [], []
        _check_verify(outputs[0], "lookdown", K, graph, problems)
        _check_histograms("simulate lookdown", outputs[1], checks.lookdown_law(graph["alpha"], K),
                          problems, pvalues)
        _check_histograms("simulate sip", outputs[2], checks.inclusion_law(graph["alpha"], K),
                          problems, pvalues)
        return Verdict(problems, pvalues)

    return Op([["verify", path, "--K", str(K), "--suite", "lookdown"],
               simulate + ["lookdown"], simulate + ["sip"]], check)


WORKLOADS = {
    "verify_sip": verify_sip_op,
    "gap_sweep": gap_sweep_op,
    "labeled_mc": labeled_mc_op,
}
