"""Benchmark of the siplab command line, one workload per run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client calls siplab.cli.main in-process with ops back to back (a
closed loop), in a fresh process per run, with BLAS pinned to one thread
and `sweep --jobs 2`. Each op's wall time is divided by the mean time of a
fixed reference kernel run just before and after it, so drift in the
host's speed cancels. Op 0 warms up, uncounted in the timings, and is
re-run at the end with its output byte-compared. Every op's output is
checked (see workloads.py).

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced pairs of ops and prints the per-layer
metrics; see tracing.py. The last line of stdout is the result object;
the line before it records the run's settings.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# Pinned for the whole run, so op 0 and its re-run can be byte-compared.
os.environ["SOURCE_DATE_EPOCH"] = "1700000000"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 3
TAIL_BEYOND = 10
# Family-wise false-alarm level of all goodness-of-fit tests in one run.
MC_FAMILY_LEVEL = 1e-4
REF_LOOP = 300_000
REF_SIZE = 300
REF_SOLVES = 4


def reference_matrix() -> np.ndarray:
    a = np.random.default_rng(0).standard_normal((REF_SIZE, REF_SIZE))
    return a + a.T


def reference_kernel(matrix: np.ndarray) -> float:
    """Seconds for a fixed mix of interpreted Python, dict updates and a
    symmetric eigensolve, the kinds of work siplab's ops do."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(REF_LOOP):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 1023] = table.get(acc & 1023, 0) + 1
    for _ in range(REF_SOLVES):
        np.linalg.eigvalsh(matrix)
    return time.perf_counter() - start


def cpu_ticks():
    """(steal, total) jiffies of the whole machine from /proc/stat, read only."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]
    except OSError:
        return 0, 0
    ticks = [int(v) for v in fields]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


class Client:
    """Runs ops of one workload and keeps each op's verdict."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path):
        self.cli = cli
        self.make_op = workloads.WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.verdicts = []
        self.output_bytes = 0

    def op(self, index: int):
        """Write op `index`'s inputs, run it, check it: (seconds, outputs)."""
        op = self.make_op(self.seed, index, self.workdir)
        outputs = []
        start = time.perf_counter()
        for argv in op.commands:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)
            except Exception:
                code = "exception"
                err.write(traceback.format_exc())
            if code != 0:
                sys.stderr.write(f"op {index} {argv[0]}: exit {code}\n{err.getvalue()}")
            outputs.append((code, out.getvalue()))
        seconds = time.perf_counter() - start
        self.output_bytes += sum(len(text.encode()) for _, text in outputs)
        self.verdicts.append(op.check(outputs))
        return seconds, outputs

    def rerun_first(self, first_outputs) -> None:
        """Re-run op 0; output differing from its first run fails the op."""
        _, outputs = self.op(0)
        if outputs != first_outputs:
            self.verdicts[-1].problems.append("re-run of op 0 gave different output")

    def failures(self) -> list:
        """Problems per failed op. The goodness-of-fit tests of the whole run
        share MC_FAMILY_LEVEL (Bonferroni), so a run of many exact simulations
        does not fail by chance."""
        n_tests = sum(len(v.pvalues) for v in self.verdicts)
        level = MC_FAMILY_LEVEL / max(1, n_tests)
        failed = []
        for verdict in self.verdicts:
            problems = verdict.problems + [f"{label}: p={p:.3g} <= {level:.3g}"
                                           for label, p in verdict.pvalues if not p > level]
            if problems:
                failed.append(problems)
        return failed


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of fresh interpreters importing siplab.cli and
    writing the first op's inputs, started one at a time."""
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
                        str(workdir)], check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_ops(client: Client, matrix, seconds: float):
    """Ops 1, 2, ... back to back for `seconds`: (each op's ratio to the
    reference, the reference's times)."""
    refs = [reference_kernel(matrix)]
    ratios = []
    index = 1
    deadline = time.perf_counter() + seconds
    while not ratios or time.perf_counter() < deadline:
        dt, _ = client.op(index)
        refs.append(reference_kernel(matrix))
        ratios.append(dt / (0.5 * (refs[-2] + refs[-1])))
        index += 1
    return ratios, refs


def end_to_end(client: Client, matrix, seconds: float, setup_s: float, info: dict) -> dict:
    ratios, refs = timed_ops(client, matrix, seconds)
    # The ratio with TAIL_BEYOND ops above it, but not below the median: with
    # fewer than 2 * TAIL_BEYOND + 1 ops no rank above the median qualifies.
    ordered = sorted(ratios)
    median = statistics.median(ratios)
    tail_rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    tail = max(median, ordered[tail_rank])
    info.update(n_ops=len(ratios), tail_is_median=tail == median,
                tail_percentile=round(100.0 * tail_rank / (len(ordered) - 1), 1)
                if tail != median else 50.0,
                ref_p50_s=statistics.median(refs), ratios=ratios)
    return {
        "op_p50_ref": median,
        "op_tail_ref": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(client: Client, matrix, seconds: float, info: dict) -> dict:
    """Blocks of an untraced then a traced pair of ops, one pair of each
    regime, until `seconds` pass. Call counts come from the first traced
    pair, whose inputs depend on the seed only; shares from all of them."""
    tracer = Tracer()
    refs = [reference_kernel(matrix)]
    plain, traced = [], []
    first_pair_counts = None
    index = 1
    deadline = time.perf_counter() + seconds
    while first_pair_counts is None or time.perf_counter() < deadline:
        for times, tracing in ((plain, False), (traced, True)):
            for _ in range(2):
                if tracing:
                    tracer.install()
                try:
                    dt, _ = client.op(index)
                finally:
                    tracer.uninstall()
                refs.append(reference_kernel(matrix))
                times.append(dt)
                index += 1
            if tracing and first_pair_counts is None:
                first_pair_counts = tracer.totals()["counts"]
    totals = tracer.totals()
    traced_s = sum(traced)
    ref_p50 = statistics.median(refs)
    n_ops = len(plain) + len(traced)
    info.update(n_ops=n_ops, n_traced=len(traced), ref_p50_s=ref_p50)
    simulate_s = totals["total_s"]["simulate.simulate"]
    values = {
        "run.op_p50_s": statistics.median(plain),
        "run.ref_p50_s": ref_p50,
        "run.trace_overhead": statistics.median(traced) / statistics.median(plain),
        "cli.output_bytes": client.output_bytes / (n_ops + 1),
        "sip.build_sip_generator.states": first_pair_counts["sip.build_sip_generator.states"] / 2,
        "sip.build_sip_generator.bytes": totals["maxima"]["sip.build_sip_generator.bytes"],
        "simulate.paths_per_ref": (totals["counts"]["simulate.simulate.paths"] * ref_p50 / simulate_s
                                   if simulate_s else 0.0),
    }
    for key in tracer.functions:
        values[f"{key}.calls"] = first_pair_counts[key] / 2
        values[f"{key}.share"] = values[f"{key}.self_share"] = totals["self_s"][key] / traced_s
    for module in {key.partition(".")[0] for key in tracer.functions}:
        values[f"{module}.share"] = sum(s for key, s in totals["self_s"].items()
                                        if key.partition(".")[0] == module) / traced_s
    return values


def layer_value(values: dict, name: str) -> float:
    """A listed per-layer metric; a function absent from siplab did no work."""
    if name in values:
        return values[name]
    if name.rpartition(".")[2] in ("calls", "share", "self_share", "states", "bytes"):
        return 0.0
    raise KeyError(f"no per-layer value for {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    cli = workloads.import_cli()
    import scipy

    workloads.SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workloads.SCRATCH))
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": os.cpu_count(), "threads": {v: os.environ[v] for v in THREAD_VARS},
            "sweep_jobs": workloads.SWEEP_JOBS, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}
    try:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed, workdir)
        client = Client(cli, args.workload, args.seed, workdir)
        matrix = reference_matrix()
        _, first = client.op(0)
        reference_kernel(matrix)
        steal0, total0 = cpu_ticks()
        if args.trace:
            values = per_layer(client, matrix, args.seconds, info)
        else:
            values = end_to_end(client, matrix, args.seconds, setup_s, info)
        steal1, total1 = cpu_ticks()
        client.rerun_first(first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workloads.SCRATCH.rmdir()

    failed = client.failures()
    attempted = len(client.verdicts)
    values["ok_frac"] = (attempted - len(failed)) / attempted
    values["run.steal_frac"] = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    info.update(failed_ops=[problems[:3] for problems in failed[:5]],
                steal_frac=values["run.steal_frac"])
    for problems in failed:
        sys.stderr.write("failed op: " + "; ".join(problems) + "\n")
    metrics = {m["name"]: {"value": layer_value(values, m["name"]) if args.trace
                           else values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
