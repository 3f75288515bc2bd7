"""Command line front end.

Subcommands: spectrum, verify, sweep, simulate, tv-curve, report.
Exit codes: 0 all checks pass, 1 verification failure, 2 input error,
3 state-space cap exceeded.

Graph arguments accept either a JSON file ({"n": .., "edges": [[x, y, c],
..], "alpha": [..]}) or a preset string complete(n) / path(n) / cycle(n),
optionally with --alpha.  Every output file embeds a run manifest; CSV
files carry it as a single leading comment line.  Floats are printed
with 17 significant digits so outputs round-trip exactly, and outputs
are byte-identical across runs for identical inputs and seeds whenever
SOURCE_DATE_EPOCH pins the manifest timestamp.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import json
import math
import os
import pickle
import signal
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bep import bep_gap_report
from .configs import capped_size, space_size, state_cap
from .errors import InputError, SiplabError, StateCapError, VerificationError
from .graphs import (Graph, as_integer, as_number, build_rw_generator, graph_from_preset,
                     load_graph, rw_gap, rw_spectrum)
from .intertwiners import (Ladder, check_adjoint, check_intertwinings,
                           dirichlet_decomposition_check, eigen_dichotomy,
                           minmax_comparison_check)
from .lookdown import LABELED_CAP, check_labeled_identities, check_stationary_law
from .reporting import CheckSuite, make_check
from .sip import build_sip_generator, gap_sandwich_report, sip_gap, sip_spectrum, tv_sandwich
from .simulate import SimConfig, simulate


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _timestamp() -> str:
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    when = int(pinned) if pinned is not None else int(time.time())
    return datetime.fromtimestamp(when, timezone.utc).isoformat()


def _manifest(subcommand: str, params: dict, digest_source: str | bytes,
              seed: int | None = None) -> dict:
    if isinstance(digest_source, str):
        digest_source = digest_source.encode()
    return {
        "tool": "siplab",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "input_digest": hashlib.sha256(digest_source).hexdigest(),
        "timestamp": _timestamp(),
        "master_seed": seed,
    }


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        _write_text(path, text + "\n")


def _csv_lines(rows) -> list:
    return [",".join(_fmt(v) for v in row) for row in rows]


def _write_csv(path: str | None, header, lines, manifest: dict) -> None:
    """The manifest comment, the header and the formatted data `lines`."""
    text = "\n".join(["# manifest " + json.dumps(manifest, sort_keys=True),
                      ",".join(header), *lines]) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def _parse_alpha(raw: str | None):
    if raw is None:
        return None
    try:
        values = [float(v) for v in raw.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --alpha value {raw!r}") from exc
    return values


def _resolve_graph(spec: str, alpha_raw: str | None) -> tuple[Graph, str]:
    """Returns the graph and the digest source describing the input."""
    alpha = _parse_alpha(alpha_raw)
    if os.path.exists(spec):
        if alpha is not None:
            raise InputError("--alpha applies to presets only; graph files carry alpha")
        graph = load_graph(spec)  # refuses a file it cannot read, a directory too
        return graph, Path(spec).read_bytes().decode(errors="replace")
    graph = graph_from_preset(spec, None)
    if alpha is not None:
        if len(alpha) == 1:
            alpha = alpha * graph.n
        if len(alpha) != graph.n:
            raise InputError(f"--alpha needs 1 or {graph.n} values, got {len(alpha)}")
        graph = graph.with_site_weights(alpha)
    return graph, f"{spec}|alpha={alpha}"


def _int_at_least(least: int, raw: str) -> int:
    if not raw.isdecimal() or int(raw) < least:
        raise argparse.ArgumentTypeError(f"must be an integer of at least {least}, got {raw!r}")
    return int(raw)


def _parse_times(raw: str) -> tuple:
    try:
        times = tuple(float(v) for v in raw.split(","))
    except ValueError as exc:
        raise InputError(f"bad --times value {raw!r}") from exc
    if not times:
        raise InputError("--times must list at least one time")
    return times


def cmd_spectrum(args) -> int:
    graph, digest = _resolve_graph(args.graph, args.alpha)
    rw = rw_spectrum(build_rw_generator(graph), want_vectors=False)
    rows = [(1, i, float(v)) for i, v in enumerate(rw.eigenvalues)]
    payload = {
        "n": graph.n,
        "k": args.k,
        "gap_rw": rw.gap,
        "eigenvalues_rw": [float(v) for v in rw.eigenvalues],
    }
    if args.k != 1:
        spec_k = sip_spectrum(build_sip_generator(graph, args.k), want_vectors=False)
        rows += [(args.k, i, float(v)) for i, v in enumerate(spec_k.eigenvalues)]
        payload["gap_k"] = spec_k.gap
        payload["eigenvalues_k"] = [float(v) for v in spec_k.eigenvalues]
    manifest = _manifest("spectrum", {"graph": args.graph, "k": args.k,
                                      "alpha": args.alpha}, digest)
    payload["manifest"] = manifest
    _write_csv(args.csv, ("k", "index", "eigenvalue"), _csv_lines(rows), manifest)
    if args.json:
        _write_json(args.json, payload)
    return 0


def _suite_sip(ladder: Ladder, k_max: int, rng: np.random.Generator) -> tuple[CheckSuite, dict]:
    report = gap_sandwich_report(ladder[k_max], strict=False)
    checks = []
    for k in range(2, k_max + 1):
        level = ladder[k]
        checks.append(check_adjoint(level))
        checks.extend(check_intertwinings(level))
        dichotomy = eigen_dichotomy(level)
        checks.append(make_check(f"orthogonal-decomposition-dims[k={k}]",
                                 0.0 if dichotomy.passed else 1.0, 0.5))
        for _ in range(3):
            checks.extend(dirichlet_decomposition_check(
                level, rng.standard_normal(level.space.size)).checks)
        checks.extend(minmax_comparison_check(level, rng=rng).checks)
    return CheckSuite("sip", tuple(checks)), report.to_dict()


def _suite_lookdown(ladder: Ladder, k_max: int) -> CheckSuite:
    """Levels 2..k_max up to the labeled cap; the note names the levels past it."""
    n = ladder.graph.n
    checks = []
    k = 2
    while k <= k_max and n ** k <= LABELED_CAP:
        checks.extend(check_labeled_identities(ladder[k]))
        checks.extend(check_stationary_law(ladder[k]).checks)
        k += 1
    if not checks:
        raise InputError("labeled suite needs K >= 2 within the labeled cap")
    note = ("the time-reversed lookdown generator is not constructed; its intertwining "
            "with a labeled particle-addition operator is left unverified")
    if k <= k_max:
        levels = f"level k={k}" if k == k_max else f"levels k={k}..{k_max}"
        note += (f"; {levels} skipped: {n}^{k} = {n ** k} labeled states"
                 f"{' and more' if k < k_max else ''} exceed the cap {LABELED_CAP}")
    return CheckSuite("lookdown", tuple(checks), note=note)


def _run_suites(graph: Graph, k_max: int, suite: str, seed: int) -> dict:
    """Run the requested suites on one shared ladder of levels; returns the
    payload without its manifest."""
    rng = np.random.default_rng(seed)
    ladder = Ladder(graph)
    suites, payload = {}, {}
    if suite in ("all", "sip"):
        suites["sip"], payload["gap_report"] = _suite_sip(ladder, k_max, rng)
    if suite in ("all", "lookdown"):
        suites["lookdown"] = _suite_lookdown(ladder, k_max)
    if suite in ("all", "bep"):
        report = bep_gap_report(ladder[k_max])
        suites["bep"] = CheckSuite("bep", tuple(report.checks))
        payload["bep_report"] = report.to_dict()
    payload["pass"] = (all(s.passed for s in suites.values())
                       and payload.get("gap_report", {"pass": True})["pass"])
    payload["suites"] = {name: s.to_dict() for name, s in suites.items()}
    return payload


def cmd_verify(args) -> int:
    graph, digest = _resolve_graph(args.graph, args.alpha)
    payload = _run_suites(graph, args.K, args.suite, args.seed)
    payload["manifest"] = _manifest("verify", {"graph": args.graph, "K": args.K,
                                               "suite": args.suite, "alpha": args.alpha},
                                    digest, args.seed)
    _write_json(args.json, payload)
    return 0 if payload["pass"] else 1


def _level_gap(graph: Graph, k: int):
    """One sweep task: the gap of level k, or the SiplabError that stopped it."""
    try:
        return sip_gap(build_sip_generator(graph, k))
    except SiplabError as exc:
        return exc


def _sweep_plan(graph: Graph, k_max: int) -> tuple:
    """(walk gap, levels to solve, error that ends the rows or None) of one
    sample, decided in the parent before any level is solved: a
    disconnected graph or a failed walk solve has no levels, and the levels
    stop below the first one over the state cap, whose StateCapError ends
    the rows. So a k_max far past the cap costs no more than the levels
    under it."""
    gap_walk, k = float("nan"), 2
    try:
        if not graph.connected:
            raise InputError(f"graph is disconnected ({graph.components} components) "
                             f"so gap ratios are undefined")
        gap_walk = rw_gap(graph)
        while k <= k_max:
            capped_size(graph.n, k)
            k += 1
    except SiplabError as exc:
        return gap_walk, range(2, k), exc
    return gap_walk, range(2, k), None


@functools.cache  # siplab's imports load every BLAS it computes with
def _openblas_thread_controls() -> tuple:
    """(get, set) of the thread count of each OpenBLAS loaded in this
    process, found once in /proc/self/maps: numpy's and scipy's bundled
    copies (prefixed scipy_openblas, ILP64 symbols suffixed 64_) or a
    system one. Empty off Linux or under another BLAS."""
    if sys.platform != "linux":
        return ()
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapped file that is no library
            continue
        for name in ("scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_",
                     "openblas_{}_num_threads", "openblas_{}_num_threads64_"):
            if hasattr(lib, name.format("set")):
                get, set_count = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_count.argtypes, set_count.restype = [ctypes.c_int], None
                controls.append((get, set_count))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Every OpenBLAS of this process on one thread inside the block, then
    back to its count. Children forked inside inherit the one thread: each
    computing process is one core, and a second BLAS thread per process
    spins on the cores the others need. It also keeps a level's gap to the
    bit whichever process solves it."""
    controls = _openblas_thread_controls()
    counts = [get() for get, _ in controls]
    for _, set_count in controls:
        set_count(1)
    try:
        yield
    finally:
        for (_, set_count), count in zip(controls, counts):
            set_count(count)


def _solve_share(samples: dict, share: list) -> dict:
    return {(i, k): _level_gap(samples[i][0], k) for i, k in share}


def _fork_share(samples: dict, share: list) -> tuple:
    """(pid, read end of its pipe) of a child that solves `share` and sends
    back the pickled {(sample, k): gap or SiplabError}, or the exception
    that stopped it with its traceback, then leaves by os._exit, running
    none of this process's exit handlers or buffered output."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = _solve_share(samples, share)
            except Exception as exc:
                result = exc, traceback.format_exc()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(result))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _sweep_gaps(samples: dict, jobs: int | None) -> dict:
    """{(sample, k): gap or SiplabError} for the `samples` {sample: (graph,
    levels)}. The levels, largest first, each go to the least loaded by
    state count of min(jobs or cores, cores, levels) shares. This process
    solves share 0 and forks a child per other share, which pipes its gaps
    back.

    Processes, not threads: the level builds, ARPACK's
    reverse-communication loop and the small dense solves hold the GIL.
    Plain forks, not a pool: on 2 cores the gap_sweep benchmark's 12
    levels take 55-90 ms in one process, a fork pool of 2 workers costs
    12 ms to start and stop, and a fork with its pipe round trip 5 ms. A
    child that ends without its gaps, or stops on an exception that is no
    SiplabError, raises here, and a child still running when this process
    raises is killed and reaped. Off Linux this process solves every level:
    macOS system libraries are not safe to fork, and a spawned worker would
    import numpy and scipy again, about 0.5 s."""
    sizes = {(i, k): space_size(graph.n, k) for i, (graph, levels) in samples.items()
             for k in levels}
    if not sizes:
        return {}
    cores = (os.cpu_count() or 1) if sys.platform == "linux" else 1
    shares = [[] for _ in range(min(jobs or cores, cores, len(sizes)))]
    loads = [0] * len(shares)
    for task in sorted(sizes, key=lambda task: -sizes[task]):
        least = loads.index(min(loads))
        shares[least].append(task)
        loads[least] += sizes[task]
    children = {}  # pid: read end of the pipe its gaps come back on
    try:
        with _one_blas_thread():
            for share in shares[1:]:
                pid, pipe = _fork_share(samples, share)
                children[pid] = pipe
            gaps = _solve_share(samples, shares[0])
        for pid, pipe in list(children.items()):
            with pipe:
                sent = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0:
                raise RuntimeError(f"sweep child {pid} ended with status {status} "
                                   f"before sending its gaps")
            result = pickle.loads(sent)
            if isinstance(result, tuple):  # the exception that stopped the child
                raise result[0] from RuntimeError(f"in sweep child {pid}:\n{result[1]}")
            gaps.update(result)
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return gaps


def _sweep_rows(spec, ai, plan, gaps: dict) -> list:
    """Rows of one sample from its plan and level gaps, k = 2, 3, ..: each
    level up to the first failing one, then one -1 row for the error that
    ended them."""
    gap_walk, levels, error = plan
    rows = []
    for k in levels:
        if isinstance(gaps[k], SiplabError):
            error = gaps[k]
            break
        rows.append((spec, ai, k, gaps[k], gap_walk, gaps[k] / gap_walk, ""))
    if error is not None:
        rows.append((spec, ai, -1, float("nan"), float("nan"), float("nan"), str(error)))
    return rows


def cmd_sweep(args) -> int:
    try:
        spec_text = Path(args.spec).read_text()
        spec_data = json.loads(spec_text)
    except OSError as exc:
        raise InputError(f"cannot read sweep spec {args.spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed sweep spec: {exc}") from exc
    if not isinstance(spec_data, dict) or not isinstance(spec_data.get("alpha", {}), dict):
        raise InputError("sweep spec must be a JSON object, and its 'alpha' an object")
    graphs = spec_data.get("graphs", [])
    alpha_spec = spec_data.get("alpha", {})
    for where, keys, known in (("", spec_data, ("graphs", "alpha", "k_max", "seed")),
                               ("alpha.", alpha_spec, ("n_samples", "range"))):
        for key in keys:
            if key not in known:
                raise InputError(f"sweep spec has unknown key {where + key!r}")
    n_samples = as_integer(alpha_spec.get("n_samples", 0), "alpha.n_samples")
    rng_range = alpha_spec.get("range", [])
    k_max = as_integer(spec_data.get("k_max", 0), "k_max")
    seed = as_integer(spec_data.get("seed", 0), "seed")
    if (not isinstance(graphs, list) or not graphs
            or not all(isinstance(spec, str) for spec in graphs)
            or n_samples < 1 or k_max < 2 or not isinstance(rng_range, list)
            or len(rng_range) != 2 or seed < 0):
        raise InputError("sweep spec needs a nonempty list of graph strings 'graphs', "
                         "alpha.n_samples >= 1, alpha.range [lo, hi], k_max >= 2 "
                         "and seed >= 0")
    lo, hi = (as_number(v, "alpha.range entry") for v in rng_range)
    if not 0 < lo <= hi < math.inf:
        raise InputError("alpha.range must satisfy 0 < lo <= hi < inf")
    samples = []
    for gi, spec in enumerate(graphs):
        base = graph_from_preset(spec) if not os.path.exists(spec) else load_graph(spec)
        for ai in range(n_samples):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                               spawn_key=(gi, ai)))
            alpha = np.exp(rng.uniform(np.log(lo), np.log(hi), size=base.n))
            samples.append((spec, ai, base.with_site_weights(alpha)))
    plans = [_sweep_plan(graph, k_max) for _, _, graph in samples]
    gaps = _sweep_gaps({i: (graph, plans[i][1]) for i, (_, _, graph) in enumerate(samples)},
                       args.jobs)
    ordered = [row for i, (spec, ai, _) in enumerate(samples)
               for row in _sweep_rows(spec, ai, plans[i],
                                      {k: gaps[i, k] for k in plans[i][1]})]
    manifest = _manifest("sweep", {"spec": args.spec, "k_max": k_max,
                                   "n_samples": n_samples}, spec_text, seed)
    _write_csv(args.csv, ("graph_id", "alpha_id", "k", "gap_k", "gap_rw", "ratio", "error"),
               _csv_lines(ordered), manifest)
    return 1 if any(r[-1] for r in ordered) else 0


def cmd_simulate(args) -> int:
    graph, digest = _resolve_graph(args.graph, args.alpha)
    cfg = SimConfig(graph, args.k, args.mode, args.horizon, args.paths,
                    args.seed, _parse_times(args.times))
    summary = simulate(cfg)
    # a line per rank seen at each time: the time formatted once, ranks and counts as ints
    lines = []
    for stamp, row in zip(map(_fmt, cfg.times), summary.counts):
        ranks = np.flatnonzero(row)
        lines += [f"{stamp},{rank},{count}" for rank, count in zip(ranks.tolist(),
                                                                  row[ranks].tolist())]
    manifest = _manifest("simulate", {"graph": args.graph, "mode": args.mode,
                                      "k": args.k, "horizon": args.horizon,
                                      "paths": args.paths, "times": args.times},
                         digest, args.seed)
    _write_csv(args.csv, ("time", "state_rank", "count"), lines, manifest)
    if args.json:
        _write_json(args.json, {
            "manifest": manifest,
            "n_paths": cfg.n_paths,
            "n_absorbed": summary.n_absorbed,
            "samples_per_time": {str(t): int(row.sum())
                                 for t, row in zip(cfg.times, summary.counts)},
        })
    return 0


def cmd_tv_curve(args) -> int:
    graph, digest = _resolve_graph(args.graph, args.alpha)
    gen = build_sip_generator(graph, args.k)
    table = tv_sandwich(gen, _parse_times(args.times), strict=False)
    manifest = _manifest("tv-curve", {"graph": args.graph, "k": args.k,
                                      "times": args.times}, digest)
    rows = [(r.t, r.value, r.lower, r.upper, int(r.passed)) for r in table.rows]
    _write_csv(args.csv, ("time", "tv_sup", "lower", "upper", "pass"), _csv_lines(rows), manifest)
    return 0 if table.passed else 1


def cmd_report(args) -> int:
    """All three suites at K, on one shared ladder, with the state cap."""
    graph, digest = _resolve_graph(args.graph, args.alpha)
    payload = _run_suites(graph, args.K, "all", args.seed)
    payload["manifest"] = _manifest("report", {"graph": args.graph, "K": args.K,
                                               "alpha": args.alpha}, digest, args.seed)
    payload["state_cap"] = state_cap()
    _write_json(args.json, payload)
    return 0 if payload["pass"] else 1


@functools.cache  # built on the first call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="siplab",
                                     description="Spectral laboratory for inclusion "
                                                 "particle systems on weighted graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arg(p):
        p.add_argument("graph", help="graph JSON file or preset like complete(4)")
        p.add_argument("--alpha", help="comma separated site weights for presets")

    p = sub.add_parser("spectrum", help="eigenvalues of the walk and of level k")
    add_graph_arg(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--csv", help="CSV output path (default stdout)")
    p.add_argument("--json", help="optional JSON output path")

    p = sub.add_parser("verify", help="run identity and inequality suites")
    add_graph_arg(p)
    p.add_argument("--K", type=int, required=True, help="largest particle number")
    p.add_argument("--suite", choices=("all", "sip", "lookdown", "bep"), default="all")
    p.add_argument("--seed", type=functools.partial(_int_at_least, 0), default=0)
    p.add_argument("--json", help="JSON output path (default stdout)")

    p = sub.add_parser("sweep", help="gap ratios over graphs and random site weights")
    p.add_argument("spec", help="sweep spec JSON file")
    p.add_argument("--csv", help="CSV output path (default stdout)")
    p.add_argument("--jobs", type=functools.partial(_int_at_least, 1),
                   help="processes that solve levels, this one included: at most the "
                        "cores and the levels to solve (default: cores)")

    p = sub.add_parser("simulate", help="Monte Carlo state histograms")
    add_graph_arg(p)
    p.add_argument("--mode", choices=("sip", "lookdown"), default="sip")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=functools.partial(_int_at_least, 0), default=0)
    p.add_argument("--times", required=True, help="comma separated sampling times")
    p.add_argument("--csv", help="CSV output path (default stdout)")
    p.add_argument("--json", help="optional JSON summary path")

    p = sub.add_parser("tv-curve", help="worst-start total variation against bounds")
    add_graph_arg(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--times", required=True)
    p.add_argument("--csv", help="CSV output path (default stdout)")

    p = sub.add_parser("report", help="aggregate verification report")
    add_graph_arg(p)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--seed", type=functools.partial(_int_at_least, 0), default=0)
    p.add_argument("--json", help="JSON output path (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # looked up at each call, not bound into the cached parser, so a
        # wrapped or patched command is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except InputError as exc:
        print(f"siplab: input error: {exc}", file=sys.stderr)
        return 2
    except StateCapError as exc:
        print(f"siplab: state cap: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"siplab: verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
