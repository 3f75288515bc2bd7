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
import concurrent.futures
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bep import bep_gap_report
from .configs import enumerate_configs, state_cap
from .errors import InputError, SiplabError, StateCapError, VerificationError
from .graphs import (Graph, build_rw_generator, graph_from_preset, load_graph, rw_gap,
                     rw_spectrum)
from .intertwiners import (Ladder, check_adjoint, check_intertwinings,
                           dirichlet_decomposition_check, eigen_dichotomy,
                           minmax_comparison_check)
from .lookdown import DEFAULT_LABELED_CAP, check_labeled_identities, check_stationary_law
from .reporting import CheckSuite, make_check
from .sip import build_sip_generator, gap_sandwich_report, sip_gap, sip_spectrum, tv_sandwich
from .simulate import SimConfig, simulate

REPORT_MAX_DEGREE = 4


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


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + "\n")


def _write_csv(path: str | None, header, rows, manifest: dict) -> None:
    lines = ["# manifest " + json.dumps(manifest, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


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
        data = Path(spec).read_bytes()
        return load_graph(spec), data.decode(errors="replace")
    graph = graph_from_preset(spec, None)
    if alpha is not None:
        if len(alpha) == 1:
            alpha = alpha * graph.n
        if len(alpha) != graph.n:
            raise InputError(f"--alpha needs 1 or {graph.n} values, got {len(alpha)}")
        graph = graph.with_site_weights(alpha)
    return graph, f"{spec}|alpha={alpha}"


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
    _write_csv(args.csv, ("k", "index", "eigenvalue"), rows, manifest)
    if args.json:
        _write_json(args.json, payload)
    return 0


def _suite_sip(ladder: Ladder, k_max: int, rng: np.random.Generator) -> tuple[CheckSuite, dict]:
    report = gap_sandwich_report(ladder.graph, k_max, strict=False)
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
    while k <= k_max and n ** k <= DEFAULT_LABELED_CAP:
        checks.extend(check_labeled_identities(ladder[k]))
        checks.extend(check_stationary_law(ladder.graph, k).checks)
        k += 1
    if not checks:
        raise InputError("labeled suite needs K >= 2 within the labeled cap")
    note = ("the time-reversed lookdown generator is not constructed; its intertwining "
            "with a labeled particle-addition operator is left unverified")
    if k <= k_max:
        levels = f"level k={k}" if k == k_max else f"levels k={k}..{k_max}"
        note += (f"; {levels} skipped: {n}^{k} = {n ** k} labeled states"
                 f"{' and more' if k < k_max else ''} exceed the cap {DEFAULT_LABELED_CAP}")
    return CheckSuite("lookdown", tuple(checks), note=note)


def _run_suites(graph: Graph, k_max: int, suite: str, seed: int, bep_degree: int) -> dict:
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
        report = bep_gap_report(ladder[bep_degree])
        suites["bep"] = CheckSuite("bep", tuple(report.checks))
        payload["bep_report"] = report.to_dict()
    payload["pass"] = (all(s.passed for s in suites.values())
                       and payload.get("gap_report", {"pass": True})["pass"])
    payload["suites"] = {name: s.to_dict() for name, s in suites.items()}
    return payload


def cmd_verify(args) -> int:
    graph, digest = _resolve_graph(args.graph, args.alpha)
    payload = _run_suites(graph, args.K, args.suite, args.seed, args.K)
    payload["manifest"] = _manifest("verify", {"graph": args.graph, "K": args.K,
                                               "suite": args.suite, "alpha": args.alpha},
                                    digest, args.seed)
    _write_json(args.json, payload)
    return 0 if payload["pass"] else 1


def _sweep_rows(graphs, n_samples, lo, hi, k_max, seed):
    tasks = []
    for gi, spec in enumerate(graphs):
        base = graph_from_preset(spec) if not os.path.exists(spec) else load_graph(spec)
        for ai in range(n_samples):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                               spawn_key=(gi, ai)))
            alpha = np.exp(rng.uniform(np.log(lo), np.log(hi), size=base.n))
            tasks.append((gi, spec, ai, base.with_site_weights(alpha)))
    return tasks


def _sweep_one(task, k_max):
    gi, spec, ai, graph = task
    rows = []
    try:
        if not graph.connected:
            raise InputError(f"graph is disconnected ({graph.components} components) "
                             f"so gap ratios are undefined")
        gap_walk = rw_gap(graph)
        for k in range(2, k_max + 1):
            gap_k = sip_gap(graph, k)
            rows.append((spec, ai, k, gap_k, gap_walk, gap_k / gap_walk, ""))
    except SiplabError as exc:
        rows.append((spec, ai, -1, float("nan"), float("nan"), float("nan"), str(exc)))
    return (gi, ai), rows


def cmd_sweep(args) -> int:
    try:
        spec_data = json.loads(Path(args.spec).read_text())
    except OSError as exc:
        raise InputError(f"cannot read sweep spec {args.spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed sweep spec: {exc}") from exc
    graphs = spec_data.get("graphs", [])
    alpha_spec = spec_data.get("alpha", {})
    n_samples = int(alpha_spec.get("n_samples", 0))
    rng_range = alpha_spec.get("range", [])
    k_max = int(spec_data.get("k_max", 0))
    seed = int(spec_data.get("seed", 0))
    if not graphs or n_samples < 1 or k_max < 2 or len(rng_range) != 2:
        raise InputError("sweep spec needs nonempty 'graphs', alpha.n_samples >= 1, "
                         "alpha.range [lo, hi], and k_max >= 2")
    lo, hi = float(rng_range[0]), float(rng_range[1])
    if not 0 < lo <= hi:
        raise InputError("alpha.range must satisfy 0 < lo <= hi")
    tasks = _sweep_rows(graphs, n_samples, lo, hi, k_max, seed)
    jobs = args.jobs or os.cpu_count() or 1
    results = {}
    if jobs == 1:
        for task in tasks:
            key, rows = _sweep_one(task, k_max)
            results[key] = rows
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            for key, rows in pool.map(lambda t: _sweep_one(t, k_max), tasks):
                results[key] = rows
    ordered = []
    for key in sorted(results):
        ordered.extend(results[key])
    manifest = _manifest("sweep", {"spec": args.spec, "k_max": k_max,
                                   "n_samples": n_samples}, Path(args.spec).read_text(), seed)
    _write_csv(args.csv, ("graph_id", "alpha_id", "k", "gap_k", "gap_rw", "ratio", "error"),
               ordered, manifest)
    return 1 if any(r[-1] for r in ordered) else 0


def cmd_simulate(args) -> int:
    graph, digest = _resolve_graph(args.graph, args.alpha)
    cfg = SimConfig(graph, args.k, args.mode, args.horizon, args.paths,
                    args.seed, _parse_times(args.times))
    summary = simulate(cfg)
    if cfg.mode == "sip":
        space = enumerate_configs(graph.n, cfg.k)
        rank = lambda states: space.rank_keys(states @ space.place)
    else:  # mixed radix, bottom label the most significant digit
        place = graph.n ** np.arange(cfg.k - 1, -1, -1)
        rank = lambda states: states @ place
    rows = []
    for t in cfg.times:
        hist = summary.histograms[t]
        ranks = rank(np.array(list(hist)))
        counts = list(hist.values())
        rows.extend((t, int(ranks[i]), counts[i]) for i in np.argsort(ranks))
    manifest = _manifest("simulate", {"graph": args.graph, "mode": args.mode,
                                      "k": args.k, "horizon": args.horizon,
                                      "paths": args.paths, "times": args.times},
                         digest, args.seed)
    _write_csv(args.csv, ("time", "state_rank", "count"), rows, manifest)
    if args.json:
        _write_json(args.json, {
            "manifest": manifest,
            "n_paths": cfg.n_paths,
            "n_absorbed": summary.n_absorbed,
            "samples_per_time": {str(t): summary.counts_total(t) for t in cfg.times},
        })
    return 0


def cmd_tv_curve(args) -> int:
    graph, digest = _resolve_graph(args.graph, args.alpha)
    gen = build_sip_generator(graph, args.k)
    table = tv_sandwich(gen, _parse_times(args.times), strict=False)
    manifest = _manifest("tv-curve", {"graph": args.graph, "k": args.k,
                                      "times": args.times}, digest)
    rows = [(r.t, r.value, r.lower, r.upper, int(r.passed)) for r in table.rows]
    _write_csv(args.csv, ("time", "tv_sup", "lower", "upper", "pass"), rows, manifest)
    return 0 if table.passed else 1


def cmd_report(args) -> int:
    """All three suites, with the diffusion truncated at degree
    min(K, REPORT_MAX_DEGREE); the payload records the requested degree
    and why it was clamped."""
    graph, digest = _resolve_graph(args.graph, args.alpha)
    degree = min(args.K, REPORT_MAX_DEGREE)
    payload = _run_suites(graph, args.K, "all", args.seed, degree)
    payload["bep_degree"] = {"requested": args.K, "used": degree, "reason": None}
    if degree < args.K:
        payload["bep_degree"]["reason"] = (
            f"report truncates the diffusion at degree {REPORT_MAX_DEGREE}, so the "
            f"symbolic diffusion matrix stays small; `verify --suite bep --K {args.K}` "
            f"checks it at degree {args.K}")
    payload["manifest"] = _manifest("report", {"graph": args.graph, "K": args.K,
                                               "alpha": args.alpha}, digest, args.seed)
    payload["state_cap"] = state_cap()
    _write_json(args.json, payload)
    return 0 if payload["pass"] else 1


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
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run identity and inequality suites")
    add_graph_arg(p)
    p.add_argument("--K", type=int, required=True, help="largest particle number")
    p.add_argument("--suite", choices=("all", "sip", "lookdown", "bep"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="JSON output path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="gap ratios over graphs and random site weights")
    p.add_argument("spec", help="sweep spec JSON file")
    p.add_argument("--csv", help="CSV output path (default stdout)")
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo state histograms")
    add_graph_arg(p)
    p.add_argument("--mode", choices=("sip", "lookdown"), default="sip")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--times", required=True, help="comma separated sampling times")
    p.add_argument("--csv", help="CSV output path (default stdout)")
    p.add_argument("--json", help="optional JSON summary path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tv-curve", help="worst-start total variation against bounds")
    add_graph_arg(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--times", required=True)
    p.add_argument("--csv", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_tv_curve)

    p = sub.add_parser("report", help="aggregate verification report")
    add_graph_arg(p)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="JSON output path (default stdout)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
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
