"""Result aggregation, table formatting, and the runner CLI.

Besides the formatting helpers, this module is executable::

    python -m repro.bench.report coarsen  --graph ppa --machine gpu --trace-dir traces/
    python -m repro.bench.report partition --graph ppa --refinement spectral --trace-dir traces/
    python -m repro.bench.report corpus   --machine gpu --trace-dir traces/

Each invocation runs the configured pipeline(s) through the harness,
prints the result table, and — with ``--trace-dir`` — writes one
``<key>.trace.json`` per run next to a ``results.json``, so every
simulated-seconds number in the table is backed by a span trace that
``python -m repro.trace view/diff/export`` can break down, gate, or
render in Perfetto.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Iterable

__all__ = [
    "geomean",
    "median",
    "format_table",
    "ratio",
    "format_cache_stats",
    "write_trace",
    "write_results",
    "wallclock_key",
    "wallclock_reference",
    "merge_wallclock_file",
    "main",
]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, skipping non-finite entries (OOM rows etc.)."""
    vals = [v for v in values if v is not None and math.isfinite(v) and v > 0]
    if not vals:
        return float("nan")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def median(values: Iterable[float]) -> float:
    vals = sorted(v for v in values if v is not None and math.isfinite(v))
    if not vals:
        return float("nan")
    k = len(vals)
    mid = k // 2
    return vals[mid] if k % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def ratio(num: float | None, den: float | None) -> float | None:
    """num/den, propagating OOM (None) and guarding zero denominators."""
    if num is None or den is None or den == 0:
        return None
    return num / den


def _fmt(v, spec: str) -> str:
    if v is None:
        return "OOM"
    if isinstance(v, float) and math.isnan(v):
        return "-"
    try:
        return format(v, spec)
    except (TypeError, ValueError):
        return str(v)


def format_cache_stats(status: dict) -> str:
    """One-paragraph summary of :func:`repro.bench.harness.cache_stats`.

    Shows where benchmark time actually went: a run that silently
    regenerated half the corpus reports very different wall-clocks than
    one served entirely from cache.
    """
    c = status.get("counters", {})
    mib = status.get("bytes", 0) / (1024 * 1024)
    lines = [
        f"graph cache  {status.get('root', '?')}",
        f"  entries {status.get('entries', 0)} ({mib:.1f} MiB)"
        f"  quarantined {status.get('quarantined_files', 0)}",
        f"  hits {c.get('hits', 0)}  misses {c.get('misses', 0)}"
        f"  regenerations {c.get('regenerations', 0)}"
        f"  corruptions {c.get('corruptions', 0)}",
        f"  generation {c.get('generation_seconds', 0.0):.2f}s"
        f"  load {c.get('load_seconds', 0.0):.2f}s",
    ]
    return "\n".join(lines)


def format_table(
    rows: list[dict],
    columns: list[tuple[str, str, str]],
    title: str = "",
) -> str:
    """Render rows as an aligned text table.

    ``columns`` is ``[(key, header, format_spec), ...]``; ``None`` cell
    values render as ``OOM`` (the paper's out-of-memory marker).
    """
    header = "  ".join(h.rjust(max(len(h), 9)) if i else h.ljust(14)
                       for i, (_, h, _s) in enumerate(columns))
    lines = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        cells = []
        for i, (key, h, spec) in enumerate(columns):
            text = _fmt(row.get(key), spec)
            cells.append(text.ljust(14) if i == 0 else text.rjust(max(len(h), 9)))
        lines.append("  ".join(cells))
    return "\n".join(lines)


# --------------------------------------------------------- trace writing


def write_trace(result: dict, trace_dir) -> Path | None:
    """Write one harness result's trace into ``trace_dir``.

    The filename is the trace's config key with ``:`` replaced by ``-``
    (filesystem-safe), suffixed ``.trace.json``; returns the path, or
    None when the result carries no trace.
    """
    tracer = result.get("trace")
    if tracer is None:
        return None
    trace = tracer.to_dict() if hasattr(tracer, "to_dict") else tracer
    name = trace["key"].replace(":", "-") + ".trace.json"
    path = Path(trace_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace, indent=1, sort_keys=True))
    return path


def write_results(rows: list[dict], trace_dir) -> Path:
    """Write the scalar fields of harness results as ``results.json``."""
    def scalars(row: dict) -> dict:
        return {
            k: v for k, v in row.items()
            if isinstance(v, (int, float, str, bool)) or v is None
        }

    path = Path(trace_dir) / "results.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([scalars(r) for r in rows], indent=1, sort_keys=True))
    return path


# ------------------------------------------------------------ runner CLI

#: wall-clock baseline schema: one file, one entry per gated configuration
WALLCLOCK_SCHEMA = 2


def wallclock_key(machine: str, coarsener: str, constructor: str, seed: int,
                  jobs: int = 1, tier: str = "base", threads: int = 1) -> str:
    """Config key of one wall-clock baseline entry.

    Parallel runs (``jobs > 1``) gate against their own ``:jN`` entry:
    in-worker repetition times include whatever core/bandwidth
    contention that worker count causes, so comparing them against a
    serial baseline would misread contention as a kernel regression.
    Non-base scale tiers likewise gate against their own ``:xN`` entry,
    and tile-threaded runs (``--threads M > 1``) against ``:tM`` —
    their wall-clock is *expected* to differ from serial even though
    the results are byte-identical.
    """
    key = f"{machine}:{coarsener}:{constructor}:s{seed}"
    if tier != "base":
        key = f"{key}:{tier}"
    if jobs > 1:
        key = f"{key}:j{jobs}"
    return f"{key}:t{threads}" if threads > 1 else key


def merge_wallclock_file(path: Path, key: str, entry: dict) -> None:
    """Insert/replace one config entry in a wall-clock baseline file."""
    doc = {"schema": WALLCLOCK_SCHEMA, "configs": {}}
    if path.exists():
        try:
            old = json.loads(path.read_text())
        except ValueError:
            old = {}
        if isinstance(old.get("configs"), dict):
            doc["configs"] = dict(old["configs"])
    doc["configs"][key] = entry
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def wallclock_reference(ref: dict, key: str) -> dict | None:
    """Find the entry gating ``key`` in a baseline file."""
    configs = ref.get("configs")
    return configs.get(key) if isinstance(configs, dict) else None


_COARSEN_COLUMNS = [
    ("graph", "Graph", "s"),
    ("total_s", "Total(s)", ".4g"),
    ("mapping_s", "Mapping", ".4g"),
    ("construction_s", "Constr", ".4g"),
    ("transfer_s", "Transfer", ".4g"),
    ("grco_pct", "%GrCo", ".1f"),
    ("levels", "Levels", "d"),
    ("cr", "CR", ".2f"),
]

_PARTITION_COLUMNS = [
    ("graph", "Graph", "s"),
    ("cut", "Cut", ".0f"),
    ("total_s", "Total(s)", ".4g"),
    ("coarsen_s", "Coarsen", ".4g"),
    ("refine_s", "Refine", ".4g"),
    ("coarsen_pct", "%Coarsen", ".1f"),
    ("levels", "Levels", "d"),
]


#: exit status when a session completed but quarantined at least one task
EXIT_QUARANTINED = 3


def _had_faults(summary: dict) -> bool:
    return bool(
        summary.get("retries")
        or summary.get("crashes")
        or summary.get("hangs")
        or summary.get("quarantined")
        or summary.get("resumed")
        or summary.get("degradations")
    )


def _emit(rows: list[dict], columns, title: str, args, summary: dict | None = None) -> int:
    print(format_table(rows, columns, title))
    if summary is not None and (summary.get("jobs", 1) > 1 or _had_faults(summary)):
        from ..parallel.pool import format_pool_summary

        print(format_pool_summary(summary))
    if args.trace_dir is not None:
        written = [write_trace(r, args.trace_dir) for r in rows]
        write_results(rows, args.trace_dir)
        print(f"wrote {sum(p is not None for p in written)} trace(s) + "
              f"results.json to {args.trace_dir}")
    if summary is not None and summary.get("quarantined"):
        print(f"ERROR: {summary['quarantined']} task(s) quarantined after "
              "retries were exhausted (see FAILED lines above)")
        return EXIT_QUARANTINED
    return 0


def _resolve_jobs(args) -> int:
    """``--jobs`` resolution: default 1 (serial), 0 = every usable core.

    Explicit values are clamped to the usable (affinity-aware) core
    count — more worker processes than cores only adds contention, and
    combined with ``--threads`` would oversubscribe quadratically.
    """
    from ..parallel.tiles import usable_cores

    jobs = getattr(args, "jobs", 1)
    return min(usable_cores() if jobs == 0 else max(1, jobs), usable_cores())


def _budget_bytes(args) -> int | None:
    """``--memory-budget`` resolved to bytes (None when unset)."""
    text = getattr(args, "memory_budget", None)
    if not text:
        return None
    from ..storage.budget import parse_budget

    return parse_budget(text)


def _task_from_args(kind: str, graph: str, args, **overrides):
    from ..generators.tiers import tier_name
    from ..parallel.pool import ExperimentTask

    return ExperimentTask(
        kind=kind,
        graph=tier_name(graph, getattr(args, "tier", "base")),
        machine=args.machine,
        coarsener=args.coarsener,
        constructor=args.constructor,
        refinement=getattr(args, "refinement", "spectral"),
        seed=args.seed,
        oom=args.oom,
        memory_budget=_budget_bytes(args),
        **overrides,
    )


def _run_session(tasks, args):
    """Fan tasks out through the fault-tolerant session layer."""
    from ..parallel.session import run_session
    from ..parallel.tiles import resolve_threads

    return run_session(
        tasks,
        jobs=_resolve_jobs(args),
        session_dir=getattr(args, "resume", None),
        retries=getattr(args, "retries", 2),
        task_timeout=getattr(args, "task_timeout", None),
        validate_corpus=getattr(args, "validate_corpus", False),
        threads=resolve_threads(getattr(args, "threads", None)),
    )


def _run_tasks(tasks, args):
    """Run tasks serially or through the worker pool, per ``--jobs``."""
    out = _run_session(tasks, args)
    return out.results, out.summary


def _cmd_coarsen(args) -> int:
    rows, summary = _run_tasks([_task_from_args("coarsen", args.graph, args)], args)
    title = (f"coarsening {args.graph} on {args.machine} "
             f"({args.coarsener}+{args.constructor}, seed {args.seed})")
    return _emit(rows, _COARSEN_COLUMNS, title, args, summary)


def _cmd_partition(args) -> int:
    rows, summary = _run_tasks([_task_from_args("partition", args.graph, args)], args)
    title = (f"bisection {args.graph} on {args.machine} "
             f"({args.coarsener}+{args.constructor}, {args.refinement} "
             f"refinement, seed {args.seed})")
    return _emit(rows, _PARTITION_COLUMNS, title, args, summary)


def _cmd_corpus_wallclock(args) -> int:
    """Host wall-clock (not simulated seconds) over the whole corpus.

    Each graph's pipeline is warmed (``--warmup`` untimed repetitions,
    after the corpus cache itself was warmed by loading every graph up
    front) and then timed for ``--reps`` repetitions; the per-graph best
    is the noise-robust headline (best-of-N), reported alongside the
    per-graph median (the honest typical-rep estimator).  With
    ``--jobs N`` the per-graph repetition blocks fan out over the worker
    pool, largest graph first.  ``--wallclock-out`` merges this config's
    entry into the (multi-config, schema-2) baseline file, and
    ``--compare-wallclock REF`` exits non-zero when the per-graph-best
    sum regresses more than ``--max-regression`` against the matching
    entry — the CI gate for the vectorized kernels, on both the serial
    and the parallel path.
    """
    from ..parallel.pool import format_pool_summary
    from ..parallel.tiles import resolve_threads

    jobs = _resolve_jobs(args)
    threads = resolve_threads(getattr(args, "threads", None))
    tasks = [
        _task_from_args("coarsen", spec.name, args, wallclock=True,
                        reps=args.reps, warmup=args.warmup)
        for spec in _corpus_specs(args)
    ]
    out = _run_session(tasks, args)
    if out.failed:
        print(format_pool_summary(out.summary))
        print(f"ERROR: {len(out.failed)} wall-clock task(s) quarantined; "
              "not writing a partial baseline")
        return EXIT_QUARANTINED
    times = {r["graph"]: r["times"] for r in out.results}
    best = {name: min(ts) for name, ts in times.items()}
    med = {name: median(ts) for name, ts in times.items()}
    # rep-major totals: the i-th timed repetition summed over all graphs
    totals = [sum(rep) for rep in zip(*times.values())]

    key = wallclock_key(args.machine, args.coarsener, args.constructor,
                        args.seed, jobs, tier=getattr(args, "tier", "base"),
                        threads=threads)
    entry = {
        "config": {"machine": args.machine, "coarsener": args.coarsener,
                   "constructor": args.constructor, "seed": args.seed,
                   "reps": args.reps, "warmup": args.warmup},
        "jobs": jobs,
        "threads": threads,
        "per_graph_best_s": {k: round(v, 6) for k, v in best.items()},
        "per_graph_best_sum_s": round(sum(best.values()), 6),
        "per_graph_median_s": {k: round(v, 6) for k, v in med.items()},
        "per_graph_median_sum_s": round(sum(med.values()), 6),
        "best_total_s": round(min(totals), 6),
        "totals_s": [round(t, 6) for t in totals],
        "suite_wall_s": round(out.summary["wall_s"], 6),
    }
    print(f"[{key}] per-graph-best-sum {entry['per_graph_best_sum_s']:.4f} s  "
          f"median-sum {entry['per_graph_median_sum_s']:.4f} s  "
          f"(suite wall {entry['suite_wall_s']:.4f} s, jobs {jobs}, "
          f"threads {threads}, {args.reps} reps + {args.warmup} warmup)")
    if jobs > 1 or _had_faults(out.summary):
        print(format_pool_summary(out.summary))
    if args.wallclock_out is not None:
        merge_wallclock_file(args.wallclock_out, key, entry)
        print(f"wrote {args.wallclock_out}")
    if args.compare_wallclock is not None:
        ref = json.loads(args.compare_wallclock.read_text())
        ref_entry = wallclock_reference(ref, key)
        if ref_entry is None:
            print(f"ERROR: no entry for config {key!r} in {args.compare_wallclock}")
            return 2
        ref_sum = float(ref_entry["per_graph_best_sum_s"])
        rel = entry["per_graph_best_sum_s"] / ref_sum - 1.0
        status = "ok" if rel <= args.max_regression else "REGRESSION"
        print(f"{status}: {rel:+.1%} vs {args.compare_wallclock}[{key}] "
              f"(threshold +{args.max_regression:.0%})")
        if rel > args.max_regression:
            return 1
    return 0


def _corpus_specs(args):
    """The corpus rows selected by ``--graphs`` (default: all 20)."""
    from ..generators.corpus import CORPUS

    names = getattr(args, "graphs", None)
    if not names:
        return CORPUS
    want = [n.strip() for n in names.split(",") if n.strip()]
    known = {s.name for s in CORPUS}
    unknown = [n for n in want if n not in known]
    if unknown:
        raise SystemExit(f"unknown corpus graph(s) {unknown}; known: {sorted(known)}")
    keep = set(want)
    return [s for s in CORPUS if s.name in keep]


def _cmd_corpus(args) -> int:
    if args.wallclock:
        return _cmd_corpus_wallclock(args)

    tasks = [_task_from_args("coarsen", spec.name, args) for spec in _corpus_specs(args)]
    rows, summary = _run_tasks(tasks, args)
    title = (f"corpus coarsening on {args.machine} "
             f"({args.coarsener}+{args.constructor}, seed {args.seed})")
    return _emit(rows, _COARSEN_COLUMNS, title, args, summary)


def main(argv: list[str] | None = None) -> int:
    import argparse

    if argv is None:
        argv = sys.argv[1:]
    # forward `serve ...` before argparse sees it: REMAINDER cannot
    # capture a leading option token (e.g. `serve --socket S`)
    if argv and argv[0] == "serve":
        from ..serve.__main__ import main as serve_main

        return serve_main(list(argv[1:]))

    ap = argparse.ArgumentParser(
        prog="python -m repro.bench.report",
        description="run harness configurations, print tables, write traces",
    )
    ap.add_argument("--trace-dir", type=Path, default=None,
                    help="write per-run trace JSON + results.json here")
    ap.add_argument("--faults", default=None, metavar="SPEC",
                    help="arm deterministic fault injection (see "
                         "repro.faultinject; e.g. 'pool.worker:crash:"
                         "attempt<1,graph=ppa'); equivalent to REPRO_FAULTS")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, partition=False):
        p.add_argument("--machine", choices=("gpu", "cpu"), default="gpu")
        p.add_argument("--coarsener", default="hec")
        p.add_argument("--constructor", default="sort")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tier", choices=("base", "x10", "x100"), default="base",
                       help="scale tier: run on the 10x/100x out-of-core "
                            "replica of each graph (cached as a mapped "
                            ".csrdir artifact) instead of the base graph")
        p.add_argument("--memory-budget", default=None, metavar="BYTES",
                       help="resident-memory ceiling for kernel transients "
                            "(e.g. 64M, 1G); kernels above it stream "
                            "row-aligned windows and spill to disk — "
                            "results stay byte-identical")
        p.add_argument("--oom", action="store_true",
                       help="enable the paper-scale OOM simulation")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1 = serial in-process; "
                            "0 = every usable core); results are bitwise "
                            "identical to a serial run at any value")
        p.add_argument("--threads", type=int, default=None,
                       help="tile-parallel threads inside each run (default: "
                            "REPRO_THREADS or 1; 0 = every usable core); "
                            "combined with --jobs the per-worker budget is "
                            "clamped so jobs x threads <= cores; results are "
                            "bitwise identical to serial at any value")
        p.add_argument("--retries", type=int, default=2,
                       help="retry a failed/crashed/hung task this many times "
                            "before quarantining it (default 2)")
        p.add_argument("--resume", type=Path, default=None, metavar="DIR",
                       help="session directory holding the fsynced journal; "
                            "pass the same directory again to resume an "
                            "interrupted run (completed tasks replay from the "
                            "journal, the rest are scheduled)")
        p.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="kill and retry any single task running longer "
                            "than this (hang detection; default: off)")
        p.add_argument("--validate-corpus", action="store_true",
                       help="structurally validate every corpus graph "
                            "(CSR layout, symmetry, weights) before running")
        if partition:
            p.add_argument("--refinement", choices=("spectral", "fm"),
                           default="spectral")

    p_c = sub.add_parser("coarsen", help="one coarsening run on a corpus graph")
    p_c.add_argument("--graph", required=True)
    common(p_c)

    p_p = sub.add_parser("partition", help="one bisection run on a corpus graph")
    p_p.add_argument("--graph", required=True)
    common(p_p, partition=True)

    p_all = sub.add_parser("corpus", help="coarsening across all 20 corpus graphs")
    common(p_all)
    p_all.add_argument("--graphs", default=None, metavar="NAMES",
                       help="comma-separated subset of corpus graph names "
                            "(default: the whole corpus)")
    p_all.add_argument("--wallclock", action="store_true",
                       help="measure host wall-clock instead of printing "
                            "the simulated-seconds table")
    p_all.add_argument("--reps", type=int, default=10,
                       help="wall-clock repetitions (per-graph best kept)")
    p_all.add_argument("--warmup", type=int, default=1,
                       help="untimed per-graph warm-up repetitions before the "
                            "timed reps (cache/allocator warm-up; default 1)")
    p_all.add_argument("--wallclock-out", type=Path, default=None,
                       help="write the wall-clock summary JSON here")
    p_all.add_argument("--compare-wallclock", type=Path, default=None,
                       help="reference wall-clock JSON to gate against")
    p_all.add_argument("--max-regression", type=float, default=0.30,
                       help="allowed relative slowdown of the per-graph-best "
                            "sum vs the reference (default 0.30)")

    p_scale = sub.add_parser(
        "scale",
        help="run scale-tier coarsenings in budgeted child processes, "
             "measure true peak RSS per child, and gate against "
             "BENCH_rss.json",
    )
    from .scale import add_scale_args

    add_scale_args(p_scale)

    p_upd = sub.add_parser(
        "update-stream",
        help="sustained edge-update stream: incremental patching vs "
             "full rebuild, gated on ledger-cost ratio and quality "
             "tolerance (DESIGN.md 5h)",
    )
    from .updates import add_update_stream_args

    add_update_stream_args(p_upd)

    p_serve = sub.add_parser(
        "serve",
        help="forward to the serving daemon CLI (python -m repro.serve)",
    )
    p_serve.add_argument("serve_args", nargs=argparse.REMAINDER,
                         help="arguments passed through to repro.serve")

    args = ap.parse_args(argv)
    if args.command == "serve":
        from ..serve.__main__ import main as serve_main

        return serve_main(args.serve_args)
    if args.faults:
        from .. import faultinject

        faultinject.install(args.faults)
    if args.command == "scale":
        from .scale import cmd_scale

        return cmd_scale(args)
    if args.command == "update-stream":
        from .updates import cmd_update_stream

        return cmd_update_stream(args)
    rc = {"coarsen": _cmd_coarsen, "partition": _cmd_partition,
          "corpus": _cmd_corpus}[args.command](args)
    _check_rss_ceiling()
    return rc


def _check_rss_ceiling() -> None:
    """Enforce ``REPRO_RSS_CEILING_MB`` on this process's true peak RSS.

    The scale runner exports the ceiling into each child it spawns; a
    chunked run whose resident high-water mark exceeds it exits non-zero
    here, turning a silent memory regression into a hard CI failure.
    """
    import os

    ceiling = os.environ.get("REPRO_RSS_CEILING_MB")
    if not ceiling:
        return
    import resource

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak_kib / 1024.0  # Linux reports KiB
    if peak_mb > float(ceiling):
        raise SystemExit(
            f"peak RSS {peak_mb:.1f} MB exceeded REPRO_RSS_CEILING_MB={ceiling}"
        )
    print(f"peak RSS {peak_mb:.1f} MB within ceiling {ceiling} MB")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
