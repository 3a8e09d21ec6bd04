"""Scale-tier runner: true peak RSS + wall-clock per budgeted child.

Each selected graph's tier coarsening runs in its *own child process*
(``python -m repro.bench coarsen --tier ... --memory-budget ...``)
so its resident high-water mark is measured by the kernel, not guessed:
the child is reaped with ``os.wait4`` and ``ru_maxrss`` is the true peak
RSS of exactly that run.  With ``--rss-ceiling-mb`` the ceiling is
exported as ``REPRO_RSS_CEILING_MB`` and the child *itself* exits
non-zero when its peak exceeds it (see ``report._check_rss_ceiling``) —
the out-of-core claim is enforced where the memory is spent.

``--rss-out`` writes the ``BENCH_rss.json`` baseline; ``--compare-rss``
gates the current run against a committed baseline with per-graph
relative thresholds, the CI regression gate for peak memory and tier
wall-clock.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from ..parallel.tiles import resolve_threads

__all__ = [
    "add_scale_args",
    "cmd_scale",
    "merge_rss_file",
    "rss_key",
    "rss_reference",
    "RSS_SCHEMA",
]

#: multi-config baseline: one file, one ``configs`` entry per gated
#: (machine, coarsener, constructor, seed, tier, threads) tuple — the
#: x10 and x100 smoke tiers coexist instead of overwriting each other
RSS_SCHEMA = 2

#: small skewed pair: exercises the keep-side streaming path and still
#: finishes quickly enough for a CI smoke job
DEFAULT_GRAPHS = "citation,ppa"


def rss_key(machine: str, coarsener: str, constructor: str, seed: int,
            tier: str, threads: int = 1) -> str:
    """Config key of one RSS baseline entry (mirrors ``wallclock_key``)."""
    key = f"{machine}:{coarsener}:{constructor}:s{seed}:{tier}"
    return f"{key}:t{threads}" if threads > 1 else key


def merge_rss_file(path: Path, key: str, entry: dict) -> None:
    """Insert/replace one config entry in an RSS baseline file."""
    doc = {"schema": RSS_SCHEMA, "configs": {}}
    if path.exists():
        try:
            old = json.loads(path.read_text())
        except ValueError:
            old = {}
        if isinstance(old.get("configs"), dict):
            doc["configs"] = dict(old["configs"])
    doc["configs"][key] = entry
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def rss_reference(ref: dict, key: str) -> dict | None:
    """Find the entry gating ``key`` in a baseline file."""
    configs = ref.get("configs")
    return configs.get(key) if isinstance(configs, dict) else None


def add_scale_args(p) -> None:
    p.add_argument("--graphs", default=DEFAULT_GRAPHS, metavar="NAMES",
                   help="comma-separated base graph names "
                        f"(default: {DEFAULT_GRAPHS})")
    p.add_argument("--tier", choices=("x10", "x100"), default="x10")
    p.add_argument("--machine", choices=("gpu", "cpu"), default="gpu")
    p.add_argument("--coarsener", default="hec")
    p.add_argument("--constructor", default="sort")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--memory-budget", default="32M", metavar="BYTES",
                   help="resident ceiling handed to each child (default 32M)")
    p.add_argument("--threads", type=int, default=None,
                   help="tile-parallel threads inside each child (default: "
                        "REPRO_THREADS or 1; 0 = every usable core); results "
                        "are bitwise identical to serial at any value")
    p.add_argument("--rss-ceiling-mb", type=float, default=None,
                   metavar="MB",
                   help="hard peak-RSS ceiling exported to children as "
                        "REPRO_RSS_CEILING_MB (child fails when exceeded)")
    p.add_argument("--rss-out", type=Path, default=None,
                   help="write the RSS/wall-clock baseline JSON here")
    p.add_argument("--compare-rss", type=Path, default=None,
                   help="reference BENCH_rss.json to gate against")
    p.add_argument("--max-rss-regression", type=float, default=0.25,
                   help="allowed relative peak-RSS growth per graph vs the "
                        "reference (default 0.25)")
    p.add_argument("--max-wall-regression", type=float, default=1.0,
                   help="allowed relative wall-clock growth per graph vs "
                        "the reference (default 1.0; host timing is noisy)")


def _child_cmd(graph: str, args) -> list[str]:
    cmd = [
        sys.executable, "-m", "repro.bench", "coarsen",
        "--graph", graph,
        "--tier", args.tier,
        "--machine", args.machine,
        "--coarsener", args.coarsener,
        "--constructor", args.constructor,
        "--seed", str(args.seed),
        "--memory-budget", args.memory_budget,
    ]
    threads = resolve_threads(args.threads)
    if threads > 1:
        cmd += ["--threads", str(threads)]
    return cmd


def _run_child(graph: str, args) -> dict:
    """One tier run in a fresh process; kernel-measured peak RSS."""
    env = dict(os.environ)
    if args.rss_ceiling_mb is not None:
        env["REPRO_RSS_CEILING_MB"] = str(args.rss_ceiling_mb)
    t0 = time.perf_counter()
    proc = subprocess.Popen(_child_cmd(graph, args), env=env)
    _pid, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "graph": f"{graph}@{args.tier}",
        "returncode": proc.returncode,
        "peak_rss_mb": round(ru.ru_maxrss / 1024.0, 2),  # Linux: KiB
        "wall_s": round(time.perf_counter() - t0, 3),
    }


def cmd_scale(args) -> int:
    from ..generators.corpus import load as corpus_load

    graphs = [g.strip() for g in args.graphs.split(",") if g.strip()]
    # warm the tier artifacts in-parent (memmapped, negligible RSS): the
    # children then measure the budgeted *run*, not one-off generation
    for g in graphs:
        corpus_load(f"{g}@{args.tier}", args.seed)
    rows = [_run_child(g, args) for g in graphs]
    failed = [r for r in rows if r["returncode"] != 0]
    for r in rows:
        state = "ok" if r["returncode"] == 0 else f"FAILED rc={r['returncode']}"
        print(f"[scale] {r['graph']}: peak RSS {r['peak_rss_mb']:.1f} MB, "
              f"wall {r['wall_s']:.2f}s  ({state})")
    if failed:
        print(f"ERROR: {len(failed)} scale child(ren) failed")
        return 1

    threads = resolve_threads(args.threads)
    key = rss_key(args.machine, args.coarsener, args.constructor, args.seed,
                  args.tier, threads)
    entry = {
        "config": {
            "tier": args.tier, "machine": args.machine,
            "coarsener": args.coarsener, "constructor": args.constructor,
            "seed": args.seed, "memory_budget": args.memory_budget,
        },
        "threads": threads,
        "per_graph": {
            r["graph"]: {"peak_rss_mb": r["peak_rss_mb"], "wall_s": r["wall_s"]}
            for r in rows
        },
    }
    if args.rss_out is not None:
        merge_rss_file(args.rss_out, key, entry)
        print(f"wrote {args.rss_out} [{key}]")
    if args.compare_rss is not None:
        return _gate(entry, key, args)
    return 0


def _gate(entry: dict, key: str, args) -> int:
    ref = json.loads(args.compare_rss.read_text())
    ref_entry = rss_reference(ref, key)
    if ref_entry is None:
        print(f"ERROR: no entry for config {key!r} in {args.compare_rss}")
        return 2
    ref_graphs = ref_entry.get("per_graph", {})
    bad = 0
    for name, got in entry["per_graph"].items():
        want = ref_graphs.get(name)
        if want is None:
            print(f"note: no reference entry for {name} in {args.compare_rss}")
            continue
        rel_rss = got["peak_rss_mb"] / want["peak_rss_mb"] - 1.0
        rel_wall = got["wall_s"] / want["wall_s"] - 1.0
        rss_ok = rel_rss <= args.max_rss_regression
        wall_ok = rel_wall <= args.max_wall_regression
        status = "ok" if rss_ok and wall_ok else "REGRESSION"
        print(f"{status}: {name}  rss {rel_rss:+.1%} "
              f"(threshold +{args.max_rss_regression:.0%})  "
              f"wall {rel_wall:+.1%} "
              f"(threshold +{args.max_wall_regression:.0%})")
        if not (rss_ok and wall_ok):
            bad += 1
    return 1 if bad else 0
