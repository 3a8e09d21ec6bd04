"""Experiment task model and the worker side of the process executor.

The paper's evaluation is a large cross-product (coarseners ×
constructors × machines × graphs × seeds) of *independent* runs, and the
simulated numbers each run produces are fully determined by its
configuration.  This module holds what every process running those
tasks shares; :func:`repro.parallel.session.run_session` is the one
executor that schedules them, inline or over supervised workers:

* **Task model.**  :class:`ExperimentTask` is one run, and its
  :meth:`~ExperimentTask.key` is the configuration identity the
  executor merges results by (:func:`_check_unique` rejects duplicates).
  :func:`task_weight` is its tier-aware largest-first (LPT) weight.
* **Inherited corpus.**  Before it starts workers, the session loads
  each needed corpus graph once into :data:`_WORKER_GRAPHS`; forked
  workers read the same objects copy-on-write, so nothing graph-sized
  is copied or pickled.  :func:`_worker_graph` resolves a graph from
  that dict and falls back to the artifact cache (the serial path and a
  spawned worker fill the dict this way).
* **Task execution.**  :func:`_run_task` runs one task to a picklable
  envelope around its result row; :func:`row_from_result` is the one
  row builder, shared with the serving daemon so a served row is
  byte-identical to the batch row.  :func:`format_pool_summary` renders
  the executor's accounting.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Sequence

from .. import faultinject
from ..generators.tiers import TIER_SCALES, parse_tier_name

__all__ = [
    "ExperimentTask",
    "row_from_result",
    "task_weight",
    "format_pool_summary",
]


def task_weight(graph: str, seed: int, sizes: dict) -> int:
    """Tier-aware LPT weight of one ``(graph, seed)`` tenant.

    A measured ``size_measure`` (recorded when the session loads the
    corpus) wins.  A tenant nothing measured — a ``task_fn`` session
    loads no graph — would otherwise weigh 0, and a 100x out-of-core
    tenant scheduled *last* becomes exactly the straggler LPT exists to
    avoid.  The fallback scales the base graph's measured size by the
    tier factor, and when nothing was measured the tier factor alone
    still orders tenants correctly relative to each other.
    """
    try:
        base, tier = parse_tier_name(graph)
    except KeyError:  # foreign naming scheme: schedule by measurement only
        base, tier = graph, "base"
    scale = TIER_SCALES[tier]
    measured = sizes.get((graph, seed))
    if measured is not None:
        return int(measured)
    base_measured = sizes.get((base, seed))
    if base_measured is not None:
        return int(base_measured) * scale
    return scale


@dataclass(frozen=True)
class ExperimentTask:
    """One independent harness run (or timed repetition block thereof)."""

    kind: str  # "coarsen" | "partition" | "cluster" (served only)
    graph: str  # corpus graph name
    machine: str = "gpu"
    coarsener: str = "hec"
    constructor: str = "sort"
    refinement: str = "spectral"  # partition only
    seed: int = 0
    oom: bool = True
    #: wall-clock mode: run ``warmup`` untimed + ``reps`` timed repetitions
    #: in-worker and return host seconds instead of a traced result
    wallclock: bool = False
    reps: int = 1
    warmup: int = 0
    #: resident-byte ceiling for chunked kernels (None = in-memory paths);
    #: results are byte-identical either way, so the key only gains a part
    #: when a budget is set
    memory_budget: int | None = None

    def key(self) -> str:
        """Configuration identity — the deterministic-merge key."""
        parts = [self.kind, self.machine, self.coarsener, self.constructor]
        if self.kind == "partition":
            parts.append(self.refinement)
        parts += [self.graph, f"s{self.seed}"]
        if self.wallclock:
            parts.append(f"wall{self.reps}w{self.warmup}")
        if self.memory_budget is not None:
            parts.append(f"mb{self.memory_budget}")
        return ":".join(parts)


# ------------------------------------------------------------- worker side

#: (graph, seed) -> (CSRGraph, GraphSpec): filled by the session before it
#: forks workers, inherited by them, warm across their tasks
_WORKER_GRAPHS: dict = {}


def _worker_init(threads: int | None = None) -> None:
    if threads is not None:
        # per-worker tile-thread budget (already clamped by the caller so
        # jobs x threads <= cores); exported to any nested children too
        from . import tiles

        tiles.configure(threads)
        os.environ["REPRO_THREADS"] = str(threads)


def _worker_graph(name: str, seed: int):
    """Resolve one corpus graph: :data:`_WORKER_GRAPHS`, then the cache.

    The artifact cache's per-entry file lock single-flights a graph that
    several spawned workers load at once.
    """
    cached = _WORKER_GRAPHS.get((name, seed))
    if cached is None:
        from ..generators import corpus

        cached = _WORKER_GRAPHS[(name, seed)] = corpus.load(name, seed)
    return cached


def row_from_result(result: dict) -> dict:
    """A harness result's JSON-scalar fields plus its serialized trace.

    The one row builder: batch rows (``results.json``) and served rows
    both come from here, so they stay byte-identical.  A result run
    with ``trace=False`` has no ``trace`` key, and neither has its row.
    """
    row = {
        k: v
        for k, v in result.items()
        if isinstance(v, (int, float, str, bool)) or v is None
    }
    if "trace" in result:
        row["trace"] = result["trace"].to_dict()
    return row


def _execute(task: ExperimentTask) -> dict:
    """Run one task to a picklable row — shared by serial and worker paths."""
    from ..bench.harness import run_coarsening, run_partition
    from ..storage import budget as _budget

    with _budget.limit(task.memory_budget):
        return _execute_under_budget(task, run_coarsening, run_partition)


def _execute_under_budget(task: ExperimentTask, run_coarsening, run_partition) -> dict:
    g, spec = _worker_graph(task.graph, task.seed)
    common = dict(
        machine=task.machine,
        coarsener=task.coarsener,
        constructor=task.constructor,
        seed=task.seed,
        oom=task.oom,
    )
    if task.wallclock:
        for _ in range(task.warmup):
            run_coarsening(g, spec, **common)
        times = []
        for _ in range(task.reps):
            t0 = time.perf_counter()
            run_coarsening(g, spec, **common)
            times.append(time.perf_counter() - t0)
        return {"graph": task.graph, "times": times}
    if task.kind == "partition":
        result = run_partition(g, spec, refinement=task.refinement, **common)
    elif task.kind == "coarsen":
        result = run_coarsening(g, spec, **common)
    else:
        raise ValueError(f"unknown task kind {task.kind!r}")
    return row_from_result(result)


def _run_task(task: ExperimentTask, attempt: int = 0) -> dict:
    faultinject.fire(
        "pool.worker", key=task.key(), graph=task.graph, attempt=attempt
    )
    t0 = time.perf_counter()
    row = _execute(task)
    return {
        "key": task.key(),
        "pid": os.getpid(),
        "wall_s": time.perf_counter() - t0,
        "row": row,
    }


# ------------------------------------------------------------- parent side


def _check_unique(tasks: Sequence[ExperimentTask]) -> None:
    seen: dict[str, int] = {}
    for i, t in enumerate(tasks):
        k = t.key()
        if k in seen:
            raise ValueError(
                f"duplicate task configuration {k!r} (tasks {seen[k]} and {i}): "
                "the deterministic merge keys results by configuration"
            )
        seen[k] = i


def format_pool_summary(summary: dict) -> str:
    """Human-readable session summary: per-worker utilization + overhead.

    A recovery line (retries, worker crashes, hang kills, quarantined
    tasks, resumed-from-journal count) and one line per degradation
    appear whenever they are nonzero, so a run that survived faults says
    so instead of looking like a clean one.
    """
    wall = summary["wall_s"]
    lines = [
        f"pool  {summary['jobs']} worker(s), {summary['tasks']} task(s), "
        f"wall {wall:.3f}s"
    ]
    for pid, w in summary["workers"].items():
        pct = 100.0 * w["busy_s"] / wall if wall > 0 else 0.0
        lines.append(
            f"  worker {pid}: {w['tasks']} task(s), busy {w['busy_s']:.3f}s "
            f"({pct:.0f}% of wall)"
        )
    lines.append(
        f"  utilization {100.0 * summary['utilization']:.0f}%"
        f"  overhead {summary['overhead_s']:.3f}s"
        f"  (speedup x{summary['busy_s'] / wall if wall > 0 else math.nan:.2f}"
        " vs serial busy time)"
    )
    if summary.get("threads", 1) > 1 or summary.get("tiles"):
        t = summary.get("tiles")
        tile_part = (
            f"  {t['tiled_kernels']} tiled kernel(s), {t['tiles_run']} tile(s)"
            f" of {t['tile_entries']} entries"
            if t
            else ""
        )
        lines.append(
            f"  threads {summary.get('threads', t['threads'] if t else 1)}"
            f" per worker{tile_part}"
        )
    recovery = [
        f"{label} {summary[key]}"
        for key, label in (
            ("retries", "retries"),
            ("crashes", "crashes"),
            ("hangs", "hangs"),
            ("quarantined", "quarantined"),
            ("resumed", "resumed"),
        )
        if summary.get(key)
    ]
    if recovery:
        lines.append("  recovery  " + "  ".join(recovery))
    for d in summary.get("degradations", ()):
        what = f" ({d['error']})" if d.get("error") else ""
        lines.append(f"  degraded  {d['site']} -> {d['action']}{what}")
    for f in summary.get("failed", ()):
        lines.append(
            f"  FAILED  {f['key']}  after {f['attempts']} attempt(s): {f['error']}"
        )
    return "\n".join(lines)
