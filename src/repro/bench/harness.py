"""Experiment runners: coarsening and partitioning with full accounting.

These are the building blocks the per-table experiment functions
(:mod:`repro.bench.experiments`) compose: each runner executes a
configured pipeline on one corpus graph, under one machine model, with
the memory/OOM simulation active, and returns a flat result dict of
simulated times, phase splits, and hierarchy statistics.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..coarsen.multilevel import coarsen_multilevel
from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace, cpu_space, gpu_space
from ..parallel.memory import MemoryTracker, SimulatedOOM
from ..partition.kway import kway_from_hierarchy
from ..partition.multilevel import multilevel_bisect
from ..generators.corpus import GraphSpec, load, memory_scale
from ..generators import corpus as _corpus
from ..trace import Tracer
from ..trace.tape import Tape

__all__ = [
    "space_for",
    "run_coarsening",
    "run_partition",
    "run_partition_kway",
    "run_cluster",
    "corpus_graph",
    "cache_stats",
]


def _hierarchy(g, space, tracker, coarsener, constructor, reuse):
    """Coarsen ``g``, or replay the build ``reuse`` has cached.

    ``reuse`` follows the serving registry's protocol — ``get()``
    returning ``(hierarchy, tape)`` or ``None``, and ``put(hierarchy,
    tape)`` after a fresh build.  On a hit the recorded tape is replayed
    into this run's space/tracker so the charges, spans, memory peak,
    and RNG position match a from-scratch run bitwise, and coarsening is
    skipped.  On a miss the build is recorded on a fresh tape and put.
    """
    tape = None
    if reuse is not None:
        cached = reuse.get()
        if cached is not None:
            hierarchy, tape = cached
            tape.replay(space, tracker)
            return hierarchy
        tape = Tape()
    hierarchy = coarsen_multilevel(
        g, space, coarsener=coarsener, constructor=constructor,
        tracker=tracker, tape=tape,
    )
    if reuse is not None:
        reuse.put(hierarchy, tape)
    return hierarchy


@contextmanager
def _traced(space, trace, name, labels):
    """Trace the enclosed block on ``space`` when ``trace`` is set.

    Attaches a :class:`~repro.trace.Tracer` for the block and closes it
    on exit.  Yields ``finish(result)``, which returns the result dict
    with the tracer under ``trace`` -- or, untraced, without a ``trace``
    key, so the row :func:`repro.parallel.pool.row_from_result` builds
    is exactly the batch ``results.json`` row.  Untraced, no tracer is
    attached: ``space.span`` is a no-op and a tape replay charges only
    the ledger and the memory tracker.
    """
    tracer = Tracer(name, labels=labels).attach(space) if trace else None

    def finish(result: dict) -> dict:
        if tracer is not None:
            result["trace"] = tracer
        return result

    try:
        yield finish
    finally:
        if tracer is not None:
            tracer.close()


def space_for(machine: str, seed: int = 0) -> ExecSpace:
    """``"gpu"`` or ``"cpu"`` execution space with a fresh ledger."""
    if machine == "gpu":
        return gpu_space(seed)
    if machine == "cpu":
        return cpu_space(seed)
    raise ValueError(f"unknown machine {machine!r}")


def corpus_graph(name: str, seed: int = 0) -> tuple[CSRGraph, GraphSpec]:
    """Load one corpus graph (served through the self-healing disk cache)."""
    return load(name, seed)


def cache_stats() -> dict:
    """Counters of the graph cache serving :func:`corpus_graph`.

    Cross-process totals (hits, misses, regenerations, corruptions,
    bytes, generation seconds) read from the cache ledger — the same
    numbers ``python -m repro.cache status`` prints.  Benchmark suites
    attach this to their session summary so silent cache regeneration
    never masquerades as a slow run.
    """
    return _corpus._get_cache().status()


def _tracker(g: CSRGraph, spec: GraphSpec | None, space: ExecSpace, algorithm: str, oom: bool) -> MemoryTracker:
    if spec is None or not oom:
        return MemoryTracker.null()
    return MemoryTracker(
        space.machine.memory_bytes,
        scale=memory_scale(g, spec),
        algorithm=algorithm,
        graph=g.name,
    )


def run_coarsening(
    g: CSRGraph,
    spec: GraphSpec | None = None,
    *,
    machine: str = "gpu",
    coarsener: str = "hec",
    constructor: str = "sort",
    seed: int = 0,
    oom: bool = True,
    reuse=None,
    trace: bool = True,
) -> dict:
    """One multilevel coarsening run; returns Table II/III/IV quantities.

    On a simulated OOM the dict carries ``oom=True`` and ``None`` times —
    exactly the information the paper's OOM table cells convey.

    With ``trace`` (the default) the result carries ``trace``: a closed
    :class:`repro.trace.Tracer` whose per-phase rollup equals the
    ledger's phase splits exactly (``trace.to_dict()`` /
    ``trace.save(path)`` serialize it).  Untraced, it has no ``trace``
    key and every other field is unchanged.
    """
    space = space_for(machine, seed)
    tracker = _tracker(g, spec, space, coarsener, oom)
    base = {
        "graph": g.name,
        "machine": machine,
        "coarsener": coarsener,
        "constructor": constructor,
        "seed": seed,
    }
    with _traced(
        space, trace, "run_coarsening",
        {"kind": "coarsen", "machine": machine, "coarsener": coarsener,
         "constructor": constructor, "graph": g.name, "seed": seed},
    ) as finish:
        try:
            hierarchy = _hierarchy(g, space, tracker, coarsener, constructor, reuse)
        except SimulatedOOM:
            return finish({**base, "oom": True, "total_s": None,
                           "construction_s": None, "mapping_s": None,
                           "levels": None, "cr": None})
    mach = space.machine
    mapping_s = mach.phase_seconds(space.ledger, "mapping")
    construction_s = mach.phase_seconds(space.ledger, "construction")
    transfer_s = mach.phase_seconds(space.ledger, "transfer")
    return finish({
        **base,
        "oom": False,
        "mapping_s": mapping_s,
        "construction_s": construction_s,
        "transfer_s": transfer_s,
        "total_s": mapping_s + construction_s + transfer_s,
        "compute_s": mapping_s + construction_s,  # Fig. 3: transfer excluded
        "grco_pct": 100.0 * construction_s / max(mapping_s + construction_s, 1e-300),
        "levels": hierarchy.levels,
        "cr": hierarchy.coarsening_ratio(),
        "coarsest_n": hierarchy.coarsest.n,
        "peak_mem": tracker.peak,
        "hierarchy": hierarchy,
    })


def run_partition(
    g: CSRGraph,
    spec: GraphSpec | None = None,
    *,
    machine: str = "gpu",
    coarsener: str = "hec",
    constructor: str = "sort",
    refinement: str = "spectral",
    seed: int = 0,
    oom: bool = True,
    reuse=None,
    trace: bool = True,
) -> dict:
    """One multilevel bisection run; returns Table V/VI quantities.

    Like :func:`run_coarsening`, the result carries ``trace`` (closed
    tracer, unless ``trace`` is off) and ``peak_mem`` (projected peak of
    the memory tracker).
    """
    space = space_for(machine, seed)
    tracker = _tracker(g, spec, space, coarsener, oom)
    base = {
        "graph": g.name,
        "machine": machine,
        "coarsener": coarsener,
        "refinement": refinement,
        "seed": seed,
    }
    with _traced(
        space, trace, "run_partition",
        {"kind": "partition", "machine": machine, "coarsener": coarsener,
         "constructor": constructor, "refinement": refinement,
         "graph": g.name, "seed": seed},
    ) as finish:
        try:
            hierarchy = _hierarchy(g, space, tracker, coarsener, constructor, reuse)
            res = multilevel_bisect(
                g,
                space,
                coarsener=coarsener,
                constructor=constructor,
                refinement=refinement,
                hierarchy=hierarchy,
            )
        except SimulatedOOM:
            return finish({**base, "oom": True, "cut": None, "total_s": None,
                           "coarsen_pct": None, "peak_mem": tracker.peak})
    mach = space.machine
    mapping_s = mach.phase_seconds(space.ledger, "mapping")
    construction_s = mach.phase_seconds(space.ledger, "construction")
    transfer_s = mach.phase_seconds(space.ledger, "transfer")
    initial_s = mach.phase_seconds(space.ledger, "initial")
    refine_s = mach.phase_seconds(space.ledger, "refinement")
    coarsen_s = mapping_s + construction_s + transfer_s
    total_s = coarsen_s + initial_s + refine_s
    return finish({
        **base,
        "oom": False,
        "cut": res.cut,
        "imbalance": res.stats["imbalance"],
        "total_s": total_s,
        "coarsen_s": coarsen_s,
        "refine_s": initial_s + refine_s,
        "coarsen_pct": 100.0 * coarsen_s / max(total_s, 1e-300),
        "levels": res.levels,
        "peak_mem": tracker.peak,
        "result": res,
    })


def run_partition_kway(
    g: CSRGraph,
    spec: GraphSpec | None = None,
    *,
    machine: str = "gpu",
    coarsener: str = "hec",
    constructor: str = "sort",
    k: int = 2,
    seed: int = 0,
    oom: bool = True,
    reuse=None,
    trace: bool = True,
) -> dict:
    """k-way partition via spectral quantiles + greedy refinement.

    The serving daemon's k-sweep workhorse: with a ``reuse`` handle the
    hierarchy is coarsened at most once across every k.  No batch-table
    counterpart exists (the paper's case study is bisection), so the
    result dict stands on its own rather than mirroring Table V/VI.
    """
    space = space_for(machine, seed)
    tracker = _tracker(g, spec, space, coarsener, oom)
    base = {
        "graph": g.name,
        "machine": machine,
        "coarsener": coarsener,
        "k": k,
        "seed": seed,
    }
    with _traced(
        space, trace, "run_partition_kway",
        {"kind": "kway", "machine": machine, "coarsener": coarsener,
         "constructor": constructor, "refinement": f"greedy-k{k}",
         "graph": g.name, "seed": seed},
    ) as finish:
        try:
            hierarchy = _hierarchy(g, space, tracker, coarsener, constructor, reuse)
            part, stats = kway_from_hierarchy(g, hierarchy, k, space)
        except SimulatedOOM:
            return finish({**base, "oom": True, "cut": None, "total_s": None,
                           "peak_mem": tracker.peak})
    mach = space.machine
    coarsen_s = sum(
        mach.phase_seconds(space.ledger, p)
        for p in ("mapping", "construction", "transfer")
    )
    total_s = coarsen_s + sum(
        mach.phase_seconds(space.ledger, p) for p in ("initial", "refinement")
    )
    return finish({
        **base,
        "oom": False,
        "cut": stats["cut"],
        "imbalance": stats["imbalance"],
        "total_s": total_s,
        "coarsen_s": coarsen_s,
        "levels": hierarchy.levels,
        "peak_mem": tracker.peak,
        "part": part,
    })


def run_cluster(
    g: CSRGraph,
    spec: GraphSpec | None = None,
    *,
    machine: str = "gpu",
    coarsener: str = "hec",
    constructor: str = "sort",
    seed: int = 0,
    oom: bool = True,
    reuse=None,
    trace: bool = True,
) -> dict:
    """Multilevel clustering: coarsest vertices become cluster labels.

    Every finest-level vertex is labelled by the coarsest-level vertex
    it contracted into (the paper's community-detection reading of a
    hierarchy).  With ``reuse``, the hierarchy is shared with partition
    requests on the same configuration.
    """
    space = space_for(machine, seed)
    tracker = _tracker(g, spec, space, coarsener, oom)
    base = {
        "graph": g.name,
        "machine": machine,
        "coarsener": coarsener,
        "seed": seed,
    }
    with _traced(
        space, trace, "run_cluster",
        {"kind": "cluster", "machine": machine, "coarsener": coarsener,
         "constructor": constructor, "graph": g.name, "seed": seed},
    ) as finish:
        try:
            hierarchy = _hierarchy(g, space, tracker, coarsener, constructor, reuse)
            with space.span("cluster", graph=g.name):
                labels = hierarchy.project(np.arange(hierarchy.coarsest.n))
                # one gather per level: x = x[mapping.m]
                space.ledger.charge(
                    "cluster",
                    KernelCost(
                        stream_bytes=8.0 * sum(len(m.m) for m in hierarchy.mappings),
                        launches=max(len(hierarchy.mappings), 1),
                    ),
                )
        except SimulatedOOM:
            return finish({**base, "oom": True, "clusters": None, "total_s": None,
                           "peak_mem": tracker.peak})
    mach = space.machine
    coarsen_s = sum(
        mach.phase_seconds(space.ledger, p)
        for p in ("mapping", "construction", "transfer")
    )
    total_s = coarsen_s + mach.phase_seconds(space.ledger, "cluster")
    return finish({
        **base,
        "oom": False,
        "clusters": int(hierarchy.coarsest.n),
        "levels": hierarchy.levels,
        "total_s": total_s,
        "coarsen_s": coarsen_s,
        "peak_mem": tracker.peak,
        "labels": labels,
    })
