"""Multilevel coarsening driver (Algorithm 1) and the graph hierarchy.

Iterates FINDCOARSEMAPPING + CONSTRUCTCOARSEGRAPH until the coarse
vertex count reaches the cutoff (50 in the paper), with the paper's
discard rule — a level that overshoots from >50 straight below 10 is
dropped — a level cap of 200 (stalled runs report l = 201 in Table IV),
and the projected-memory OOM simulation threaded through every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..parallel.memory import MemoryTracker, construction_workspace, graph_bytes, mapping_workspace
from ..types import COARSEN_CUTOFF, COARSEN_DISCARD
from .base import CoarseMapping, Coarsener, get_coarsener

__all__ = ["GraphHierarchy", "coarsen_multilevel", "MAX_LEVELS"]

#: Table IV caps stalled runs at 201 hierarchy levels (200 coarsenings).
MAX_LEVELS = 200


@dataclass
class GraphHierarchy:
    """The output of multilevel coarsening.

    ``graphs[0]`` is the input; ``graphs[i]`` was built from
    ``graphs[i-1]`` through ``mappings[i-1]``.
    """

    graphs: list[CSRGraph]
    mappings: list[CoarseMapping]
    stats: dict = field(default_factory=dict)
    #: refined reads of this hierarchy, kept by
    #: :func:`repro.partition.multilevel.kept_read`: ``read key ->
    #: (entry RNG state, (answer, tape) or None)``, least recently used
    #: first
    kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def levels(self) -> int:
        """Hierarchy length l (number of graphs, as reported in Table IV)."""
        return len(self.graphs)

    @property
    def coarsest(self) -> CSRGraph:
        return self.graphs[-1]

    def coarsening_ratio(self) -> float:
        """Average per-level ratio ``(n_0 / n_l) ** (1 / (l - 1))``."""
        if self.levels < 2 or self.graphs[-1].n == 0:
            return 1.0
        return float(
            (self.graphs[0].n / self.graphs[-1].n) ** (1.0 / (self.levels - 1))
        )

    def project(self, coarse_values: np.ndarray, to_level: int = 0) -> np.ndarray:
        """Interpolate per-vertex values from the coarsest graph up to
        ``to_level`` by following the mapping vectors."""
        x = coarse_values
        for mapping in reversed(self.mappings[to_level:]):
            x = x[mapping.m]
        return x


def coarsen_multilevel(
    g: CSRGraph,
    space: ExecSpace,
    *,
    coarsener: str | Coarsener = "hec",
    constructor: str = "sort",
    cutoff: int = COARSEN_CUTOFF,
    max_levels: int = MAX_LEVELS,
    tracker: MemoryTracker | None = None,
    tape=None,
) -> GraphHierarchy:
    """Algorithm 1: build the hierarchy ``{G_1, ..., G_l}``.

    Parameters mirror the paper's experimental setup: ``cutoff`` 50, the
    >50 → <10 discard rule, and machine-projected memory tracking (pass a
    :class:`MemoryTracker`; ``None`` tracks but never raises).  When the
    machine is a GPU, the initial host-to-device copy of the CSR arrays
    is charged to the ``transfer`` phase (Table II includes it; Fig. 3
    center reports ``compute_s``, which excludes it).

    ``tape`` (a fresh :class:`repro.trace.tape.Tape`) records this
    build's charges/spans/tracker calls and RNG advance so the serving
    layer can later replay them instead of re-coarsening — see
    :mod:`repro.trace.tape`.  An OOM'd build leaves the tape incomplete.
    An updated graph's hierarchy is patched by
    :func:`repro.coarsen.incremental.patch_hierarchy` instead.
    """
    from ..construct.base import get_constructor  # local: avoid import cycle

    coarsen_fn = get_coarsener(coarsener) if isinstance(coarsener, str) else coarsener
    construct_fn = get_constructor(constructor)
    algo_name = getattr(coarsen_fn, "coarsener_name", "custom")
    tracker = tracker or MemoryTracker.null()
    if tape is not None:
        with tape.record(space):
            return _coarsen_levels(
                g, space, coarsen_fn, construct_fn, algo_name, constructor,
                cutoff, max_levels, tape.wrap_tracker(tracker),
            )
    return _coarsen_levels(
        g, space, coarsen_fn, construct_fn, algo_name, constructor,
        cutoff, max_levels, tracker,
    )


def _coarsen_levels(
    g, space, coarsen_fn, construct_fn, algo_name, constructor,
    cutoff, max_levels, tracker,
) -> GraphHierarchy:
    graphs = [g]
    mappings: list[CoarseMapping] = []
    level_stats: list[dict] = []

    with space.span("coarsen", algorithm=algo_name, constructor=constructor, graph=g.name):
        if space.machine.is_gpu:
            with space.span("transfer"):
                space.ledger.charge(
                    "transfer",
                    KernelCost(transfer_bytes=graph_bytes(g.n, g.m), launches=1),
                )
        tracker.hold_level(g.n, g.m)
        discarded = _level_loop(
            graphs, mappings, level_stats, space, coarsen_fn, construct_fn,
            algo_name, constructor, cutoff, max_levels, tracker,
        )

    return GraphHierarchy(
        graphs,
        mappings,
        stats={
            "coarsener": algo_name,
            "constructor": constructor,
            "levels": len(graphs),
            "discarded_overshoot": discarded,
            "per_level": level_stats,
            "peak_memory_projected": tracker.peak,
        },
    )


def _level_loop(
    graphs, mappings, level_stats, space, coarsen_fn, construct_fn, algo_name,
    constructor, cutoff, max_levels, tracker,
) -> bool:
    """Algorithm 1's level loop: coarsen ``graphs[-1]`` down to the cutoff.

    Appends each kept level to ``graphs``, ``mappings`` and
    ``level_stats``; returns whether the last level was discarded.  Shared
    by the build and the tail of
    :func:`repro.coarsen.incremental.patch_hierarchy`.
    """
    while graphs[-1].n > cutoff and len(mappings) < max_levels:
        fine = graphs[-1]
        level = len(mappings)
        with space.span("level", level=level, n=fine.n, m=fine.m):
            tracker.transient(mapping_workspace(algo_name, fine.n, fine.m))
            with space.span("mapping", level=level, algorithm=algo_name):
                mapping = coarsen_fn(fine, space)

            if mapping.n_c >= fine.n:
                return False  # no progress at all: a genuine stall, stop cleanly

            tracker.transient(construction_workspace(mapping.n_c, fine.m, constructor))
            with space.span("construction", level=level, constructor=constructor):
                coarse = construct_fn(fine, mapping, space)
            tracker.hold_level(coarse.n, coarse.m)

        if not _keep_level(graphs, mappings, level_stats, coarse, mapping, cutoff):
            return True
    return False


def _keep_level(graphs, mappings, level_stats, coarse, mapping, cutoff) -> bool:
    """Append a level built from ``graphs[-1]``, unless the paper's
    discard rule drops it (overshooting from >50 to <10); returns
    whether it was kept.  Shared by :func:`_level_loop` and the patched
    levels of :func:`repro.coarsen.incremental.patch_hierarchy`."""
    fine = graphs[-1]
    if fine.n > cutoff and coarse.n < COARSEN_DISCARD:
        return False
    graphs.append(coarse)
    mappings.append(mapping)
    level_stats.append(
        {
            "n": coarse.n,
            "m": coarse.m,
            "n_c_ratio": fine.n / max(coarse.n, 1),
            **{k: v for k, v in mapping.stats.items() if k != "algorithm"},
        }
    )
    return True
