"""Vertex-centric construction with hash-based deduplication (Algorithm 6).

Instead of sorting each bin, per-coarse-vertex hash tables accumulate
``(destination, weight)`` pairs: each insert probes a table of ~1.5x the
bin's entry count and either inserts or increments the stored weight.
Hashing does O(1) work per entry (no log factor) but every probe is an
uncoalesced random access — cheap relative to streaming on the CPU's
cached memory system, expensive on the GPU.  That asymmetry is exactly
the sort/hash flip between Table II (GPU: hashing 1.45-1.72x slower)
and Table III (CPU: hashing 0.71-0.77x, i.e. faster).

Merging is order-independent, so the strategy runs the shared
:func:`~repro.construct.vertex_sort.vertex_centric` pipeline and owns
only its charge.
"""

from __future__ import annotations

import numpy as np

from ..coarsen.base import CoarseMapping
from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from .base import register_constructor
from .vertex_sort import vertex_centric

__all__ = ["construct_hash", "hash_cost"]

_B = 8


def hash_cost(entries: int, bins: np.ndarray, distinct: int) -> KernelCost:
    """DEDUPWITHWTS by per-vertex hash tables.

    One probe/insert per entry plus table initialisation of ~1.5x the
    surviving entries — random traffic instead of sort passes.
    """
    # per-coarse-vertex table sizes: tables that overflow team-local
    # memory spill (hub bins on skewed graphs), like SpGEMM accumulators
    bins = bins.astype(np.float64)
    spill = float((bins * np.log2(1.0 + bins / 1024.0)).sum())
    return KernelCost(
        # F/X binning + table init (1.5x survivors) + compaction
        stream_bytes=4.0 * _B * entries + 1.5 * 2.0 * _B * distinct,
        # each probe touches a full memory sector per access on the
        # GPU and a cache line on the CPU: ~6 words of random traffic
        random_bytes=6.0 * _B * entries,
        hash_ops=float(entries),
        spill_ops=spill,
        atomic_ops=float(entries),  # CAS-insert / atomic weight add
        launches=3,
    )


@register_constructor("hash")
def construct_hash(g: CSRGraph, mapping: CoarseMapping, space: ExecSpace) -> CSRGraph:
    """Algorithm 6 with hash-based deduplication."""
    return vertex_centric(g, mapping, space, "hash", hash_cost)
