"""Heap-based per-vertex deduplication (Section V).

The paper's conclusions mention "a graph construction strategy using
heaps for deduplication on the CPU, but do not include results here".
Included for completeness and registered as ``"heap"`` for both
machine models.  Its charge models each coarse vertex's bin consumed
through a binary heap keyed on destination id, accumulating weights of
equal keys as they surface.  O(k log k) like sorting but with pointer-chasing heap
sift operations instead of streaming passes — cache-hostile, which is
why it never beat the radix sort and stayed out of the paper's tables.

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

__all__ = ["construct_heap", "heap_cost"]

_B = 8


def heap_cost(entries: int, bins: np.ndarray, distinct: int) -> KernelCost:
    """DEDUPWITHWTS through per-bin binary heaps.

    Every bin is heapified (one op per entry), then drained by one pop
    per entry.
    """
    heap_ops = 2 * entries
    return KernelCost(
        stream_bytes=2.0 * _B * entries,
        # every sift is a dependent random access chain of ~log k
        random_bytes=3.0 * _B * heap_ops,
        hash_ops=float(heap_ops),
        launches=2,
    )


@register_constructor("heap")
def construct_heap(g: CSRGraph, mapping: CoarseMapping, space: ExecSpace) -> CSRGraph:
    """Algorithm 6 with heap-based deduplication."""
    return vertex_centric(g, mapping, space, "heap", heap_cost)
