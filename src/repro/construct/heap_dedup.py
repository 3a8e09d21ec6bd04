"""Heap-based per-vertex deduplication (CPU-only, Section V).

The paper's conclusions mention "a graph construction strategy using
heaps for deduplication on the CPU, but do not include results here".
Included for completeness: each coarse vertex's bin is consumed through
a binary heap keyed on destination id, accumulating weights of equal
keys as they surface.  O(k log k) like sorting but with pointer-chasing
heap sift operations instead of streaming passes — cache-hostile, which
is why it never beat the radix sort and stayed out of the paper's
tables.  The registered name is ``"heap"``; the output is identical to
every other strategy (the equivalence tests cover it).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..coarsen.base import CoarseMapping
from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..types import VI, WT
from .base import register_constructor
from .dedup import construct_binned

__all__ = ["construct_heap", "heap_dedup"]

_B = 8


def heap_dedup(
    mu: np.ndarray, mv: np.ndarray, w: np.ndarray, n_c: int, space: ExecSpace, phase: str = "construction"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DEDUPWITHWTS through per-bin binary heaps (direct implementation)."""
    order = np.argsort(mu, kind="stable")
    mu_s, mv_s, w_s = mu[order], mv[order], w[order]
    bounds = np.searchsorted(mu_s, np.arange(n_c + 1))

    out_u: list[int] = []
    out_v: list[int] = []
    out_w: list[float] = []
    heap_ops = 0
    for c in range(n_c):
        lo, hi = bounds[c], bounds[c + 1]
        if lo == hi:
            continue
        heap = list(zip(mv_s[lo:hi].tolist(), w_s[lo:hi].tolist()))
        heapq.heapify(heap)
        heap_ops += hi - lo
        last_key = -1
        while heap:
            key, wt = heapq.heappop(heap)
            heap_ops += 1
            if key == last_key:
                out_w[-1] += wt
            else:
                out_u.append(c)
                out_v.append(key)
                out_w.append(wt)
                last_key = key
    space.ledger.charge(
        phase,
        KernelCost(
            stream_bytes=2.0 * _B * len(mu),
            # every sift is a dependent random access chain of ~log k
            random_bytes=3.0 * _B * heap_ops,
            hash_ops=float(heap_ops),
            launches=2,
        ),
    )
    return (
        np.array(out_u, dtype=VI),
        np.array(out_v, dtype=VI),
        np.array(out_w, dtype=WT),
    )


@register_constructor("heap")
def construct_heap(g: CSRGraph, mapping: CoarseMapping, space: ExecSpace) -> CSRGraph:
    """Algorithm 6 with heap-based deduplication."""
    return construct_binned(g, mapping, space, "heap", heap_dedup)
