"""Vertex-centric construction with hash-based deduplication (Algorithm 6).

Instead of sorting each bin, per-coarse-vertex hash tables accumulate
``(destination, weight)`` pairs: each insert probes a table of ~1.5x the
bin's entry count and either inserts or increments the stored weight.
Hashing does O(1) work per entry (no log factor) but every probe is an
uncoalesced random access — cheap relative to streaming on the CPU's
cached memory system, expensive on the GPU.  That asymmetry is exactly
the sort/hash flip between Table II (GPU: hashing 1.45-1.72x slower)
and Table III (CPU: hashing 0.71-0.77x, i.e. faster).
"""

from __future__ import annotations

import numpy as np

from ..coarsen.base import CoarseMapping
from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..types import WT
from .base import register_constructor
from .dedup import construct_binned

__all__ = ["construct_hash", "hashed_dedup"]

_B = 8


def hashed_dedup(
    mu: np.ndarray, mv: np.ndarray, w: np.ndarray, n_c: int, space: ExecSpace, phase: str = "construction"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DEDUPWITHWTS by per-vertex hash tables.

    The result is identical to the sort-based path (the NumPy realisation
    shares its reduction); the *charged* cost is one probe/insert per
    entry plus table initialisation of ~1.5x the surviving entries —
    random traffic instead of sort passes.
    """
    entries = len(mu)
    # per-coarse-vertex table sizes: tables that overflow team-local
    # memory spill (hub bins on skewed graphs), like SpGEMM accumulators
    bins = np.bincount(mu, minlength=n_c).astype(np.float64)
    spill = float((bins * np.log2(1.0 + bins / 1024.0)).sum())
    # identical reduction to the sorted path (duplicate merging is
    # order-independent); hashing changes cost, not output
    order = np.lexsort((mv, mu))
    mu, mv, w = mu[order], mv[order], w[order]
    if entries:
        new_run = np.empty(entries, dtype=bool)
        new_run[0] = True
        new_run[1:] = (mu[1:] != mu[:-1]) | (mv[1:] != mv[:-1])
        run_ids = np.cumsum(new_run) - 1
        wsum = np.zeros(int(run_ids[-1]) + 1, dtype=WT)
        np.add.at(wsum, run_ids, w)
        first = np.flatnonzero(new_run)
        mu, mv, w = mu[first], mv[first], wsum
    space.ledger.charge(
        phase,
        KernelCost(
            # F/X binning + table init (1.5x survivors) + compaction
            stream_bytes=4.0 * _B * entries + 1.5 * 2.0 * _B * len(mu),
            # each probe touches a full memory sector per access on the
            # GPU and a cache line on the CPU: ~6 words of random traffic
            random_bytes=6.0 * _B * entries,
            hash_ops=float(entries),
            spill_ops=spill,
            atomic_ops=float(entries),  # CAS-insert / atomic weight add
            launches=3,
        ),
    )
    return mu, mv, w


@register_constructor("hash")
def construct_hash(g: CSRGraph, mapping: CoarseMapping, space: ExecSpace) -> CSRGraph:
    """Algorithm 6 with hash-based deduplication."""
    return construct_binned(g, mapping, space, "hash", hashed_dedup)
