"""Portable parallel primitives: scans, permutations, segmented ops.

These are the Kokkos-Kernels-style building blocks the coarsening and
construction kernels are written against.  Each primitive does the work
with vectorised NumPy and charges its cost to the execution space's
ledger (the cost is what the *parallel* primitive would move, not what
NumPy happens to do).
"""

from __future__ import annotations

import numpy as np

from ..types import VI
from .cost import KernelCost
from .execspace import ExecSpace
from .wavekernels import run_starts

__all__ = [
    "exclusive_prefix_sum",
    "gen_perm",
    "segment_sum",
    "segment_max_index",
    "stable_key_sort",
    "compact_nonnegative",
]

_ITEM = 8  # bytes per element (VI / WT are both 8 bytes)


def exclusive_prefix_sum(counts: np.ndarray, space: ExecSpace | None = None, phase: str = "mapping") -> np.ndarray:
    """PARPREFIXSUMS: exclusive scan with the total appended.

    Returns an array of length ``len(counts) + 1`` whose last entry is
    the total — exactly the CSR row-pointer shape.
    """
    out = np.zeros(len(counts) + 1, dtype=VI)
    np.cumsum(counts, out=out[1:])
    if space is not None:
        # A work-efficient scan reads and writes the array ~2x.
        space.ledger.charge(
            phase,
            KernelCost(stream_bytes=4.0 * _ITEM * len(counts), launches=2),
        )
    return out


def gen_perm(n: int, space: ExecSpace, phase: str = "mapping") -> np.ndarray:
    """PARGENPERM: a random permutation of ``0..n-1``.

    The paper generates it with a parallel sort of random keys; we charge
    the sort and draw the permutation from the space's seeded RNG.
    """
    space.ledger.charge(
        phase,
        KernelCost(
            stream_bytes=2.0 * _ITEM * n,
            sort_key_ops=n * max(1.0, np.log2(max(n, 2))),
            launches=2,
        ),
    )
    return space.rng.permutation(n).astype(VI)


def segment_sum(values: np.ndarray, segment_ids: np.ndarray, n_segments: int, space: ExecSpace | None = None, phase: str = "construction") -> np.ndarray:
    """Sum ``values`` into ``n_segments`` buckets keyed by ``segment_ids``.

    Models a scatter-add (atomic adds on random locations).
    """
    out = np.zeros(n_segments, dtype=values.dtype)
    np.add.at(out, segment_ids, values)
    if space is not None:
        space.ledger.charge(
            phase,
            KernelCost(
                stream_bytes=2.0 * _ITEM * len(values),
                random_bytes=_ITEM * len(values),
                atomic_ops=len(values),
                launches=1,
            ),
        )
    return out


def segment_max_index(
    keys: np.ndarray, values: np.ndarray, xadj: np.ndarray, lengths: np.ndarray | None = None
) -> np.ndarray:
    """Per-segment argmax used to find heaviest neighbours.

    ``xadj`` delimits segments within ``values``.  Returns for each
    segment the *global index* of the entry with the maximum value;
    ties resolve to the earliest entry (matching the sequential scan in
    Algorithms 2-3 that only replaces on strictly greater weight).
    Segments of length 0 get index -1.  ``keys`` is unused but kept for
    signature symmetry with team-level reductions.
    """
    n = len(xadj) - 1
    out = np.full(n, -1, dtype=VI)
    if lengths is None:
        lengths = np.diff(xadj)
    nonempty = np.flatnonzero(lengths > 0)
    if len(nonempty) == 0:
        return out
    # reduceat computes per-segment max; a second pass finds the first
    # position attaining it.  Both passes are vectorised.
    starts = xadj[nonempty]
    # constant-weight fast path: every entry attains the segment max, so
    # the first hit is the segment start.  Level-0 graphs carry unit
    # edge weights, which makes this the dominant case by volume.
    if len(values) and bool(np.all(values == values[0])):
        out[nonempty] = starts
        return out
    seg_max = np.maximum.reduceat(values, starts)
    # Per-entry rank into the nonempty-segment list (empty segments hold
    # no entries, so the repeat is aligned with ``values``).  Ranks stay
    # at the native index width: narrower index arrays make NumPy
    # convert them before the 2m-wide gather, costing more than the
    # bandwidth they save.
    seg_rank = np.repeat(np.arange(len(nonempty), dtype=np.int64), lengths[nonempty])
    pos = np.flatnonzero(values == seg_max[seg_rank])
    # keep the first hit per segment: hit ranks are non-decreasing, so
    # run heads are exactly the per-segment first maxima
    sr = seg_rank[pos]
    first = run_starts(sr)
    out[nonempty[sr[first]]] = pos[first]
    return out


def stable_key_sort(key: np.ndarray, key_bound: int, eng=None) -> tuple[np.ndarray, np.ndarray]:
    """``(order, key[order])`` for a stable ascending sort of ``key``.

    ``order`` is identical to ``np.argsort(key, kind="stable")`` — and
    hence to ``np.lexsort`` over the unfused key columns.  When the key
    width (``key < key_bound``) plus the index width fit one machine
    word, the (key, index) pair is packed into a single int64 and sorted
    scalar, which takes NumPy's radix path — several times faster than
    the comparison-based stable argsort the fallback uses — and the
    sorted keys fall out of the unpack without a gather.

    ``eng`` (a :class:`repro.parallel.tiles.TileEngine`) sorts the
    packed words with tiled runs + pairwise merges: the words are all
    unique, so the merged array equals ``np.sort`` bitwise and the
    unpacked order stays the stable argsort.
    """
    n = len(key)
    if n == 0:
        return np.zeros(0, dtype=np.int64), key[:0]
    idx_bits = max(1, (n - 1).bit_length())
    key_bits = max(1, int(key_bound - 1).bit_length()) if key_bound > 1 else 1
    if idx_bits + key_bits <= 63:
        packed = (key << np.int64(idx_bits)) + np.arange(n, dtype=np.int64)
        if eng is not None:
            from .tiles import parallel_sort

            parallel_sort(packed, eng)
        else:
            packed.sort()
        return packed & np.int64((1 << idx_bits) - 1), packed >> np.int64(idx_bits)
    order = np.argsort(key, kind="stable")
    return order, key[order]


def compact_nonnegative(arr: np.ndarray, space: ExecSpace | None = None, phase: str = "mapping") -> np.ndarray:
    """NonZeroEntries: stream-compact the non-negative entries of ``arr``.

    (The paper compacts non-zero entries; with 0-based ids our sentinel
    is -1, so we keep entries >= 0.)
    """
    out = arr[arr >= 0]
    if space is not None:
        space.ledger.charge(
            phase,
            KernelCost(stream_bytes=2.0 * _ITEM * len(arr), launches=2),
        )
    return out
