"""Streaming building blocks for windowed and out-of-core execution.

Everything here is engineered for *bit-exact* equivalence with the
in-memory code it replaces:

* :func:`row_windows` cuts the edge arrays into row-aligned windows, so
  every CSR row lies wholly inside one window — segmented reductions
  (``np.add.reduceat``) then associate left-to-right per row exactly as
  the global call does.
* :class:`SpillArena`/:class:`SpillFile` append compacted per-window
  output to scratch files and reopen them as writable memmaps.
* :func:`external_sort` sorts a spill memmap with bounded resident
  memory and produces the same array ``np.sort`` would: sorted runs are
  formed in place, then pairs of runs merge block-wise.  The merge need
  not be stable — callers sort either bare keys (equal values are
  interchangeable) or packed ``(key << idx_bits) + index`` words (all
  values unique), so the sorted *values* are canonical either way.
* :func:`unit_runs_stream` / :func:`weighted_runs_stream` walk a sorted
  spill in windows and emit run-length dedup output identical to the
  global ``flatnonzero``/``reduceat`` formulation; the weighted variant
  aligns window boundaries to run boundaries so each run's weights sum
  left-to-right in one ``reduceat`` segment.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "SpillArena",
    "SpillFile",
    "external_sort",
    "row_windows",
    "unit_runs_stream",
    "weighted_runs_stream",
]


def row_windows(xadj, max_entries: int):
    """Yield ``(r0, r1, e0, e1)`` row-aligned edge windows.

    Rows ``r0..r1-1`` cover adjacency entries ``e0..e1-1`` with
    ``e1 - e0 <= max_entries`` — except when a single row exceeds
    ``max_entries``, which gets a window of its own (a hub row must stay
    whole for segmented reductions to associate identically).
    """
    n = len(xadj) - 1
    r0 = 0
    while r0 < n:
        e0 = int(xadj[r0])
        # largest r1 with xadj[r1] <= e0 + max_entries
        r1 = int(np.searchsorted(xadj, e0 + max_entries, side="right")) - 1
        if r1 <= r0:
            r1 = r0 + 1  # oversized row: take it whole
        r1 = min(r1, n)
        yield r0, r1, e0, int(xadj[r1])
        r0 = r1


class SpillFile:
    """Append-only scratch array on disk, finished into a memmap."""

    def __init__(self, path: Path, dtype):
        self.path = Path(path)
        self.dtype = np.dtype(dtype)
        self._f = open(self.path, "wb")
        self._count = 0

    def append(self, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr, dtype=self.dtype)
        self._f.write(arr.tobytes())
        self._count += len(arr)

    def finish(self) -> np.ndarray:
        """Close for writing; reopen as a writable (``r+``) memmap."""
        self._f.close()
        if self._count == 0:
            return np.zeros(0, dtype=self.dtype)
        return np.memmap(self.path, dtype=self.dtype, mode="r+", shape=(self._count,))


class SpillArena:
    """A temp directory of spill files, removed on exit."""

    def __init__(self, prefix: str = "repro-spill-"):
        self.root = Path(tempfile.mkdtemp(prefix=prefix))
        self._seq = 0

    def create(self, name: str, dtype) -> SpillFile:
        self._seq += 1
        return SpillFile(self.root / f"{self._seq:03d}-{name}.spill", dtype)

    def alloc(self, name: str, dtype, count: int) -> np.ndarray:
        """A writable scratch memmap of ``count`` entries (merge target)."""
        if count == 0:
            return np.zeros(0, dtype=dtype)
        self._seq += 1
        path = self.root / f"{self._seq:03d}-{name}.scratch"
        return np.memmap(path, dtype=dtype, mode="w+", shape=(count,))

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "SpillArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _merge_ranges(src, dst, lo: int, mid: int, hi: int, block: int) -> None:
    """Merge sorted ``src[lo:mid]`` and ``src[mid:hi]`` into ``dst[lo:hi]``.

    Block-wise two-way merge: of each pair of loaded blocks, everything
    up to ``limit = min(last of A, last of B)`` merges this round, which
    fully consumes at least one block — guaranteed progress with at most
    ``block`` entries of each side resident.
    """
    ai, bi, oi = lo, mid, lo
    while ai < mid and bi < hi:
        a_blk = np.array(src[ai : min(ai + block, mid)])
        b_blk = np.array(src[bi : min(bi + block, hi)])
        lim = min(a_blk[-1], b_blk[-1])
        na = int(np.searchsorted(a_blk, lim, side="right"))
        nb = int(np.searchsorted(b_blk, lim, side="right"))
        a_part, b_part = a_blk[:na], b_blk[:nb]
        merged = np.empty(na + nb, dtype=a_blk.dtype)
        merged[np.arange(na) + np.searchsorted(b_part, a_part, side="left")] = a_part
        merged[np.arange(nb) + np.searchsorted(a_part, b_part, side="right")] = b_part
        dst[oi : oi + na + nb] = merged
        oi += na + nb
        ai += na
        bi += nb
    for tail_lo, tail_hi in ((ai, mid), (bi, hi)):
        while tail_lo < tail_hi:
            stop = min(tail_lo + block, tail_hi)
            dst[oi : oi + (stop - tail_lo)] = src[tail_lo:stop]
            oi += stop - tail_lo
            tail_lo = stop


def external_sort(mm: np.ndarray, window: int, arena: SpillArena) -> np.ndarray:
    """Sort ``mm`` (a writable memmap) with ~``window`` entries resident.

    Produces exactly what ``np.sort(mm)`` would.  Small arrays sort in
    place directly; larger ones form ``window``-sized sorted runs in
    place, then ping-pong between ``mm`` and one same-sized scratch
    memmap through ``log2(len/window)`` merge passes.
    """
    n = len(mm)
    if n <= window:
        if n:
            buf = np.array(mm)
            buf.sort()
            mm[:] = buf
        return mm
    for i in range(0, n, window):
        buf = np.array(mm[i : i + window])
        buf.sort()
        mm[i : i + window] = buf
    src, dst = mm, arena.alloc("merge", mm.dtype, n)
    block = max(1 << 12, window // 4)
    run = window
    while run < n:
        for lo in range(0, n, 2 * run):
            mid = min(lo + run, n)
            hi = min(lo + 2 * run, n)
            if mid >= hi:  # lone tail run: copy through
                for t0 in range(lo, hi, block):
                    t1 = min(t0 + block, hi)
                    dst[t0:t1] = src[t0:t1]
            else:
                _merge_ranges(src, dst, lo, mid, hi, block)
        src, dst = dst, src
        run *= 2
    return src


def unit_runs_stream(sorted_arr: np.ndarray, window: int):
    """``(distinct values, run lengths)`` of a sorted array, windowed.

    Identical to the global ``flatnonzero(new_run)`` + ``diff`` dedup:
    run lengths are exact integer counts, so window boundaries cannot
    perturb them.
    """
    n = len(sorted_arr)
    keys: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    carry_key = None
    carry = 0
    for i in range(0, n, window):
        blk = np.array(sorted_arr[i : i + window])
        boundary = np.empty(len(blk), dtype=bool)
        boundary[0] = carry_key is None or blk[0] != carry_key
        boundary[1:] = blk[1:] != blk[:-1]
        first = np.flatnonzero(boundary)
        if len(first) == 0:  # whole block continues the carried run
            carry += len(blk)
            continue
        if carry_key is not None:
            if not boundary[0]:
                carry += int(first[0])
            keys.append(np.array([carry_key], dtype=blk.dtype))
            counts.append(np.array([carry], dtype=np.int64))
        runs_k = blk[first]
        runs_c = np.diff(np.append(first, len(blk))).astype(np.int64)
        keys.append(runs_k[:-1])
        counts.append(runs_c[:-1])
        carry_key = runs_k[-1]
        carry = int(runs_c[-1])
    if carry_key is not None:
        keys.append(np.array([carry_key], dtype=np.asarray(carry_key).dtype))
        counts.append(np.array([carry], dtype=np.int64))
    if not keys:
        return np.zeros(0, dtype=sorted_arr.dtype), np.zeros(0, dtype=np.int64)
    return np.concatenate(keys), np.concatenate(counts)


def weighted_runs_stream(
    packed_sorted: np.ndarray,
    idx_bits: int,
    weights: np.ndarray,
    window: int,
):
    """Run-length dedup of a packed-sorted spill with summed weights.

    ``packed_sorted`` holds ``(key << idx_bits) + original_index`` words
    in sorted order (all unique, so the sort order equals the stable
    argsort of the bare keys); ``weights[original_index]`` is each
    entry's weight.  Returns ``(distinct keys, summed weights)``.

    Windows end on *run boundaries*: every key's weights are summed by a
    single left-to-right ``np.add.reduceat`` segment, reproducing the
    global reduceat bit for bit.  A run longer than ``window`` extends
    its window (one hub run resident at a time — same bound the in-memory
    path's per-bin sort already implies).
    """
    n = len(packed_sorted)
    mask = (np.int64(1) << idx_bits) - np.int64(1)
    keys: list[np.ndarray] = []
    sums: list[np.ndarray] = []
    i = 0
    while i < n:
        j = min(i + window, n)
        if j < n:
            # back off to the last complete run boundary within [i, j); a
            # run spanning the whole window instead extends to its true
            # end (binary search touches O(log) pages of the memmap)
            key_last = int(packed_sorted[j - 1]) >> idx_bits
            lo = int(
                np.searchsorted(
                    packed_sorted[i:j], np.int64(key_last) << np.int64(idx_bits), side="left"
                )
            )
            if lo > 0:
                j = i + lo
            else:
                j = i + int(
                    np.searchsorted(
                        packed_sorted[i:],
                        np.int64(key_last + 1) << np.int64(idx_bits),
                        side="left",
                    )
                )
        blk = np.array(packed_sorted[i:j])
        key_blk = blk >> idx_bits
        boundary = np.empty(len(blk), dtype=bool)
        boundary[0] = True
        boundary[1:] = key_blk[1:] != key_blk[:-1]
        first = np.flatnonzero(boundary)
        w_blk = np.asarray(weights)[np.asarray(blk & mask)]
        sums.append(np.add.reduceat(w_blk, first))
        keys.append(key_blk[first])
        i = j
    if not keys:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=weights.dtype)
    return np.concatenate(keys), np.concatenate(sums)
