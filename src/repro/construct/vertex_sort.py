"""Vertex-centric construction (Algorithm 6) and its sort-based dedup.

:func:`vertex_centric` is the one Algorithm 6 pipeline: edges are
binned by source coarse vertex into the intermediate F/X arrays, each
bin's duplicates are merged, and on skewed graphs the degree-based
keep-side sweep first halves and *balances* the bins and a final
transpose pass (GraphConsWithTrans) restores symmetric storage.  The
registered vertex-centric strategies (``"sort"`` here, ``"hash"`` and
``"heap"``) share it and differ only in the dedup charge they pass.

The default strategy of the paper sorts each bin by destination id
(bitonic sort on the GPU, radix on the CPU — we charge
``Σ k_i·log2(k_i)`` key-ops accordingly) and a strided sweep merges
equal-key runs in place.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np

from ..coarsen.base import CoarseMapping
from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..parallel import tiles as _tiles
from ..parallel.primitives import stable_key_sort
from ..storage import budget as _budget
from ..storage import chunked as _chunked
from ..types import VI, WT
from .base import (
    coarse_vertex_weights,
    finalize_csr,
    register_constructor,
)
from .dedup import is_skewed

__all__ = ["construct_sort", "sort_cost", "sort_cost_keyops", "vertex_centric"]

_B = 8

#: map-sweep live bytes per window entry (adjncy view + mapped
#: pair + cross mask + packed key + estimate gathers)
_CONSTRUCT_BPE = 5 * _B


def sort_cost_keyops(bin_sizes: np.ndarray) -> float:
    """Key-ops of per-bin sorting: ``Σ k·ceil(log2 k)`` over non-trivial bins."""
    k = bin_sizes[bin_sizes > 1].astype(np.float64)
    if len(k) == 0:
        return 0.0
    return float((k * np.ceil(np.log2(k))).sum())


@register_constructor("sort")
def construct_sort(g: CSRGraph, mapping: CoarseMapping, space: ExecSpace) -> CSRGraph:
    """Algorithm 6 with sort-based deduplication (the paper's default)."""
    return vertex_centric(g, mapping, space, "sort", sort_cost)


def sort_cost(entries: int, bins: np.ndarray, distinct: int) -> KernelCost:
    """DEDUPWITHWTS by sorting each bin and merging equal-key runs.

    Team-serialisation penalty: a bin is sorted by one team, in shared
    memory while it fits; oversized bins (hub coarse vertices on skewed
    graphs) spill to device memory and serialise — the effect the
    degree-based keep-side sweep exists to prevent (25.7x on kron21,
    Section IV-A).  A team's shared memory holds ~4k key-value pairs;
    bitonic networks do log^2 passes, so a spilled sort pays several
    extra global sweeps.
    """
    big = bins[bins > 1]
    spill = 4.0 * float((big * np.log2(1.0 + big / 4096.0)).sum()) if len(big) else 0.0
    return KernelCost(
        # binning scatter (F/X writes) + dedup sweep + compaction
        stream_bytes=4.0 * _B * entries,
        random_bytes=2.0 * _B * entries,
        sort_key_ops=sort_cost_keyops(bins),
        spill_ops=spill,
        launches=3,
    )


def vertex_centric(
    g: CSRGraph,
    mapping: CoarseMapping,
    space: ExecSpace,
    strategy: str,
    dedup_cost: Callable[[int, np.ndarray, int], KernelCost],
) -> CSRGraph:
    """Algorithm 6, the pipeline of every vertex-centric strategy.

    ``strategy`` labels the ``dedup`` span and ``dedup_cost(entries,
    bins, distinct)`` prices the merge: ``entries`` reach it, split
    into per-source ``bins``, and ``distinct`` coarse entries leave it.
    Every strategy merges the same bins the same way, so all of them
    yield the same coarse graph byte for byte, under every execution
    policy; only the charge differs.

    One pipeline for regular and skewed graphs.  Each edge-volume pass
    is one row-window body run through
    :func:`repro.parallel.tiles.row_window_map`, so resident, tiled and
    budgeted runs share it:

    * the *count pass* (skewed graphs only) sums each window's cross
      count and partial C' (0/1 bincounts, so the sums are exact);
    * the *map sweep* maps each window to coarse pairs and keeps the
      cross entries — on skewed graphs only the copy the degree-based
      keep-side predicate picks — as fused power-of-two sort keys;
    * the *dedup* sorts the stitched keys resident (:func:`_dedup_keys`)
      or, under an installed :mod:`repro.storage.budget` whose ceiling
      is below the edge-volume transients, spills them and dedups out
      of core (:func:`_dedup_spilled`).

    Regular rows come straight from the sorted key runs; skewed rows
    hold one copy per coarse edge and go through the transpose pass
    (GraphConsWithTrans).  Results, ledger charges and trace spans are
    byte-identical under every execution policy.
    """
    b = _budget.current()
    if b is not None and not b.engages(_CONSTRUCT_BPE * g.m_directed):
        b = None
    skewed = is_skewed(g)
    n_c = mapping.n_c
    m = mapping.m
    if g.n < (1 << 31):
        m = m.astype(np.int32)  # halves the bandwidth of the edge-wise gathers
    # the sort key fuses the coarse pair; its radix is the next power of
    # two above n_c so the pair unpacks with a shift and a mask instead
    # of an integer division, and the sort order is the (mu, mv) lex order
    shift = max(1, int(n_c - 1).bit_length()) if n_c > 1 else 1
    # unit-weight fine graphs (every level-0 input): merged weights are
    # exactly the duplicate counts, so neither the weight array nor the
    # sort permutation is ever needed — the key sorts bare.  Those bare
    # keys stay 32-bit whenever the packed pair fits, halving the sort
    # and scan bandwidth (weighted keys feed the stable packed-int64
    # sort and must stay wide).
    unit_w = g.has_unit_ewgts()
    key_t = (
        np.int32
        if unit_w and m.dtype == np.int32 and (n_c << shift) < (1 << 31)
        else np.int64
    )
    degs = g.degrees()

    carry = tie = None
    if skewed:
        if b is None:
            # resident count windows are kept for the map sweep instead
            # of being gathered twice, and the tie-break is the graph's
            # cached ``u < v`` mask (a persistent graph builds it once).
            # Budget windows keep neither, so the out-of-core working
            # set stays one window.
            carry = {}
            tie = g.tie_mask()

        def count(r0, r1, e0, e1):
            pair = _mapped_pair_window(m, g, degs, r0, r1, e0, e1)
            if carry is not None:
                carry[r0] = pair
            mu_w, _mv, cross_w, _adj = pair
            return int(np.count_nonzero(cross_w)), np.bincount(mu_w, weights=cross_w, minlength=n_c)

        c = 0
        cp_acc = np.zeros(n_c, dtype=np.float64)
        for c_w, cp_w in _tiles.row_window_map(g.xadj, _CONSTRUCT_BPE, count, g):
            c += c_w
            cp_acc += cp_w
        # C' of Algorithm 6 without compacting: the bool-weighted
        # bincount counts exactly the cross entries per source.  The
        # estimates are gathered through the fine-vertex table:
        # ``c_prime[mu]`` is a repeat of the per-fine-vertex values and
        # ``c_prime[mv]`` an int64-indexed gather — both far cheaper than
        # indexing with the 32-bit ``mu``/``mv``, which NumPy would
        # first convert.
        cp_fine = cp_acc.astype(np.int32 if c < (1 << 31) else VI)[mapping.m]

    def sweep(r0, r1, e0, e1):
        if carry is not None:
            mu_w, mv_w, sel, adj_w = carry.pop(r0)
        else:
            mu_w, mv_w, sel, adj_w = _mapped_pair_window(m, g, degs, r0, r1, e0, e1)
        if skewed:
            # keep-side predicate (Algorithm 6, lines 9 / 17): keep the
            # copy whose source has the smaller C', fine ids breaking ties
            cu_est = np.repeat(cp_fine[r0:r1], degs[r0:r1])
            cv_est = cp_fine[adj_w]
            if tie is not None:
                tie_w = tie[e0:e1]
            else:
                tie_w = np.repeat(np.arange(r0, r1, dtype=m.dtype), degs[r0:r1]) < adj_w
            sel = sel & ((cu_est < cv_est) | ((cu_est == cv_est) & tie_w))
        # fuse over the window, then compress once: one boolean-mask
        # pass instead of two
        key_w = (mu_w * key_t(1 << shift) + mv_w)[sel]
        return key_w, None if unit_w else np.asarray(g.ewgts[e0:e1])[sel]

    parts = _tiles.row_window_map(g.xadj, _CONSTRUCT_BPE, sweep, g)
    with _chunked.SpillArena() if b is not None else contextlib.nullcontext() as arena:
        if arena is None:
            keys, ws = zip(*parts)
            key = _tiles.stitch(keys)
            w = None if unit_w else _tiles.stitch(ws)
        else:
            key, w = _spill(parts, arena, key_t, unit_w)
        space.ledger.charge(
            "construction",
            KernelCost(
                stream_bytes=3.0 * _B * g.m_directed + 2.0 * _B * g.n,
                random_bytes=_B * g.m_directed,
                launches=1,
            ),
        )
        vwgts = coarse_vertex_weights(g, mapping, space)

        total = len(key)
        # per-source-bin sizes of the *pre-dedup* entries, for the
        # dedup pricing.  The sorted key makes each source's run
        # contiguous, so the bins fall out of n_c binary searches for
        # the row boundaries instead of a scatter-add over all entries.
        row_bounds = np.arange(n_c + 1, dtype=key_t) << shift
        with space.span("dedup", strategy=strategy, skew_opt=skewed):
            if skewed:
                # C' by atomic increments, then the keep-side predicate,
                # each over the c cross entries
                space.ledger.charge(
                    "construction",
                    KernelCost(
                        stream_bytes=_B * c + _B * n_c,
                        random_bytes=_B * c,
                        atomic_ops=float(c),
                        launches=1,
                    ),
                )
                space.ledger.charge(
                    "construction",
                    KernelCost(
                        stream_bytes=3.0 * _B * c,
                        random_bytes=2.0 * _B * c,
                        launches=1,
                    ),
                )
            if arena is None:
                t = _tiles.current()
                eng = t if t is not None and t.engaged(total) else None
                key_d, w_d, bins = _dedup_keys(key, w, n_c << shift, row_bounds, eng)
            else:
                key_d, w_d, bins = _dedup_spilled(
                    key, w, n_c << shift, row_bounds,
                    b.window_entries(_CONSTRUCT_BPE), arena,
                )
            cv = key_d & key_t((1 << shift) - 1)
            space.ledger.charge("construction", dedup_cost(total, bins, len(key_d)))
    if not skewed:
        space.ledger.charge(
            "construction",
            KernelCost(stream_bytes=4.0 * _B * len(cv), launches=1),
        )
        # rows are contiguous in the dedup'd keys too: the same boundary
        # searches yield the CSR row pointer directly
        xadj = np.searchsorted(key_d, row_bounds).astype(VI)
        return CSRGraph(xadj, cv, w_d, vwgts, g.name)
    # GraphConsWithTrans: emit the <v, u> reverses and rebuild rows.  The
    # pair goes back to the mapping's width first: weighted keys decode
    # to int64, and finalize_csr runs ~45% slower on an int64 pair
    mu = (key_d >> shift).astype(m.dtype, copy=False)
    mv = cv.astype(m.dtype, copy=False)
    mu, mv = np.concatenate([mu, mv]), np.concatenate([mv, mu])
    w = np.concatenate([w_d, w_d])
    space.ledger.charge(
        "construction",
        KernelCost(
            stream_bytes=6.0 * _B * len(mu),
            random_bytes=2.0 * _B * len(mu),  # scatter into rows
            atomic_ops=float(len(mu)) / 2.0,  # per-row slot counters
            launches=2,
        ),
    )
    return finalize_csr(n_c, mu, mv, w, vwgts, g.name)


def _mapped_pair_window(m, g, degs, r0, r1, e0, e1):
    """One window's mapped entries: ``(mu, mv, cross, adjncy slice)``."""
    adj_w = np.asarray(g.adjncy[e0:e1])
    mu_w = np.repeat(m[r0:r1], degs[r0:r1])
    mv_w = m[adj_w]
    return mu_w, mv_w, mu_w != mv_w, adj_w


def _dedup_keys(key, w, key_bound, bounds, eng=None):
    """Sort fused keys resident and merge equal-key runs.

    Returns ``(distinct keys, summed weights, per-bin sizes)``; the bins
    are the pre-dedup run sizes between consecutive ``bounds``.
    ``w=None`` means unit weights: the run lengths ARE the summed
    weights, bit-exactly, so the key sorts bare and in place.
    """
    c = len(key)
    if w is None:
        if eng is not None:
            # bare keys are multiset-canonical: tiled runs + pairwise
            # merges reproduce np.sort bitwise (see repro.parallel.tiles)
            _tiles.parallel_sort(key, eng)
        else:
            key.sort()
        key_s = key
    else:
        order, key_s = stable_key_sort(key, key_bound, eng=eng)
    bins = np.diff(np.searchsorted(key_s, bounds))
    if not c:
        return np.zeros(0, dtype=VI), np.zeros(0, dtype=WT), bins
    new_run = np.empty(c, dtype=bool)
    new_run[0] = True
    new_run[1:] = key_s[1:] != key_s[:-1]
    first = np.flatnonzero(new_run)
    if w is None:
        w_d = np.diff(np.append(first, c)).astype(np.float64)
    else:
        # reduceat sums each equal-key run left to right — bitwise-equal
        # to the sequential scatter-add merge sweep
        w_d = np.add.reduceat(w[order], first).astype(WT, copy=False)
    return key_s[first], w_d, bins


# --------------------------------------------------------------------------
# out-of-core dedup (an engaged budget)
#
# The streaming discipline that keeps these byte-identical to the
# resident dedup above:
#
# * the count pass and the map sweep are the same row-window bodies,
#   run as budget-sized windows by the driver, so every reduction
#   segment lives in one window and associates left-to-right exactly
#   as the global call;
# * partial bincounts of 0/1 weights sum exact integers (< 2^53), so
#   accumulating them per window reproduces the one-shot bincount;
# * spilled sort keys pass through an external merge sort that yields
#   the same array np.sort would; weighted dedup packs the original
#   index into the key word, so the sorted order equals the stable
#   argsort and each run's weights reduce in one reduceat segment;
# * charges are issued with the *same formulas, in the same order,
#   inside the same spans* — window passes never charge.
# --------------------------------------------------------------------------


def _spill(parts, arena, key_t, unit_w):
    """Append each window's ``(keys, weights)`` fragment to spill files.

    Consumes the driver's windows one at a time; returns the finished
    ``(key, weight)`` memmaps (weights ``None`` when ``unit_w``).
    """
    key_sf = arena.create("key", key_t)
    w_sf = None if unit_w else arena.create("w", WT)
    for key_w, w_w in parts:
        key_sf.append(key_w)
        if w_sf is not None:
            w_sf.append(w_w)
    return key_sf.finish(), None if w_sf is None else w_sf.finish()


def _stream_pack_index(key_mm, arena, win, idx_bits):
    """Re-spill bare keys as ``(key << idx_bits) + position`` words."""
    packed_sf = arena.create("packed", np.int64)
    for i in range(0, len(key_mm), win):
        blk = np.asarray(key_mm[i : i + win]).astype(np.int64, copy=False)
        packed_sf.append(
            (blk << np.int64(idx_bits)) + (i + np.arange(len(blk), dtype=np.int64))
        )
    return packed_sf.finish()


def _packable(c: int, key_bound: int) -> tuple[bool, int]:
    idx_bits = max(1, int(c - 1).bit_length()) if c > 1 else 1
    key_bits = max(1, int(key_bound - 1).bit_length()) if key_bound > 1 else 1
    return idx_bits + key_bits <= 63, idx_bits


def _dedup_spilled(key_mm, w_mm, key_bound, bounds, win, arena):
    """Out-of-core :func:`_dedup_keys` over spilled keys (and weights).

    External merge sort plus streamed run merging with ~``win`` entries
    resident; weighted keys carry their spill position in the low bits
    so the sorted words equal the stable argsort.  Falls back to the
    resident sort when a packed word would overflow.
    """
    c = len(key_mm)
    empty = np.zeros(0, dtype=VI), np.zeros(0, dtype=WT)
    if w_mm is None:
        key_s = _chunked.external_sort(key_mm, win, arena)
        key_d, counts = _chunked.unit_runs_stream(key_s, win) if c else empty
        return key_d, counts.astype(WT), np.diff(np.searchsorted(key_s, bounds))
    ok, idx_bits = _packable(c, key_bound)
    if not ok:
        return _dedup_keys(np.array(key_mm), np.array(w_mm), key_bound, bounds)
    packed_s = _chunked.external_sort(
        _stream_pack_index(key_mm, arena, win, idx_bits), win, arena
    )
    key_d, w_d = (
        _chunked.weighted_runs_stream(packed_s, idx_bits, w_mm, win) if c else empty
    )
    bins = np.diff(
        np.searchsorted(packed_s, bounds.astype(np.int64) << np.int64(idx_bits))
    )
    return key_d, w_d.astype(WT, copy=False), bins
