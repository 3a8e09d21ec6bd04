"""Vertex-centric construction with sort-based deduplication (Algorithm 6).

The default strategy of the paper: edges are binned by source coarse
vertex into the intermediate F/X arrays, each bin is sorted by
destination id (bitonic sort on the GPU, radix on the CPU — we charge
``Σ k_i·log2(k_i)`` key-ops accordingly), and a strided sweep merges
equal-key runs in place.  On skewed graphs the degree-based keep-side
sweep first halves and *balances* the bins, and a final transpose pass
(GraphConsWithTrans) restores symmetric storage.
"""

from __future__ import annotations

import contextlib

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

__all__ = ["construct_sort", "sorted_dedup", "sort_cost_keyops"]

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


def sorted_dedup(
    mu: np.ndarray | None,
    mv: np.ndarray | None,
    w: np.ndarray | None,
    n_c: int,
    space: ExecSpace,
    phase: str = "construction",
    *,
    packed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DEDUPWITHWTS by sorting: bin by ``mu``, sort bins by ``mv``, merge runs.

    Returns deduplicated ``(mu, mv, w)`` with weights of parallel coarse
    edges summed.  The NumPy realisation is a single lexsort — the
    *charged* cost is per-bin sorting, which is what the algorithm does.
    Callers on unit-weight graphs pass ``w=None``: the merged weights
    are exactly the duplicate counts, so no weight array or sort
    permutation is needed and the key sorts bare.  Such callers that
    already hold the power-of-two fused key (built before their own
    compaction, which is cheaper than packing after it) pass it as
    ``packed`` with ``mu``/``mv`` as ``None``.
    """
    total = len(packed if packed is not None else mu)
    t = _tiles.current()
    eng = t if t is not None and t.engaged(total) else None
    if w is None:
        # power-of-two radix: same (mu, mv) lex order, and the pair
        # unpacks from the sorted key with a shift and a mask; the key
        # stays 32-bit when the packed pair fits, halving sort bandwidth
        shift = max(1, int(n_c - 1).bit_length()) if n_c > 1 else 1
        if packed is not None:
            key = packed
            key_t = key.dtype.type
        else:
            key_t = (
                np.int32
                if mu.dtype == np.int32 and (n_c << shift) < (1 << 31)
                else np.int64
            )
            key = mu * key_t(1 << shift) + mv
        if eng is not None:
            # bare keys are multiset-canonical: tiled runs + pairwise
            # merges reproduce np.sort bitwise (see repro.parallel.tiles)
            _tiles.parallel_sort(key, eng)
        else:
            key.sort()
        # the sorted key makes each source's bin contiguous: bin sizes
        # come from n_c boundary searches instead of a scatter-add
        bins = np.diff(np.searchsorted(key, np.arange(n_c + 1, dtype=key_t) << shift))
        if total:
            new_run = np.empty(total, dtype=bool)
            new_run[0] = True
            new_run[1:] = key[1:] != key[:-1]
            first = np.flatnonzero(new_run)
            key_d = key[first]
            mu = key_d >> shift
            mv = key_d & key_t((1 << shift) - 1)
            # run lengths ARE the summed unit weights, bit-exactly
            w = np.diff(np.append(first, total)).astype(WT)
        else:
            if packed is not None:
                mu = mv = np.zeros(0, dtype=VI)  # no pair arrays were passed
            w = np.zeros(0, dtype=WT)
    else:
        # one stable radix sort of the fused (mu, mv) key == lexsort((mv, mu))
        order, key = stable_key_sort(mu * np.int64(n_c) + mv, n_c * n_c, eng=eng)
        mu, mv, w = mu[order], mv[order], w[order]
        bins = np.diff(np.searchsorted(key, np.arange(n_c + 1, dtype=np.int64) * np.int64(n_c)))
        if total:
            new_run = np.empty(total, dtype=bool)
            new_run[0] = True
            new_run[1:] = key[1:] != key[:-1]
            first = np.flatnonzero(new_run)
            # reduceat sums each equal-key run left to right — bitwise-equal
            # to the sequential scatter-add merge sweep
            wsum = np.add.reduceat(w, first).astype(WT, copy=False)
            mu, mv, w = mu[first], mv[first], wsum
    # team-serialisation penalty: a bin is sorted by one team, in shared
    # memory while it fits; oversized bins (hub coarse vertices on
    # skewed graphs) spill to device memory and serialise — the effect
    # the degree-based keep-side sweep exists to prevent (25.7x on
    # kron21, Section IV-A).  A team's shared memory holds ~4k key-value
    # pairs; bitonic networks do log^2 passes, so a spilled sort pays
    # several extra global sweeps.
    big = bins[bins > 1]
    spill = 4.0 * float((big * np.log2(1.0 + big / 4096.0)).sum()) if len(big) else 0.0
    space.ledger.charge(
        phase,
        KernelCost(
            # binning scatter (F/X writes) + dedup sweep + compaction
            stream_bytes=4.0 * _B * total if total else 0.0,
            random_bytes=2.0 * _B * total if total else 0.0,
            sort_key_ops=sort_cost_keyops(bins),
            spill_ops=spill,
            launches=3,
        ),
    )
    return mu, mv, w


@register_constructor("sort")
def construct_sort(g: CSRGraph, mapping: CoarseMapping, space: ExecSpace) -> CSRGraph:
    """Algorithm 6 with sort-based deduplication (the paper's default).

    The skewed-degree path fuses the map sweep with the keep-side
    predicate: the mapped pair, the degree estimates and the keep mask
    are all evaluated on the full directed-edge arrays, and the single
    compaction goes straight from 2m entries to the kept half.  Bit-
    and charge-identical to ``mapped_cross_edges`` →
    ``degree_estimates`` → ``keep_lighter_end`` → ``sorted_dedup`` on
    the intermediate cross-edge arrays, which are never materialised.

    Under an installed :mod:`repro.storage.budget` whose ceiling is
    below the edge-volume transients, the map sweep's windows spill
    their compacted sort keys to disk and dedup runs out of core —
    results, ledger charges, and trace spans stay byte-identical.
    """
    b = _budget.current()
    if b is not None and not b.engages(_CONSTRUCT_BPE * g.m_directed):
        b = None
    if not is_skewed(g):
        return _construct_sort_regular(g, mapping, space, b)
    if b is not None:
        return _construct_sort_skewed_budgeted(g, mapping, space, b)

    n_c = mapping.n_c
    unit_w = g.has_unit_ewgts()
    m = mapping.m
    if g.n < (1 << 31):
        m = m.astype(np.int32)  # halves the bandwidth of the edge-wise gathers
    mu = np.repeat(m, g.degrees())
    mv = m[g.adjncy]
    cross = mu != mv
    space.ledger.charge(
        "construction",
        KernelCost(
            stream_bytes=3.0 * _B * g.m_directed + 2.0 * _B * g.n,
            random_bytes=_B * g.m_directed,
            launches=1,
        ),
    )
    vwgts = coarse_vertex_weights(g, mapping, space)

    with space.span("dedup", strategy="sort", skew_opt=True):
        c = int(np.count_nonzero(cross))
        # C' of Algorithm 6 without compacting: the bool-weighted
        # bincount counts exactly the cross entries per source
        dt = np.int32 if c < (1 << 31) else VI
        c_prime = np.bincount(mu, weights=cross, minlength=n_c).astype(dt)
        space.ledger.charge(
            "construction",
            KernelCost(
                stream_bytes=_B * c + _B * n_c,
                random_bytes=_B * c,
                atomic_ops=float(c),
                launches=1,
            ),
        )
        # keep-side predicate on the full arrays (charge-identical to
        # keep_lighter_end over the c cross entries).  The estimates are
        # gathered through the fine-vertex table: ``c_prime[mu]`` is a
        # repeat of the per-fine-vertex values and ``c_prime[mv]`` is an
        # int64-indexed gather — both far cheaper than indexing with the
        # 32-bit ``mu``/``mv`` arrays, which NumPy would first convert.
        cp_fine = c_prime[mapping.m]
        cu_est = np.repeat(cp_fine, g.degrees())
        cv_est = cp_fine[g.adjncy]
        keep = cross & ((cu_est < cv_est) | ((cu_est == cv_est) & g.tie_mask()))
        space.ledger.charge(
            "construction",
            KernelCost(
                stream_bytes=3.0 * _B * c,
                random_bytes=2.0 * _B * c,
                launches=1,
            ),
        )
        if unit_w:
            # pack the fused key on the full arrays and compress once —
            # the kept pair is never materialised before dedup
            shift = max(1, int(n_c - 1).bit_length()) if n_c > 1 else 1
            key_t = (
                np.int32
                if mu.dtype == np.int32 and (n_c << shift) < (1 << 31)
                else np.int64
            )
            packed = (mu * key_t(1 << shift) + mv)[keep]
            mu, mv, w = sorted_dedup(None, None, None, n_c, space, packed=packed)
        else:
            mu, mv, w = sorted_dedup(mu[keep], mv[keep], g.ewgts[keep], n_c, space)
    # GraphConsWithTrans: emit the <v, u> reverses and rebuild rows
    mu, mv = np.concatenate([mu, mv]), np.concatenate([mv, mu])
    w = np.concatenate([w, w])
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
    """One window of the map sweep: ``(mu, mv, cross, adjncy slice)``."""
    adj_w = np.asarray(g.adjncy[e0:e1])
    mu_w = np.repeat(m[r0:r1], degs[r0:r1])
    mv_w = m[adj_w]
    return mu_w, mv_w, mu_w != mv_w, adj_w


def _construct_sort_regular(
    g: CSRGraph, mapping: CoarseMapping, space: ExecSpace, b=None
) -> CSRGraph:
    """Fused regular-degree path: map, dedup and assemble in one pipeline.

    Bit- and charge-identical to ``mapped_cross_edges`` → ``sorted_dedup``
    → ``finalize_csr``, but only the fused ``(mu, mv)`` key and the
    weights are ever materialised: fine endpoints are never built (the
    keep-side predicate only runs on skewed inputs), the coarse id pair
    is carried as one radix-sortable word, and the final CSR comes
    straight from the sorted key runs.

    The map sweep is one row-window body.  Its per-window key fragments,
    in window order, equal the fused-then-compressed whole-graph array
    (windows partition edge space in row order); with an engaged budget
    ``b`` each fragment is spilled as it is produced and the dedup runs
    out of core (:func:`_dedup_spilled`).
    """
    n_c = mapping.n_c
    m = mapping.m
    if g.n < (1 << 31):
        m = m.astype(np.int32)  # halves the bandwidth of the edge-wise gathers
    # compress the narrow id pair first, fuse the sort key only for the
    # surviving cross edges.  The radix is the next power of two above
    # n_c so the pair unpacks with a shift and a mask instead of an
    # integer division; the sort order is the same (mu, mv) lex order.
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

    def window(r0, r1, e0, e1):
        mu_w, mv_w, cross_w, _adj = _mapped_pair_window(m, g, degs, r0, r1, e0, e1)
        # fuse over the window, then compress once: one boolean-mask
        # pass instead of two
        key_w = (mu_w * key_t(1 << shift) + mv_w)[cross_w]
        return key_w, None if unit_w else np.asarray(g.ewgts[e0:e1])[cross_w]

    parts = _tiles.row_window_map(g.xadj, _CONSTRUCT_BPE, window, g)
    with contextlib.ExitStack() as stack:
        if b is None:
            keys, ws = zip(*parts)
            key = _tiles.stitch(keys)
            w = None if unit_w else _tiles.stitch(ws)
        else:
            arena = stack.enter_context(_chunked.SpillArena())
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

        c = len(key)
        # per-source-bin sizes of the *pre-dedup* cross edges, for the
        # sort/spill pricing.  The sorted key makes each source's run
        # contiguous, so the bins fall out of n_c binary searches for
        # the row boundaries instead of a scatter-add over all entries.
        row_bounds = np.arange(n_c + 1, dtype=key_t) << shift
        with space.span("dedup", strategy="sort", skew_opt=False):
            if b is None:
                t = _tiles.current()
                eng = t if t is not None and t.engaged(c) else None
                key_d, w_d, bins = _dedup_keys(key, w, n_c << shift, row_bounds, eng)
            else:
                key_d, w_d, bins = _dedup_spilled(
                    key, w, n_c << shift, row_bounds,
                    b.window_entries(_CONSTRUCT_BPE), arena,
                )
            cv = key_d & key_t((1 << shift) - 1)
            big = bins[bins > 1]
            spill = 4.0 * float((big * np.log2(1.0 + big / 4096.0)).sum()) if len(big) else 0.0
            space.ledger.charge(
                "construction",
                KernelCost(
                    stream_bytes=4.0 * _B * c,
                    random_bytes=2.0 * _B * c,
                    sort_key_ops=sort_cost_keyops(bins),
                    spill_ops=spill,
                    launches=3,
                ),
            )
    space.ledger.charge(
        "construction",
        KernelCost(stream_bytes=4.0 * _B * len(cv), launches=1),
    )
    # rows are contiguous in the dedup'd keys too: the same boundary
    # searches yield the CSR row pointer directly
    xadj = np.searchsorted(key_d, row_bounds).astype(VI)
    return CSRGraph(xadj, cv, w_d, vwgts, g.name)


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
# in-memory paths above:
#
# * the map sweeps are the same row-window bodies, run as budget-sized
#   windows by the driver, so every reduction segment lives in one
#   window and associates left-to-right exactly as the global call;
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


def _construct_sort_skewed_budgeted(
    g: CSRGraph, mapping: CoarseMapping, space: ExecSpace, b
) -> CSRGraph:
    """Out-of-core rendering of the skewed ``construct_sort`` path.

    Two row-window passes through the driver: pass A accumulates the
    cross count and the per-coarse-vertex cross-degree estimates
    (partial 0/1 bincounts sum exactly); pass B re-derives the mapped
    pair, applies the keep-side predicate with a per-window tie-break
    (``src < adjncy`` — never the cached full-length
    :meth:`~repro.csr.graph.CSRGraph.tie_mask`), and spills the kept
    dedup keys.
    """
    n_c = mapping.n_c
    unit_w = g.has_unit_ewgts()
    m = mapping.m
    if g.n < (1 << 31):
        m = m.astype(np.int32)
    degs = g.degrees()
    idx_t = np.int32 if g.n < (1 << 31) else VI

    def count(r0, r1, e0, e1):
        mu_w, _mv, cross_w, _adj = _mapped_pair_window(m, g, degs, r0, r1, e0, e1)
        return int(np.count_nonzero(cross_w)), np.bincount(mu_w, weights=cross_w, minlength=n_c)

    c = 0
    cp_acc = np.zeros(n_c, dtype=np.float64)
    for c_w, cp_w in _tiles.row_window_map(g.xadj, _CONSTRUCT_BPE, count, g):
        c += c_w
        cp_acc += cp_w
    space.ledger.charge(
        "construction",
        KernelCost(
            stream_bytes=3.0 * _B * g.m_directed + 2.0 * _B * g.n,
            random_bytes=_B * g.m_directed,
            launches=1,
        ),
    )
    vwgts = coarse_vertex_weights(g, mapping, space)

    with space.span("dedup", strategy="sort", skew_opt=True), _chunked.SpillArena() as arena:
        dt = np.int32 if c < (1 << 31) else VI
        c_prime = cp_acc.astype(dt)
        space.ledger.charge(
            "construction",
            KernelCost(
                stream_bytes=_B * c + _B * n_c,
                random_bytes=_B * c,
                atomic_ops=float(c),
                launches=1,
            ),
        )
        shift = max(1, int(n_c - 1).bit_length()) if n_c > 1 else 1
        key_t = (
            np.int32
            if unit_w and m.dtype == np.int32 and (n_c << shift) < (1 << 31)
            else np.int64
        )
        cp_fine = c_prime[mapping.m]

        def keep(r0, r1, e0, e1):
            mu_w, mv_w, cross_w, adj_w = _mapped_pair_window(m, g, degs, r0, r1, e0, e1)
            cu_est = np.repeat(cp_fine[r0:r1], degs[r0:r1])
            cv_est = cp_fine[adj_w]
            tie_w = np.repeat(np.arange(r0, r1, dtype=idx_t), degs[r0:r1]) < adj_w
            keep_w = cross_w & ((cu_est < cv_est) | ((cu_est == cv_est) & tie_w))
            if unit_w:
                return (mu_w * key_t(1 << shift) + mv_w)[keep_w], None
            return (mu_w * np.int64(n_c) + mv_w)[keep_w], np.asarray(g.ewgts[e0:e1])[keep_w]

        key_mm, w_mm = _spill(
            _tiles.row_window_map(g.xadj, _CONSTRUCT_BPE, keep, g), arena, key_t, unit_w
        )
        space.ledger.charge(
            "construction",
            KernelCost(
                stream_bytes=3.0 * _B * c,
                random_bytes=2.0 * _B * c,
                launches=1,
            ),
        )
        total = len(key_mm)
        win = b.window_entries(_CONSTRUCT_BPE)
        if unit_w:
            key_d, w_d, bins = _dedup_spilled(
                key_mm, None, n_c << shift,
                np.arange(n_c + 1, dtype=key_t) << shift, win, arena,
            )
            mu_d, mv_d = key_d >> shift, key_d & key_t((1 << shift) - 1)
        else:
            key_d, w_d, bins = _dedup_spilled(
                key_mm, w_mm, n_c * n_c,
                np.arange(n_c + 1, dtype=np.int64) * np.int64(n_c), win, arena,
            )
            mu_d, mv_d = key_d // np.int64(n_c), key_d % np.int64(n_c)
        big = bins[bins > 1]
        spill = (
            4.0 * float((big * np.log2(1.0 + big / 4096.0)).sum()) if len(big) else 0.0
        )
        space.ledger.charge(
            "construction",
            KernelCost(
                stream_bytes=4.0 * _B * total if total else 0.0,
                random_bytes=2.0 * _B * total if total else 0.0,
                sort_key_ops=sort_cost_keyops(bins),
                spill_ops=spill,
                launches=3,
            ),
        )
    mu, mv = np.concatenate([mu_d, mv_d]), np.concatenate([mv_d, mu_d])
    w = np.concatenate([w_d, w_d])
    space.ledger.charge(
        "construction",
        KernelCost(
            stream_bytes=6.0 * _B * len(mu),
            random_bytes=2.0 * _B * len(mu),
            atomic_ops=float(len(mu)) / 2.0,
            launches=2,
        ),
    )
    return finalize_csr(n_c, mu, mv, w, vwgts, g.name)
