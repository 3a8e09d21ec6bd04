"""Incremental coarsening: frontier-localized hierarchy patching.

Production multilevel workloads mutate — edges arrive and disappear
while a warm hierarchy sits in the serving cache.  Rebuilding the whole
hierarchy per update wastes nearly all of its cost when only a small
frontier of the matching can change: HEC's decisions are local to edge
ratings (the heaviest-neighbour pointer of a vertex depends only on its
own adjacency row), so an :class:`~repro.csr.update.EdgeDelta` can only
flip the mapping inside a bounded neighbourhood of the updated edges.

:func:`patch_hierarchy` exploits that locality level by level:

frontier
    The rows whose content changed are re-scanned for their heaviest
    neighbour on both the old and new fine graph.  A vertex whose
    choice changed (or that is newly created at this level) seeds the
    frontier; every *aggregate* containing a seed — or a vertex that no
    longer exists — is dissolved wholesale, which closes the "matched
    partners, transitively" requirement in a single round: released
    partners re-enter the race together.

pinned re-matching with stable ids
    Surviving aggregates are *pinned* at their exact old ids into a
    pre-claimed :class:`~repro.parallel.wavekernels.ClaimState`; only
    the frontier runs the build's HEC wave race
    (:func:`~repro.coarsen.hec.wave_race`, lane counts scaled to the
    frontier).  Frontier lanes may inherit into pinned aggregates —
    their writes are visible from wave start — or create fresh ones,
    numbered above the old id range.  After the race, each created
    aggregate recycles a retired id by member majority vote, so a
    re-match that reproduces the old grouping reproduces the old *ids*
    and the delta dies instead of cascading; when the aggregate count
    shrinks, the used ids at the top of the range slide down into the
    remaining holes.

localized construction
    A coarse row can change only if one of its members' rows changed, a
    member joined or left, a member fine-neighbours a *moved* frontier
    vertex, or the row referenced a survivor whose id slid down.  Only
    those *dirty* rows are rebuilt from fine adjacency (the sort
    constructor's own dedup, at member volume); clean rows are shared
    byte-for-byte with the old coarse graph — stable ids mean every id
    a clean row references is unchanged.  The ledger models clean rows
    as copy-on-write segment reuse: only dirty entries, the row-pointer
    rebuild, and frontier-scale delta bookkeeping are charged — see
    DESIGN.md §5h.

level propagation and early exit
    The patched level emits the next level's delta: rows whose rebuilt
    content differs from the remapped old row, created/dissolved
    aggregate ids, and a separate *vertex-weight-dirty* channel (a
    pinned aggregate that gained members changes its coarse vertex
    weight without necessarily changing any adjacency row — vertex
    weights never influence HEC matching, only balance).  When the
    delta dies out entirely, the remaining base levels are adopted
    verbatim and the patch stops early; when the base levels run out
    first, the build's own level loop finishes the hierarchy.

Quality is asserted, not assumed: the tolerances the patched hierarchy
must meet against a from-scratch rebuild are declared here
(:data:`QUALITY_TOL`, :data:`COST_RATIO_GATE`) and enforced by the test
suite and the update-stream benchmark gate.
"""

from __future__ import annotations

import numpy as np

from ..csr.graph import CSRGraph
from ..csr.update import EdgeDelta, _member_mask
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..parallel.memory import MemoryTracker, mapping_workspace
from ..parallel.primitives import segment_max_index
from ..parallel.wavekernels import ClaimState, group_ranks
from ..types import COARSEN_CUTOFF, UNMAPPED, VI, WT
from .base import CoarseMapping
from .hec import hec_parallel, wave_race
from .multilevel import MAX_LEVELS, GraphHierarchy, _keep_level, _level_loop

__all__ = ["patch_hierarchy", "QUALITY_TOL", "COST_RATIO_GATE"]

_B = 8

#: Declared quality tolerances of a patched hierarchy against a
#: from-scratch rebuild on the same mutated graph (same seed): relative
#: edge-cut slack of the downstream bisection, absolute imbalance slack,
#: and relative coarsening-ratio slack.  Asserted in tests and gated in
#: the update-stream CI job.
QUALITY_TOL = {"cut_rel": 0.35, "imbalance_abs": 0.05, "cr_rel": 0.35}

#: A patch may charge at most this fraction of the from-scratch
#: rebuild's ledger cost on the update-stream bench scenario.
COST_RATIO_GATE = 0.25


# ---------------------------------------------------------------------------
# localized row access
# ---------------------------------------------------------------------------

def _heavy_rows(g: CSRGraph, rows: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Heaviest neighbour of each row in ``rows`` plus (volume, spill).

    Byte-identical to the corresponding entries of the full
    :func:`repro.coarsen.hec.heavy_neighbors` pass: ties resolve to the
    earliest adjacency entry, empty rows get ``UNMAPPED``.  (The
    constant-weight fast path inside :func:`segment_max_index` may fire
    on a slice where the full pass would not, but when every gathered
    weight is equal the first entry *is* the first maximum of each row,
    so the winners agree.)
    """
    if len(rows) == 0:
        return np.zeros(0, dtype=VI), 0, 0.0
    pos, local, degs, _, _ = g.gather_rows(rows)
    vals = np.asarray(g.ewgts[pos]) if len(pos) else np.zeros(0, dtype=WT)
    idx = segment_max_index(None, vals, local, lengths=degs)
    adj = np.asarray(g.adjncy[pos]) if len(pos) else np.zeros(0, dtype=VI)
    if len(adj) == 0:
        # every gathered row is edgeless: no index is selected, but the
        # fancy-index below would still poke the empty gather
        h = np.full(len(rows), UNMAPPED, dtype=VI)
    else:
        h = np.where(idx >= 0, adj[np.clip(idx, 0, None)], UNMAPPED).astype(VI)
    big = degs[degs > 1].astype(np.float64)
    spill = float((big * np.log2(1.0 + big / 1024.0)).sum()) if len(big) else 0.0
    return h, int(len(pos)), spill


# ---------------------------------------------------------------------------
# per-level delta state
# ---------------------------------------------------------------------------

class _LevelDelta:
    """What changed at one hierarchy level, old fine graph vs new.

    ``old_of[u]`` is the old fine id of new vertex ``u`` (-1: created
    this patch); ``new_of[o]`` inverts it (-1: dissolved).  ``touched``
    holds the new ids whose adjacency-row *content* changed;
    ``vw_dirty`` the new ids whose vertex weight changed (rows possibly
    untouched — the channel only feeds balance, never matching).
    """

    __slots__ = ("old_of", "new_of", "touched", "vw_dirty")

    def __init__(self, old_of, new_of, touched, vw_dirty):
        self.old_of = old_of
        self.new_of = new_of
        self.touched = touched
        self.vw_dirty = vw_dirty

    @property
    def _identity(self) -> bool:
        """Same vertex set, same ids (stable relabelling fixed-point)."""
        return (
            len(self.old_of) == len(self.new_of)
            and (len(self.old_of) == 0 or bool(self.old_of[-1] == len(self.old_of) - 1))
            and bool((self.old_of >= 0).all())
        )

    @property
    def trivial(self) -> bool:
        """True when this level's fine graph is identical to the base's."""
        return len(self.touched) == 0 and len(self.vw_dirty) == 0 and self._identity

    @property
    def vw_only(self) -> bool:
        """Only vertex weights changed: adjacency and ids are the base's.

        Vertex weights never influence HEC matching, so the whole level
        reuses the base mapping and adjacency; only the coarse weight
        array takes the (possibly cancelling) corrections.
        """
        return len(self.touched) == 0 and len(self.vw_dirty) > 0 and self._identity

    @classmethod
    def initial(cls, n: int, delta: EdgeDelta) -> "_LevelDelta":
        ident = np.arange(n, dtype=VI)
        return cls(ident, ident, delta.touched.astype(VI), np.zeros(0, dtype=VI))


# ---------------------------------------------------------------------------
# one-level patch: frontier match + localized construction
# ---------------------------------------------------------------------------

def _frontier_match(
    fine_old: CSRGraph,
    fine_new: CSRGraph,
    mapping_old: CoarseMapping,
    ld: _LevelDelta,
    space: ExecSpace,
):
    """Re-run HEC on the affected frontier with the rest pinned.

    Aggregate ids are **stable**: survivors keep their exact old ids,
    re-created aggregates recycle the ids they dissolved from (member
    majority vote), and only the top-of-range survivors move when the
    aggregate count shrinks.  A frontier race that reproduces the old
    grouping therefore reproduces the old *ids*, and the delta dies
    instead of cascading through every neighbouring coarse row.

    Returns ``(mapping, aux)`` where ``aux`` carries the
    frontier, the moved-member set, the old↔final aggregate id maps,
    and the surviving-mover list the construction pass needs.
    """
    n_new, n_old = fine_new.n, fine_old.n
    m_old_arr = mapping_old.m
    n_c_old = mapping_old.n_c
    touched = ld.touched
    created = np.flatnonzero(ld.old_of == UNMAPPED).astype(VI)
    gone = np.flatnonzero(ld.new_of == UNMAPPED).astype(VI)

    # 1. which touched rows actually changed their heaviest-neighbour
    # choice?  An untouched row cannot: its content is identical up to
    # the id correspondence, which preserves the first-maximum winner.
    h_t_new, vol_a, spill_a = _heavy_rows(fine_new, touched)
    h_t_old, vol_b, spill_b = _heavy_rows(fine_old, ld.old_of[touched])
    h_t_old_in_new = np.where(h_t_old >= 0, ld.new_of[h_t_old], VI(UNMAPPED))
    changed = h_t_old_in_new != h_t_new
    seeds = touched[changed]

    # 2. dissolve every old aggregate containing a seed or a vanished
    # vertex: releasing whole aggregates closes "matched partners,
    # transitively" in one round.
    dissolved = np.zeros(n_c_old, dtype=bool)
    seed_old = np.concatenate([ld.old_of[seeds], gone])
    if len(seed_old):
        dissolved[m_old_arr[seed_old]] = True
    member_new = ld.new_of[np.flatnonzero(dissolved[m_old_arr])]
    frontier = np.unique(np.concatenate([member_new[member_new >= 0], created])).astype(VI)
    retired = np.flatnonzero(dissolved).astype(np.int64)
    n_r = len(retired)

    # 3. pin the survivors at their *exact* old ids.  Pinned writes keep
    # wstamp -1, so they are visible to every wave: a frontier lane
    # whose heavy neighbour stayed pinned inherits immediately.  Race
    # creates number upward from n_c_old, so they never collide with a
    # retired id while the race runs.
    st = ClaimState(n_new)
    pinned_mask = np.ones(n_new, dtype=bool)
    pinned_mask[frontier] = False
    pinned = np.flatnonzero(pinned_mask)
    if len(pinned):
        st.m[pinned] = m_old_arr[ld.old_of[pinned]]
        st.claimed[pinned] = True
        st._any_claimed = True
    st.n_c = n_c_old

    # 4. heavy pointers for the frontier rows not already scanned
    in_touched = _member_mask(touched, frontier)
    h_f = np.empty(len(frontier), dtype=VI)
    if in_touched.any():
        h_f[in_touched] = h_t_new[np.searchsorted(touched, frontier[in_touched])]
    extra = frontier[~in_touched]
    h_extra, vol_c, spill_c = _heavy_rows(fine_new, extra)
    h_f[~in_touched] = h_extra

    # one fused delta-prep charge: the three heavy row gathers plus the
    # dissolution/pin bookkeeping.  The patched mapping is copy-on-write
    # off the base mapping — only frontier entries are written — and the
    # dissolution/pin masks are bitmaps, so the O(n) terms charge at
    # bitmap width and everything else at frontier scale.
    vol_h = vol_a + vol_b + vol_c
    rows_h = len(touched) * 2 + len(extra)
    space.ledger.charge(
        "mapping",
        KernelCost(
            stream_bytes=(
                2.0 * _B * vol_h
                + _B * rows_h
                + _B * (len(frontier) + len(seed_old) + n_r)
                + (n_new + n_c_old) / 8.0
            ),
            spill_ops=spill_a + spill_b + spill_c,
            launches=1,
        ),
    )

    # 5. the HEC wave race, frontier lanes only, with lane counts
    # localized; the frontier fits a single persistent block, so each
    # pass is one launch.  Isolated lanes take singleton ids in queue
    # order, and the queue permutation is one launch, not gen_perm.
    passes = 0
    resolved_per_pass: list[int] = []
    if len(frontier):
        f_n = len(frontier)
        perm = space.rng.permutation(f_n).astype(VI)
        space.ledger.charge(
            "mapping",
            KernelCost(
                stream_bytes=2.0 * _B * f_n,
                sort_key_ops=f_n * max(1.0, np.log2(max(f_n, 2))),
                launches=1,
            ),
        )
        queue = frontier[perm]
        h_q = h_f[perm]
        iso = h_q == UNMAPPED
        if iso.any():
            st.assign_singletons(queue[iso])
        passes, resolved_per_pass = wave_race(
            st, queue[~iso], h_q[~iso], space, launches=1
        )

    # 6. stable relabel.  Each race-created temp id recycles a retired
    # id by member majority vote (ties: lowest temp, then lowest old id
    # — deterministic); leftover temps take leftover retired ids in
    # ascending order, then fresh ids beyond n_c_old.  If the aggregate
    # count shrank, the used ids at the top of the range slide down into
    # the remaining holes (ascending ↔ ascending), keeping the final id
    # space dense.
    n_create = st.n_c - n_c_old
    n_c_final = n_c_old - n_r + n_create
    assigned_t = np.full(max(n_create, 1), -1, dtype=np.int64)[:n_create]
    if n_create:
        fm = np.asarray(st.m[frontier], dtype=np.int64)
        f_old = ld.old_of[frontier]
        vmask = (f_old >= 0) & (fm >= n_c_old)
        free_r = retired
        if vmask.any():
            t_v = fm[vmask] - n_c_old
            o_v = m_old_arr[f_old[vmask]].astype(np.int64)
            key = t_v * np.int64(n_c_old + 1) + o_v
            uk, cnt = np.unique(key, return_counts=True)
            tt = uk // (n_c_old + 1)
            oo = uk % (n_c_old + 1)
            used_o = np.zeros(n_c_old, dtype=bool)
            for i in np.lexsort((oo, tt, -cnt)):
                t, o = int(tt[i]), int(oo[i])
                if assigned_t[t] < 0 and not used_o[o]:
                    assigned_t[t] = o
                    used_o[o] = True
            free_r = retired[~used_o[retired]]
        free_t = np.flatnonzero(assigned_t < 0)
        k = min(len(free_t), len(free_r))
        if k:
            assigned_t[free_t[:k]] = free_r[:k]
        if len(free_t) > k:
            assigned_t[free_t[k:]] = n_c_old + np.arange(len(free_t) - k, dtype=np.int64)

    relabel = np.full(st.n_c, -1, dtype=np.int64)
    surv = np.flatnonzero(~dissolved).astype(np.int64)
    relabel[surv] = surv
    if n_create:
        relabel[n_c_old + np.arange(n_create)] = assigned_t
    final_map = np.arange(st.n_c, dtype=np.int64)
    movers_old = np.zeros(0, dtype=VI)
    if n_c_final < n_c_old:
        used_mask = np.zeros(st.n_c, dtype=bool)
        used_mask[relabel[relabel >= 0]] = True
        high = np.flatnonzero(used_mask[n_c_final:]) + n_c_final
        holes = np.flatnonzero(~used_mask[:n_c_final])
        final_map[high] = holes
        movers_old = surv[final_map[surv] != surv].astype(VI)
    relabel = np.where(relabel >= 0, final_map[np.maximum(relabel, 0)], -1).astype(VI)

    m_final = relabel[st.m]

    # old aggregate id ↔ final id.  A recycled id is the *continuation*
    # of the aggregate it dissolved from: next-level comparisons treat
    # it as the same vertex with (possibly) changed row content, which
    # is exactly what makes a byte-stable re-match kill the delta.
    new_of_agg = relabel[:n_c_old].copy()
    if n_create:
        rec = (assigned_t >= 0) & (assigned_t < n_c_old)
        if rec.any():
            ro = assigned_t[rec]
            new_of_agg[ro] = final_map[ro]
    old_of_agg = np.full(n_c_final, UNMAPPED, dtype=VI)
    src = np.flatnonzero(new_of_agg >= 0)
    old_of_agg[new_of_agg[src]] = src

    # moved members: frontier that landed in a different aggregate than
    # before (or was created), plus nothing else — pinned members of a
    # moved survivor keep their value through relabel and are handled by
    # the mover channel in construction.
    f_old = ld.old_of[frontier]
    old_agg_f = np.where(f_old >= 0, m_old_arr[np.maximum(f_old, 0)], VI(-1))
    f_moved = frontier[(f_old < 0) | (m_final[frontier] != old_agg_f)]

    # relabel bookkeeping charge: the vote/assign pass is frontier- and
    # delta-scale; the mapping rewrite is COW (only entries whose value
    # changed are written)
    old_m_of_new = np.where(ld.old_of >= 0, m_old_arr[np.maximum(ld.old_of, 0)], VI(-1))
    n_m_changed = int(np.count_nonzero(m_final != old_m_of_new))
    space.ledger.charge(
        "mapping",
        KernelCost(
            stream_bytes=(
                _B * (2.0 * len(frontier) + 3.0 * n_create + n_r + 2.0 * n_m_changed)
                + _B * (n_c_old + n_c_final)  # agg-map materialization
                + st.n_c / 8.0
            ),
            launches=1,
        ),
    )

    mapping = CoarseMapping(
        m_final,
        n_c_final,
        {
            "algorithm": "hec_delta",
            "passes": passes,
            "resolved_per_pass": resolved_per_pass,
            "frontier": int(len(frontier)),
            "dissolved": int(n_r),
            "recycled": int(np.count_nonzero(assigned_t < n_c_old)) if n_create else 0,
            "moved_members": int(len(f_moved)),
            "movers": int(len(movers_old)),
        },
    )
    aux = {
        "frontier": frontier,
        "f_moved": f_moved,
        "movers_old": movers_old,
        "new_of_agg": new_of_agg,
        "old_of_agg": old_of_agg,
        "surv_old": surv.astype(VI),
        "surv_new": relabel[surv],
    }
    return mapping, aux


def _patch_construct(
    fine_old: CSRGraph,
    fine_new: CSRGraph,
    coarse_old: CSRGraph,
    mapping: CoarseMapping,
    ld: _LevelDelta,
    aux: dict,
    space: ExecSpace,
) -> tuple[CSRGraph, _LevelDelta]:
    """Rebuild only the dirty coarse rows; byte-copy the clean ones.

    With stable aggregate ids a clean row needs **no remap**: every id
    it references is either an unmoved survivor or a recycled-in-place
    aggregate, both of which kept their id.  A coarse row is dirty iff
    one of its members is touched, is in the frontier, or fine-neighbours
    a *moved* frontier vertex — plus the surviving rows adjacent (in the
    old coarse graph) to a survivor whose id slid down into a hole.
    Clean rows adjacent to a dissolved-and-not-recycled-in-place id are
    provably impossible: all of that aggregate's members moved, so any
    fine edge into it puts a member of the referencing row into
    ``N(F_moved)``.  Emits the next level's :class:`_LevelDelta` by
    comparing rebuilt rows against their translated old selves, which is
    what makes early exit genuine.
    """
    from ..construct.vertex_sort import _dedup_keys, sort_cost_keyops  # local: import cycle

    m_new = mapping.m
    n_c_new = mapping.n_c
    frontier = aux["frontier"]
    f_moved = aux["f_moved"]
    movers_old = aux["movers_old"]
    new_of_agg = aux["new_of_agg"]
    old_of_agg = aux["old_of_agg"]
    surv_old = aux["surv_old"]
    surv_new = aux["surv_new"]
    nn = np.int64(n_c_new)
    xadj_old = np.asarray(coarse_old.xadj)

    # dirty coarse rows: aggregates of touched ∪ F ∪ N(F_moved), plus
    # surviving rows that referenced a moved survivor in the old graph
    pos_f = fine_new.gather_rows(f_moved)[0]
    nbrs = np.asarray(fine_new.adjncy[pos_f]) if len(pos_f) else np.zeros(0, dtype=VI)
    d_rows = np.unique(np.concatenate([ld.touched, frontier, nbrs]))
    parts = [m_new[d_rows]] if len(d_rows) else []
    vol_mv = 0
    if len(movers_old):
        pos_q = coarse_old.gather_rows(movers_old)[0]
        q = new_of_agg[np.asarray(coarse_old.adjncy[pos_q])]
        parts.append(q[q >= 0])
        vol_mv = int(len(pos_q))
    c_dirty = (
        np.unique(np.concatenate(parts)).astype(VI) if parts else np.zeros(0, dtype=VI)
    )

    dirty_mask = np.zeros(n_c_new, dtype=bool)
    dirty_mask[c_dirty] = True
    members = np.flatnonzero(dirty_mask[m_new]).astype(VI)

    # rebuild dirty rows from fine adjacency (the usual map + sort-dedup
    # merge, restricted to member volume).  The member gather reads the
    # per-aggregate membership lists the engine maintains, so the O(n)
    # scan in this reference implementation charges at list volume.
    pos_m, _, degs_m, _, _ = fine_new.gather_rows(members)
    mu = np.repeat(m_new[members], degs_m)
    mv = m_new[np.asarray(fine_new.adjncy[pos_m])] if len(pos_m) else np.zeros(0, dtype=VI)
    w = np.asarray(fine_new.ewgts[pos_m]) if len(pos_m) else np.zeros(0, dtype=WT)
    cross = mu != mv
    mu, mv, w = mu[cross], mv[cross], w[cross]
    vol_m = int(len(pos_m))
    space.ledger.charge(
        "construction",
        KernelCost(
            stream_bytes=(
                3.0 * _B * vol_m
                + 2.0 * _B * len(members)
                + _B * (len(pos_f) + vol_mv)
            ),
            random_bytes=_B * vol_m,
            launches=1,
        ),
    )
    # the vertex_sort constructor's dedup and per-row bin sort pricing:
    # each dirty row sorts its own pre-dedup bin
    vol_c = len(mu)
    key, w, bins = _dedup_keys(
        mu * nn + mv, w, n_c_new * n_c_new, np.arange(n_c_new + 1, dtype=np.int64) * nn
    )
    mu, mv = key // nn, key % nn
    space.ledger.charge(
        "construction",
        KernelCost(
            stream_bytes=4.0 * _B * vol_c,
            sort_key_ops=sort_cost_keyops(bins),
            launches=1,
        ),
    )

    # clean rows are copy-on-write: the ledger charges only the dirty
    # writes, the row-pointer rebuild, and O(clean) row descriptors —
    # a segment-sharing implementation never touches clean entry bytes,
    # and stable ids mean the bytes it shares are already correct.
    clean = np.flatnonzero(~dirty_mask).astype(VI)
    old_clean = old_of_agg[clean]  # all >= 0: recycled rows are always dirty

    counts = np.zeros(n_c_new, dtype=np.int64)
    if len(clean):
        counts[clean] = xadj_old[old_clean + 1] - xadj_old[old_clean]
    if len(mu):
        counts += np.bincount(mu, minlength=n_c_new)
    new_xadj = np.zeros(n_c_new + 1, dtype=VI)
    np.cumsum(counts, out=new_xadj[1:])
    total = int(new_xadj[-1])
    new_adjncy = np.empty(total, dtype=VI)
    new_ewgts = np.empty(total, dtype=WT)

    if len(mu):
        out_d = new_xadj[mu] + group_ranks(mu)
        new_adjncy[out_d] = mv
        new_ewgts[out_d] = w
    if len(clean):
        pos_c, _, _, reps_c, within_c = coarse_old.gather_rows(old_clean)
        out_c = new_xadj[clean[reps_c]] + within_c
        new_adjncy[out_c] = np.asarray(coarse_old.adjncy[pos_c])
        new_ewgts[out_c] = np.asarray(coarse_old.ewgts[pos_c])

    # coarse vertex weights, copy-on-write off the old array: surviving
    # aggregates keep their totals (they never lose members), frontier
    # joins add theirs, and the vw-dirty channel carries forward
    # upstream weight corrections
    vw = np.zeros(n_c_new, dtype=WT)
    if len(surv_old):
        vw[surv_new] = np.asarray(coarse_old.vwgts[surv_old])
    if len(frontier):
        np.add.at(vw, m_new[frontier], np.asarray(fine_new.vwgts[frontier]))
    vwd_extra = ld.vw_dirty[~_member_mask(frontier, ld.vw_dirty)]
    if len(vwd_extra):
        corr = np.asarray(fine_new.vwgts[vwd_extra]) - np.asarray(
            fine_old.vwgts[ld.old_of[vwd_extra]]
        )
        np.add.at(vw, m_new[vwd_extra], corr)
    n_vw = len(frontier) + len(vwd_extra)
    space.ledger.charge(
        "construction",
        KernelCost(
            stream_bytes=(
                2.0 * _B * len(mu)
                + _B * (n_c_new + 1)
                + _B * len(clean)
                + 2.0 * _B * n_vw
            ),
            random_bytes=_B * (len(mu) + n_vw),
            atomic_ops=float(n_vw),
            launches=1,
        ),
    )

    coarse_new = CSRGraph(new_xadj, new_adjncy, new_ewgts, vw, coarse_old.name)

    # ---- next level's delta -------------------------------------------------
    # touched: dirty rows with an old counterpart whose rebuilt content
    # differs from the translated old row (degree first, then entrywise;
    # a translated -1 — the old neighbour dissolved for good — always
    # mismatches)
    cd_p = c_dirty[old_of_agg[c_dirty] >= 0] if len(c_dirty) else c_dirty
    touched_next = np.zeros(0, dtype=VI)
    if len(cd_p):
        old_cd = old_of_agg[cd_p]
        deg_new = counts[cd_p]
        deg_old = xadj_old[old_cd + 1] - xadj_old[old_cd]
        diff = deg_new != deg_old
        same = np.flatnonzero(~diff)
        if len(same):
            rows_n = cd_p[same]
            pos_n, _, _, reps_n, _ = coarse_new.gather_rows(rows_n)
            pos_o = coarse_old.gather_rows(old_cd[same])[0]
            mism = (
                new_adjncy[pos_n] != new_of_agg[np.asarray(coarse_old.adjncy[pos_o])]
            ) | (new_ewgts[pos_n] != np.asarray(coarse_old.ewgts[pos_o]))
            per_row = np.bincount(reps_n, weights=mism.astype(np.float64), minlength=len(rows_n))
            diff[same] = per_row > 0
        touched_next = cd_p[diff].astype(VI)

    # vw-dirty: aggregates with an old counterpart whose weight moved
    # (frontier joins or carried corrections), compared numerically
    vw_parts = []
    if len(frontier):
        vw_parts.append(m_new[frontier])
    if len(vwd_extra):
        vw_parts.append(m_new[vwd_extra])
    vw_cand = np.unique(np.concatenate(vw_parts)) if vw_parts else np.zeros(0, dtype=VI)
    if len(vw_cand):
        vw_cand = vw_cand[old_of_agg[vw_cand] >= 0]
    vw_dirty_next = (
        vw_cand[vw[vw_cand] != np.asarray(coarse_old.vwgts[old_of_agg[vw_cand]])]
        if len(vw_cand)
        else np.zeros(0, dtype=VI)
    ).astype(VI)
    space.ledger.charge(
        "construction",
        KernelCost(stream_bytes=2.0 * _B * (len(cd_p) + len(vw_cand)), launches=1),
    )

    return coarse_new, _LevelDelta(old_of_agg, new_of_agg, touched_next, vw_dirty_next)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def patch_hierarchy(
    base: GraphHierarchy,
    g_new: CSRGraph,
    delta: EdgeDelta,
    space: ExecSpace,
    *,
    cutoff: int = COARSEN_CUTOFF,
    max_levels: int = MAX_LEVELS,
    tracker: MemoryTracker | None = None,
    tape=None,
) -> GraphHierarchy:
    """Propagate an :class:`EdgeDelta` through a built HEC hierarchy.

    ``base`` must have been coarsened with ``hec``; ``g_new`` is the
    graph :func:`repro.csr.update.apply_edges` returned for ``delta``
    applied to ``base.graphs[0]``.  Returns a patched
    :class:`GraphHierarchy` whose stats carry per-level frontier sizes
    and the early-exit level; ``tape`` records the patch exactly like a
    build so the serving layer replays it.
    """
    if base.stats.get("coarsener") not in ("hec", "hec_delta"):
        raise ValueError(
            f"incremental patching requires an HEC hierarchy, got "
            f"{base.stats.get('coarsener')!r}"
        )
    if delta.n != base.graphs[0].n or g_new.n != delta.n:
        raise ValueError("delta/base/graph vertex counts disagree")
    tracker = tracker or MemoryTracker.null()
    constructor = base.stats.get("constructor", "sort")
    if tape is not None:
        with tape.record(space):
            return _patch_levels(
                base, g_new, delta, space, constructor, cutoff, max_levels,
                tape.wrap_tracker(tracker),
            )
    return _patch_levels(
        base, g_new, delta, space, constructor, cutoff, max_levels, tracker,
    )


def _patch_levels(
    base, g_new, delta, space, constructor, cutoff, max_levels, tracker,
) -> GraphHierarchy:
    from ..construct.base import get_constructor  # local: avoid import cycle

    graphs = [g_new]
    mappings: list[CoarseMapping] = []
    level_stats: list[dict] = []
    discarded = False
    early_exit_level = -1
    ld = _LevelDelta.initial(g_new.n, delta)

    with space.span(
        "coarsen", algorithm="hec_delta", constructor=constructor, graph=g_new.name
    ):
        if space.machine.is_gpu:
            with space.span("transfer"):
                # only the delta arrays cross the bus; the base hierarchy
                # is already device-resident
                delta_bytes = _B * (
                    3.0 * (delta.applied_adds + delta.applied_removes)
                    + len(delta.touched)
                )
                space.ledger.charge(
                    "transfer", KernelCost(transfer_bytes=delta_bytes, launches=1)
                )
        tracker.hold_level(g_new.n, g_new.m)

        for lvl, mapping_old in enumerate(base.mappings):
            fine_new = graphs[-1]
            if ld.trivial:
                # the delta died out: adopt the remaining base levels
                early_exit_level = lvl
                graphs.extend(base.graphs[lvl + 1:])
                mappings.extend(base.mappings[lvl:])
                break
            if fine_new.n <= cutoff:
                break
            fine_old = base.graphs[lvl]
            coarse_old = base.graphs[lvl + 1]
            if ld.vw_only:
                # vertex-weight-only fast path: adjacency and mapping are
                # the base's, so the level reuses both and applies the
                # weight corrections copy-on-write
                m_arr = base.mappings[lvl].m
                vwd = ld.vw_dirty
                with space.span("level", level=lvl, n=fine_new.n, m=fine_new.m):
                    with space.span("construction", level=lvl, constructor=constructor):
                        corr = np.asarray(fine_new.vwgts[vwd]) - np.asarray(
                            fine_old.vwgts[vwd]
                        )
                        vw_c = np.array(coarse_old.vwgts, dtype=WT)
                        np.add.at(vw_c, m_arr[vwd], corr)
                        cand = np.unique(m_arr[vwd])
                        vwd_next = cand[
                            vw_c[cand] != np.asarray(coarse_old.vwgts[cand])
                        ].astype(VI)
                        space.ledger.charge(
                            "construction",
                            KernelCost(
                                stream_bytes=4.0 * _B * len(vwd) + 2.0 * _B * len(cand),
                                random_bytes=_B * len(vwd),
                                atomic_ops=float(len(vwd)),
                                launches=1,
                            ),
                        )
                        coarse_new = CSRGraph(
                            coarse_old.xadj, coarse_old.adjncy, coarse_old.ewgts,
                            vw_c, coarse_old.name,
                        )
                    tracker.hold_level(coarse_new.n, coarse_new.m)
                graphs.append(coarse_new)
                mappings.append(base.mappings[lvl])
                ident = np.arange(coarse_new.n, dtype=VI)
                ld = _LevelDelta(ident, ident, np.zeros(0, dtype=VI), vwd_next)
                level_stats.append(
                    {
                        "n": coarse_new.n,
                        "m": coarse_new.m,
                        "n_c_ratio": fine_new.n / max(coarse_new.n, 1),
                        "frontier": 0,
                        "vw_fast_path": True,
                        "vw_dirty": int(len(vwd)),
                    }
                )
                continue
            with space.span("level", level=lvl, n=fine_new.n, m=fine_new.m):
                tracker.transient(mapping_workspace("hec_delta", fine_new.n, fine_new.m))
                with space.span("mapping", level=lvl, algorithm="hec_delta"):
                    mapping, aux = _frontier_match(
                        fine_old, fine_new, mapping_old, ld, space
                    )
                if mapping.n_c >= fine_new.n:
                    break
                with space.span("construction", level=lvl, constructor=constructor):
                    coarse_new, ld = _patch_construct(
                        fine_old, fine_new, coarse_old, mapping, ld, aux, space
                    )
                tracker.hold_level(coarse_new.n, coarse_new.m)

            if not _keep_level(
                graphs, mappings, level_stats, coarse_new, mapping, cutoff
            ):
                discarded = True
                break
        else:
            # base levels exhausted: the build's own level loop finishes
            # whatever the patched coarsest still needs — these levels
            # are cutoff-sized, so the extra cost is negligible
            discarded = _level_loop(
                graphs, mappings, level_stats, space, hec_parallel,
                get_constructor(constructor), "hec", constructor, cutoff,
                max_levels, tracker,
            )

    return GraphHierarchy(
        graphs,
        mappings,
        stats={
            "coarsener": "hec_delta",
            "constructor": constructor,
            "levels": len(graphs),
            "discarded_overshoot": discarded,
            "per_level": level_stats,
            "peak_memory_projected": tracker.peak,
            "patched_from_levels": base.levels,
            "early_exit_level": early_exit_level,
            "frontier_total": int(
                sum(s.get("frontier", 0) for s in level_stats)
            ),
        },
    )
