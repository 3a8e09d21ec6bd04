"""Batched edge updates: ``apply_edges`` and the structured ``EdgeDelta``.

Production multilevel workloads mutate: edges arrive and disappear while
a warm hierarchy sits in the serving cache.  :func:`apply_edges` applies
one batch of additions and removals to an immutable
:class:`~repro.csr.graph.CSRGraph` and returns the updated graph plus an
:class:`EdgeDelta` describing exactly what changed — the input the
incremental coarsening engine (:mod:`repro.coarsen.incremental`) needs
to localise recomputation to the affected frontier.

Semantics (one batch)
---------------------
The mutated edge set is ``E' = (E \\ R) ∪ A``: removals apply against
the *current* graph first, then additions land.  Duplicate additions of
the same pair merge by maximum weight (the raw-input merge rule of
:func:`repro.csr.build.from_edge_list`); adding an edge that already
exists and was not removed raises its weight to ``max(old, new)``;
removing an absent edge is a no-op; removing and re-adding an edge in
one batch leaves it at the newly supplied weight.  Self-loops are
dropped from additions, matching the graph model.

The output CSR is **byte-identical** to rebuilding from scratch with
``from_edge_list(n, src', dst', wgt', sum_duplicates=False)`` on the
mutated edge list — rows stay in canonical sorted form, duplicates
merge by max, dtypes are unchanged — which the cross-check tests assert
array by array.  Both resident and mapped (``.csrdir``) graphs are
accepted; the result is always resident.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..types import VI, WT, vi_array, wt_array
from .graph import CSRGraph

__all__ = ["EdgeDelta", "apply_edges"]


@dataclass(frozen=True)
class EdgeDelta:
    """The applied portion of one update batch, in canonical form.

    All pair arrays are canonical (``u < v``) and sorted by ``(u, v)``;
    only changes that altered at least one byte of the CSR are recorded
    (a duplicate add below the existing weight, or a remove of an absent
    edge, appears in the ``requested_*`` counters but nowhere else).
    """

    n: int
    #: applied additions / weight updates: the pair now carries ``add_w``
    add_u: np.ndarray
    add_v: np.ndarray
    add_w: np.ndarray
    #: applied removals with the weight the edge had before
    rm_u: np.ndarray
    rm_v: np.ndarray
    rm_w: np.ndarray
    #: sorted unique endpoints whose adjacency rows changed
    touched: np.ndarray
    requested_adds: int = 0
    requested_removes: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return len(self.touched) == 0

    @property
    def applied_adds(self) -> int:
        return len(self.add_u)

    @property
    def applied_removes(self) -> int:
        return len(self.rm_u)

    def summary(self) -> dict:
        """Flat counters for result rows and journals."""
        return {
            "requested_adds": self.requested_adds,
            "requested_removes": self.requested_removes,
            "applied_adds": self.applied_adds,
            "applied_removes": self.applied_removes,
            "touched": int(len(self.touched)),
        }


def _parse_pairs(edges, n: int, what: str, with_weights: bool):
    """Normalize an edge batch to canonical (u, v[, w]) arrays."""
    if edges is None:
        e = np.zeros(0, dtype=VI)
        return e, e.copy(), np.zeros(0, dtype=WT), 0
    if isinstance(edges, (tuple, list)) and len(edges) in (2, 3):
        src, dst = vi_array(edges[0]), vi_array(edges[1])
        wgt = wt_array(edges[2]) if len(edges) == 3 else np.ones(len(src), dtype=WT)
    else:
        raise ValueError(f"{what} must be (src, dst) or (src, dst, wgt) arrays")
    if not (len(src) == len(dst) == len(wgt)):
        raise ValueError(f"{what} arrays must have equal length")
    requested = len(src)
    if len(src) and (src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= n):
        raise ValueError(f"{what} endpoint out of range for n={n}")
    if with_weights and len(wgt) and not (np.isfinite(wgt).all() and (wgt > 0).all()):
        raise ValueError(f"{what} weights must be finite and positive")
    keep = src != dst  # self-loops are outside the graph model
    src, dst, wgt = src[keep], dst[keep], wgt[keep]
    u = np.minimum(src, dst)
    v = np.maximum(src, dst)
    return u, v, wgt, requested


def _dedup_max(keys: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique keys with per-key maximum weight (batch merge rule)."""
    if len(keys) == 0:
        return keys, w
    order = np.argsort(keys, kind="stable")
    ks, ws = keys[order], w[order]
    heads = np.empty(len(ks), dtype=bool)
    heads[0] = True
    heads[1:] = ks[1:] != ks[:-1]
    run_ids = np.cumsum(heads) - 1
    merged = np.full(int(run_ids[-1]) + 1, -np.inf, dtype=WT)
    np.maximum.at(merged, run_ids, ws)
    return ks[heads], merged


def _member_mask(sorted_keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """``probe[i] in sorted_keys`` as a boolean mask (vectorized)."""
    if len(sorted_keys) == 0:
        return np.zeros(len(probe), dtype=bool)
    p = np.searchsorted(sorted_keys, probe)
    p_c = np.minimum(p, len(sorted_keys) - 1)
    return (p < len(sorted_keys)) & (sorted_keys[p_c] == probe)


def apply_edges(g: CSRGraph, add=None, remove=None) -> tuple[CSRGraph, EdgeDelta]:
    """Apply one batch of edge additions/removals; return (graph, delta).

    ``add`` is ``(src, dst)`` or ``(src, dst, wgt)``; ``remove`` is
    ``(src, dst)``.  See the module docstring for the batch semantics.
    When the batch turns out to be a complete no-op (every remove absent,
    every add below an existing weight) the *same* graph object is
    returned with an empty delta — the immutable CSR needs no copy.
    """
    n = g.n
    nn = np.int64(n)
    au, av, aw, req_adds = _parse_pairs(add, n, "add", with_weights=True)
    ru, rv, _rw, req_rm = _parse_pairs(remove, n, "remove", with_weights=False)

    ak, aw = _dedup_max(au * nn + av, aw)
    au, av = ak // nn, ak % nn
    rk = np.unique(ru * nn + rv)
    ru, rv = rk // nn, rk % nn

    def _delta(adds, rms, touched) -> EdgeDelta:
        (da_u, da_v, da_w), (dr_u, dr_v, dr_w) = adds, rms
        return EdgeDelta(
            n=n,
            add_u=vi_array(da_u), add_v=vi_array(da_v), add_w=wt_array(da_w),
            rm_u=vi_array(dr_u), rm_v=vi_array(dr_v), rm_w=wt_array(dr_w),
            touched=vi_array(touched),
            requested_adds=req_adds, requested_removes=req_rm,
        )

    none = (np.zeros(0, dtype=VI),) * 2 + (np.zeros(0, dtype=WT),)
    if len(ak) == 0 and len(rk) == 0:
        return g, _delta(none, none, np.zeros(0, dtype=VI))

    # -- gather the existing entries of every candidate row -------------------
    cand = np.unique(np.concatenate([au, av, ru, rv]))
    pos, _, _, reps, _ = g.gather_rows(cand)  # global entry indices, ascending
    ex_src = cand[reps]
    ex_dst = np.asarray(g.adjncy[pos])
    ex_w = np.asarray(g.ewgts[pos])
    key_d = ex_src * nn + ex_dst  # sorted: cand ascending, rows sorted

    # -- resolve removals ------------------------------------------------------
    rm_hit = _member_mask(key_d, rk)
    rm_pos = np.searchsorted(key_d, rk[rm_hit])
    rm_old_w = ex_w[rm_pos] if len(rm_pos) else np.zeros(0, dtype=WT)

    # -- resolve additions -----------------------------------------------------
    a_exists = _member_mask(key_d, ak)
    a_pos = np.searchsorted(key_d, ak)
    a_pos = np.minimum(a_pos, max(len(key_d) - 1, 0))
    w_old = np.where(a_exists, ex_w[a_pos] if len(key_d) else 0.0, 0.0)
    in_rm = _member_mask(rk, ak)
    final_w = np.where(a_exists & ~in_rm, np.maximum(w_old, aw), aw)
    a_applied = (~a_exists) | (final_w != w_old)

    # a removed edge that is re-added is a weight update, not a removal
    # (and a no-op when re-added at its old weight — the add side already
    # reports "unapplied" for that case via final_w == w_old)
    readd = _member_mask(ak, rk[rm_hit]) if rm_hit.any() else np.zeros(0, dtype=bool)
    rm_app_u, rm_app_v = ru[rm_hit][~readd], rv[rm_hit][~readd]
    rm_app_w = rm_old_w[~readd]
    add_u_app, add_v_app = au[a_applied], av[a_applied]
    add_w_app = final_w[a_applied]

    touched = np.unique(np.concatenate([add_u_app, add_v_app, rm_app_u, rm_app_v]))
    if len(touched) == 0:
        return g, _delta(none, none, touched)

    # -- entry-level edit lists ------------------------------------------------
    # old directed entries to drop: applied removals + replaced adds
    rep = a_exists & a_applied
    drop_u = np.concatenate([rm_app_u, au[rep]])
    drop_v = np.concatenate([rm_app_v, av[rep]])
    drop_keys = np.sort(np.concatenate([drop_u * nn + drop_v, drop_v * nn + drop_u]))
    keep_local = ~_member_mask(drop_keys, key_d)

    ins_src = np.concatenate([add_u_app, add_v_app])
    ins_dst = np.concatenate([add_v_app, add_u_app])
    ins_w = np.concatenate([add_w_app, add_w_app])
    i_key = ins_src * nn + ins_dst
    order = np.argsort(i_key, kind="stable")
    ins_src, ins_dst, ins_w, i_key = ins_src[order], ins_dst[order], ins_w[order], i_key[order]

    # -- splice: untouched entries stay in place, edited rows re-merge ---------
    keep_global = np.ones(g.m_directed, dtype=bool)
    dropped = pos[~keep_local]
    keep_global[dropped] = False
    old_src = g.edge_sources()
    k_src = old_src[keep_global]
    k_dst = np.asarray(g.adjncy)[keep_global]
    k_w = np.asarray(g.ewgts)[keep_global]
    k_key = k_src * nn + k_dst  # still globally sorted by (src, dst)

    n_kept, n_ins = len(k_key), len(i_key)
    out_ins = np.searchsorted(k_key, i_key) + np.arange(n_ins, dtype=np.int64)
    out_kept = np.arange(n_kept, dtype=np.int64) + np.searchsorted(i_key, k_key)
    new_adjncy = np.empty(n_kept + n_ins, dtype=VI)
    new_ewgts = np.empty(n_kept + n_ins, dtype=WT)
    new_adjncy[out_kept] = k_dst
    new_adjncy[out_ins] = ins_dst
    new_ewgts[out_kept] = k_w
    new_ewgts[out_ins] = ins_w

    counts = g.degrees() - np.bincount(ex_src[~keep_local], minlength=n)
    counts = counts + np.bincount(ins_src, minlength=n)
    new_xadj = np.zeros(n + 1, dtype=VI)
    np.cumsum(counts, out=new_xadj[1:])

    g_new = CSRGraph(new_xadj, new_adjncy, new_ewgts, np.array(g.vwgts, dtype=WT), g.name)
    delta = _delta(
        (add_u_app, add_v_app, add_w_app), (rm_app_u, rm_app_v, rm_app_w), touched
    )
    return g_new, delta
