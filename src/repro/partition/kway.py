"""k-way partitioning on top of one coarsening hierarchy.

The serving daemon's headline amortization: a hierarchy built once
answers partition requests for *every* k.  The pipeline reuses the
spectral machinery from bisection — carry the Fiedler vector to the
finest level (:func:`repro.partition.multilevel.spectral_vector`), cut
its weighted order into k quantile bands, then run a greedy boundary
refinement that moves vertices to their best-connected part under a
balance cap.  For ``k == 2`` this degenerates to spectral bisection;
callers wanting the paper's bisection semantics (FM, exact rebalance)
use :func:`~repro.partition.multilevel.multilevel_bisect` instead.

Everything here is deterministic given the hierarchy and draws nothing
from the space's RNG beyond what ``spectral_vector`` consumes, so a
k-sweep over one cached hierarchy is reproducible request by request.
"""

from __future__ import annotations

import numpy as np

from ..coarsen.multilevel import GraphHierarchy
from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from .metrics import edge_cut, imbalance, partition_weights
from .multilevel import spectral_vector

__all__ = ["quantile_split", "greedy_kway_refine", "kway_from_hierarchy"]

_B = 8


def quantile_split(x: np.ndarray, vwgts: np.ndarray, k: int) -> np.ndarray:
    """Cut the weighted order of ``x`` into ``k`` contiguous bands.

    Vertices sorted by ``x`` (stable) are assigned to parts so each
    part's cumulative vertex weight spans one k-th of the total — the
    k-way generalization of ``median_split``.
    """
    n = len(x)
    part = np.zeros(n, dtype=np.int32)
    if n == 0 or k <= 1:
        return part
    order = np.argsort(x, kind="stable")
    csum = np.cumsum(vwgts[order])
    total = csum[-1]
    if total <= 0:
        part[order] = np.minimum(np.arange(n) * k // max(n, 1), k - 1)
        return part
    # first sorted position of each part 1..k-1 (non-decreasing); a
    # position's part is how many of those starts it has reached
    bands = np.searchsorted(csum - vwgts[order] / 2.0, np.arange(1, k) * total / k)
    labels = np.searchsorted(bands, np.arange(n), side="right")
    part[order] = np.minimum(labels, k - 1)
    return part


def greedy_kway_refine(
    g: CSRGraph,
    part: np.ndarray,
    k: int,
    space: ExecSpace,
    *,
    max_passes: int = 4,
    balance_tol: float = 0.03,
) -> np.ndarray:
    """Greedy boundary refinement: move vertices to their best part.

    Each pass sweeps the vertices on the boundary at its start in index
    order and moves a vertex to the part it is most heavily connected to
    (ties to the lowest part), when that gain is positive and the target
    stays under ``(1 + balance_tol)`` of the ideal part weight.
    Deterministic; stops early on a pass with no moves.  Charged to the
    ``refinement`` phase like FM.

    The sweep visits only the vertices that can move: those with a
    positive-gain part at the pass start, and *dirty* ones, a neighbour
    of which moved earlier in the pass.  A clean vertex still sees its
    pass-start connectivity and the cap only removes options, so the
    moves are those of the plain per-vertex loop (DESIGN §5f, k-way
    refinement).
    """
    part = part.astype(np.int32).copy()
    n = g.n
    if n == 0 or k <= 1:
        return part
    xadj, adjncy, ewgts, vw = g.xadj, g.adjncy, g.ewgts, g.vwgts
    w = partition_weights(g, part, k)
    cap = float(w.sum() / k * (1.0 + balance_tol))
    w = w.tolist()
    part_l = part.tolist()
    src = g.edge_sources()

    for _ in range(max_passes):
        on_boundary = np.zeros(n, dtype=bool)
        on_boundary[src[part[src] != part[adjncy]]] = True
        boundary = np.flatnonzero(on_boundary)
        # one streaming sweep over the edge list + the boundary's adjacency
        space.ledger.charge(
            "refinement",
            KernelCost(stream_bytes=2.0 * _B * g.m, flops=float(g.m), launches=2),
        )
        moved = 0
        starts, cand = _pass_candidates(g, part, k, on_boundary[src], boundary)
        dirty: set[int] = set()
        for v, s, e in zip(boundary.tolist(), starts, starts[1:]):
            if v in dirty:
                lo, hi = xadj[v], xadj[v + 1]
                order = _ordered_gains(
                    part_l, part_l[v], adjncy[lo:hi].tolist(), ewgts[lo:hi].tolist()
                )
            elif s < e:
                order = cand[s:e]
            else:
                continue
            vv = float(vw[v])
            for target in order:
                if not w[target] + vv > cap:
                    cur = part_l[v]
                    part_l[v] = part[v] = target
                    w[cur] -= vv
                    w[target] += vv
                    moved += 1
                    # later neighbours must re-sum their connectivity
                    dirty.update(adjncy[xadj[v]:xadj[v + 1]].tolist())
                    break
        del starts, cand, dirty  # not alive beside the next pass's candidates
        space.ledger.charge(
            "refinement",
            KernelCost(
                stream_bytes=_B * (g.xadj[boundary + 1] - g.xadj[boundary]).sum()
                if len(boundary)
                else 0.0,
                flops=float(k) * len(boundary),
                launches=1,
            ),
        )
        if moved == 0:
            break
    return part


def _pass_candidates(
    g: CSRGraph, part: np.ndarray, k: int, in_rows: np.ndarray, boundary: np.ndarray
) -> tuple[list[int], list[int]]:
    """Pass-start move candidates of every boundary vertex.

    ``in_rows`` masks the boundary's edges.  ``cand[starts[i]:starts[i +
    1]]`` are the parts with positive gain for ``boundary[i]``, by gain
    descending then part ascending, so the first one under the cap is
    the masked ``argmax`` of the dense gain row.
    """
    nb = len(boundary)
    keys, conn = _row_part_sums(g, part, k, in_rows, boundary)
    # connectivity to the vertex's own part (0.0 when it has no such edge)
    own = np.arange(nb) * k + part[boundary]
    at = np.minimum(np.searchsorted(keys, own), len(keys) - 1)
    base = np.where(keys[at] == own, conn[at], 0.0)
    key_row = keys // k
    gain = conn - base[key_row]
    pos = gain > 0
    key_row, key_part, gain = key_row[pos], keys[pos] - key_row[pos] * k, gain[pos]
    order = np.lexsort((key_part, -gain, key_row))
    starts = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(np.bincount(key_row, minlength=nb), out=starts[1:])
    return starts.tolist(), key_part[order].tolist()


def _row_part_sums(
    g: CSRGraph, part: np.ndarray, k: int, in_rows: np.ndarray, boundary: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ``row * k + part`` keys of the boundary's edges and their sums.

    The sums are one ``bincount`` over the compacted keys with each
    key's weights in adjacency order (the sort is stable): it adds in
    input order from 0.0 like the per-vertex ``np.add.at``, where a
    pairwise ``reduceat``/``sum`` could change the last bit.  Its
    boundary-edge-sized temporaries are the refinement's memory peak,
    so they die here.
    """
    deg = g.xadj[boundary + 1] - g.xadj[boundary]
    keys = np.repeat(np.arange(len(boundary)) * k, deg)
    keys += part[g.adjncy[in_rows]]
    by_key = np.argsort(keys, kind="stable")
    wgts = g.ewgts[in_rows][by_key]
    keys = keys[by_key]
    del by_key  # gone before slot, keys[first] and the sums, which set the peak
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    slot = np.cumsum(first)
    slot -= 1
    return keys[first], np.bincount(slot, weights=wgts)


def _ordered_gains(part: list, cur: int, nbrs: list, wgts: list) -> list[int]:
    """Positive-gain parts of one vertex from its current neighbourhood.

    Re-sums connectivity in adjacency order from 0.0 (as ``np.add.at``
    does) and orders like :func:`_pass_candidates`.  Untouched parts
    have gain ``-conn[cur] <= 0`` since edge weights are positive, so
    they are never candidates.
    """
    conn: dict[int, float] = {}
    for u, x in zip(nbrs, wgts):
        p = part[u]
        conn[p] = conn.get(p, 0.0) + x
    base = conn.get(cur, 0.0)
    gains = [(-(c - base), t) for t, c in conn.items() if c - base > 0]
    return [t for _, t in sorted(gains)]


def kway_from_hierarchy(
    g: CSRGraph,
    hierarchy: GraphHierarchy,
    k: int,
    space: ExecSpace,
    *,
    power_tol: float | None = None,
    max_passes: int = 4,
    balance_tol: float = 0.03,
) -> tuple[np.ndarray, dict]:
    """k-way partition of ``g`` reusing a prebuilt ``hierarchy``.

    Returns ``(part, stats)`` where stats carries the cut, imbalance,
    and power-iteration counts.  The hierarchy is read-only: repeated
    calls at different k share it untouched.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    with space.span("kway", graph=g.name, k=k):
        x, iters = spectral_vector(hierarchy, space, power_tol)
        part = quantile_split(x, g.vwgts, k)
        with space.span("refine-kway", k=k):
            part = greedy_kway_refine(
                g, part, k, space, max_passes=max_passes, balance_tol=balance_tol
            )
    stats = {
        "k": k,
        "cut": edge_cut(g, part),
        "imbalance": imbalance(g, part, k),
        "power_iters": iters,
    }
    return part, stats
