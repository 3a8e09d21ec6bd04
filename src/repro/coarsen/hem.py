"""Heavy Edge Matching: sequential (Alg. 2) and parallel (tech-report Alg. 10).

HEM differs from HEC in one word — the heaviest *unmatched* neighbour —
and that word costs: the candidate array ``H`` must be recomputed from
the surviving vertices every pass, there is no inherit path (losing the
second CAS always means release-and-retry), and matching-based
coarsening is capped at ratio 2 and can stall on skewed graphs (leaves
around a hub can never match each other), which is what two-hop matching
(:mod:`repro.coarsen.twohop`) repairs.

The race simulation serialises CAS operations in lane order (see
:mod:`repro.coarsen.hec`); since HEM decides everything through the
claim array, no stale-read modelling is needed — a lane whose candidate
was matched earlier in the same pass simply loses its CAS and retries
with a recomputed candidate.
"""

from __future__ import annotations

import numpy as np

from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..parallel.primitives import gen_perm, segment_max_index
from ..parallel import tiles as _tiles
from ..parallel.wavekernels import ClaimState
from ..types import UNMAPPED, VI
from .base import CoarseMapping, register_coarsener

__all__ = [
    "hem_serial",
    "hem_parallel",
    "hem_parallel_reference",
    "unmatched_heavy_neighbors",
]

_B = 8

#: candidate-scan live bytes per window entry (lane ids + gather indices
#: + neighbour ids + masked weights)
_HEM_BPE = 4 * _B


def hem_serial(g: CSRGraph, space: ExecSpace) -> CoarseMapping:
    """Algorithm 2, direct transcription (loop-based reference)."""
    n = g.n
    perm = gen_perm(n, space)
    m = np.full(n, UNMAPPED, dtype=VI)
    n_c = 0
    for u in perm:
        if m[u] != UNMAPPED:
            continue
        w_best = 0.0
        x = -1
        nbrs = g.neighbors(u)
        wts = g.edge_weights(u)
        for v, w in zip(nbrs, wts):
            if m[v] == UNMAPPED and w > w_best:
                w_best = w
                x = v
        if x >= 0:
            m[x] = n_c
        m[u] = n_c
        n_c += 1
    return CoarseMapping(m, n_c, {"algorithm": "hem_serial"})


def unmatched_heavy_neighbors(
    g: CSRGraph, m: np.ndarray, queue: np.ndarray, space: ExecSpace, phase: str = "mapping"
) -> np.ndarray:
    """Heaviest still-unmatched neighbour for each vertex in ``queue``.

    Returns an array aligned with ``queue`` (``-1`` = no candidate).
    Streams the full adjacency of the queued vertices — the recomputation
    cost that makes parallel HEM slower than HEC (Section III-A.2) — as
    one window body over the queue's lane pointer, run through
    :func:`repro.parallel.tiles.row_window_map`.  Lanes never straddle a
    window, so each window's segment argmax picks the same first-max
    winner as a whole-queue scan.
    """
    starts = g.xadj[queue]
    lengths = g.xadj[queue + 1] - starts
    # lane pointer of the queued adjacency: a function of the queue
    # (deterministic algorithm state) alone, so its row windows are too
    lane_xadj = np.zeros(len(queue) + 1, dtype=VI)
    np.cumsum(lengths, out=lane_xadj[1:])
    total = int(lane_xadj[-1])

    def window(q0, q1, e0, e1):
        local_xadj = lane_xadj[q0 : q1 + 1] - e0
        lane = np.repeat(np.arange(q1 - q0, dtype=VI), lengths[q0:q1])
        idx = np.arange(e1 - e0, dtype=VI) - local_xadj[lane] + starts[q0:q1][lane]
        nbr = g.adjncy[idx]
        wt = np.where(m[nbr] == UNMAPPED, g.ewgts[idx], -np.inf)
        # per-lane argmax (first maximum, as in the strictly-greater scan)
        best = segment_max_index(None, wt, local_xadj)
        ok = best >= 0
        ok[ok] &= np.isfinite(wt[best[ok]])
        h = np.full(q1 - q0, UNMAPPED, dtype=VI)
        h[ok] = nbr[best[ok]]
        return h

    h = _tiles.stitch(_tiles.row_window_map(lane_xadj, _HEM_BPE, window, g))
    space.ledger.charge(
        phase,
        KernelCost(
            stream_bytes=2.0 * _B * total + 2.0 * _B * len(queue),
            random_bytes=_B * total,  # m[nbr] gather
            launches=1,
        ),
    )
    return h


@register_coarsener("hem")
def hem_parallel(g: CSRGraph, space: ExecSpace) -> CoarseMapping:
    """Parallel HEM: per-pass candidate recomputation + serialised claims.

    Modeled after Algorithm 4 with the matching-specific differences
    (Section III-A.2): candidates come from the unmatched vertices only
    and are refreshed before each pass; a lost claim is always released
    (``inherit=False`` in the wave engine — the claim array *is* the
    matching, so there is nothing to inherit).  Vertices with no
    unmatched neighbour at pass start become singletons, exactly as in
    the sequential algorithm.  The per-lane loop rendering is kept as
    :func:`hem_parallel_reference` for the equivalence tests.
    """
    n = g.n
    perm = gen_perm(n, space)
    st = ClaimState(n)
    queue = perm
    passes = 0

    while len(queue):
        passes += 1
        h = unmatched_heavy_neighbors(g, st.m, queue, space)

        # Singletons: no unmatched candidate (Alg. 2: w stays 0).
        lone = h == UNMAPPED
        if lone.any():
            st.assign_singletons(queue[lone])
            queue, h = queue[~lone], h[~lone]

        if passes > 100:  # pathological guard: all remaining to singletons
            st.assign_singletons(queue)
            break

        # HEM has no wave structure: every pass serialises the whole
        # queue against live claims, i.e. one wave spanning all lanes.
        creates, _, skips = st.resolve_wave(queue, h, inherit=False)
        lanes = len(queue)
        space.ledger.charge(
            "mapping",
            KernelCost(
                stream_bytes=4.0 * _B * lanes,
                random_bytes=4.0 * _B * lanes,
                atomic_ops=float(2 * (lanes - skips)),
                launches=2,
            ),
        )
        queue = st.unresolved(queue)

    return CoarseMapping(st.m, st.n_c, {"algorithm": "hem", "passes": passes})


def hem_parallel_reference(g: CSRGraph, space: ExecSpace) -> CoarseMapping:
    """Per-lane loop rendering of parallel HEM (equivalence reference).

    The original serialized replay kept verbatim as the ground truth the
    vectorized :func:`hem_parallel` is tested against.
    """
    n = g.n
    perm = gen_perm(n, space)
    m = np.full(n, UNMAPPED, dtype=VI)
    queue = perm
    passes = 0
    n_c = 0
    m_l = [-1] * n

    while len(queue):
        passes += 1
        h = unmatched_heavy_neighbors(g, m, queue, space)

        # Singletons: no unmatched candidate (Alg. 2: w stays 0).
        lone = h == UNMAPPED
        if lone.any():
            for u in queue[lone].tolist():
                m_l[u] = n_c
                m[u] = n_c
                n_c += 1
            queue, h = queue[~lone], h[~lone]

        if passes > 100:  # pathological guard: all remaining to singletons
            for u in queue.tolist():
                m_l[u] = n_c
                m[u] = n_c
                n_c += 1
            break

        atomics = 0
        h_of = dict(zip(queue.tolist(), h.tolist()))
        for u in queue.tolist():
            if m_l[u] != -1:
                continue  # matched earlier this pass (its claim is final)
            v = h_of[u]
            atomics += 2
            if m_l[v] == -1:
                # CAS(C[v], -1, u) won against the serialisation order
                m_l[u] = n_c
                m_l[v] = n_c
                n_c += 1
            # else: lost the claim — release, retry with a fresh candidate

        lanes = len(queue)
        space.ledger.charge(
            "mapping",
            KernelCost(
                stream_bytes=4.0 * _B * lanes,
                random_bytes=4.0 * _B * lanes,
                atomic_ops=float(atomics),
                launches=2,
            ),
        )
        m_arr = np.fromiter((m_l[u] for u in queue), dtype=VI, count=len(queue))
        m[queue] = m_arr
        queue = queue[m_arr == UNMAPPED]

    m = np.array(m_l, dtype=VI)
    # singletons assigned through the numpy array in the lone branch are
    # already mirrored into m_l, so m is complete here
    return CoarseMapping(m, n_c, {"algorithm": "hem", "passes": passes})
