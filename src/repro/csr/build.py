"""Builders that produce validated :class:`~repro.csr.graph.CSRGraph` objects.

The paper preprocesses every input graph the same way (Section IV): make
it undirected, drop self-loops and parallel edges, extract the largest
connected component, and relabel vertices.  :func:`from_edge_list` covers
the first half; :func:`preprocess` runs the full pipeline.
"""

from __future__ import annotations

import numpy as np

from ..types import VI, WT, vi_array, wt_array
from .graph import CSRGraph

__all__ = ["from_edge_list", "from_scipy", "preprocess", "empty"]


def empty(n: int = 0, name: str = "") -> CSRGraph:
    """An ``n``-vertex graph with no edges."""
    return CSRGraph(
        np.zeros(n + 1, dtype=VI),
        np.zeros(0, dtype=VI),
        np.zeros(0, dtype=WT),
        np.ones(n, dtype=WT),
        name,
    )


def from_edge_list(
    n: int,
    src,
    dst,
    wgt=None,
    *,
    vwgts=None,
    name: str = "",
    symmetrize: bool = True,
    sum_duplicates: bool = False,
) -> CSRGraph:
    """Build a CSR graph from an undirected edge list.

    Parameters
    ----------
    n:
        Number of vertices (ids in ``src``/``dst`` must be < ``n``).
    src, dst:
        Edge endpoint arrays.  Each undirected edge should appear once
        (in either direction) when ``symmetrize`` is true, or twice (both
        directions) when it is false.
    wgt:
        Optional edge weights (default 1.0 each).
    symmetrize:
        Mirror every edge so both endpoints store it.
    sum_duplicates:
        If true, parallel edges are merged by *summing* weights (the
        semantics of coarse-graph construction); if false the maximum
        weight is kept, which is the right merge for raw inputs where
        duplicates are data artefacts.

    Self-loops are always dropped, matching the paper's graph model.
    """
    src = vi_array(src)
    dst = vi_array(dst)
    if wgt is None:
        wgt = np.ones(len(src), dtype=WT)
    else:
        wgt = wt_array(wgt)
    if not (len(src) == len(dst) == len(wgt)):
        raise ValueError("src, dst, wgt must have equal length")
    if len(src) and (src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= n):
        raise ValueError("edge endpoint out of range")

    keep = src != dst  # drop self-loops
    src, dst, wgt = src[keep], dst[keep], wgt[keep]

    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        wgt = np.concatenate([wgt, wgt])

    # Sort by (src, dst) to bucket per-vertex adjacencies and find duplicates.
    order = np.lexsort((dst, src))
    src, dst, wgt = src[order], dst[order], wgt[order]

    if len(src):
        new_run = np.empty(len(src), dtype=bool)
        new_run[0] = True
        np.not_equal(src[1:], src[:-1], out=new_run[1:])
        same_dst = dst[1:] == dst[:-1]
        np.logical_or(new_run[1:], ~same_dst, out=new_run[1:])
        run_ids = np.cumsum(new_run) - 1
        n_runs = int(run_ids[-1]) + 1
        if sum_duplicates:
            merged_w = np.zeros(n_runs, dtype=WT)
            np.add.at(merged_w, run_ids, wgt)
        else:
            merged_w = np.full(n_runs, -np.inf, dtype=WT)
            np.maximum.at(merged_w, run_ids, wgt)
        first = np.flatnonzero(new_run)
        src, dst, wgt = src[first], dst[first], merged_w

    counts = np.bincount(src, minlength=n).astype(VI)
    xadj = np.zeros(n + 1, dtype=VI)
    np.cumsum(counts, out=xadj[1:])

    if vwgts is None:
        vwgts = np.ones(n, dtype=WT)
    return CSRGraph(xadj, dst, wgt, wt_array(vwgts), name)


def from_scipy(mat, name: str = "") -> CSRGraph:
    """Build from a scipy sparse matrix (symmetrised, self-loops dropped)."""
    coo = mat.tocoo()
    return from_edge_list(coo.shape[0], coo.row, coo.col, coo.data, name=name)


def preprocess(g: CSRGraph) -> CSRGraph:
    """Run the paper's full preprocessing pipeline on ``g``.

    Extracts the largest connected component and relabels vertex
    identifiers contiguously (Section IV / Table I caption).  ``g`` must
    already be symmetric and simple, which the builders guarantee.
    """
    from .components import largest_component
    from .ops import induced_subgraph

    comp = largest_component(g)
    if len(comp) == g.n:
        return g
    return induced_subgraph(g, comp)
