"""Structural operations on CSR graphs: permutation, subgraphs, Laplacian.

These are the substrate routines the multilevel pipeline needs around the
core coarsening kernels: relabelling (paper preprocessing), induced
subgraphs (largest-component extraction), and the graph Laplacian used by
spectral partitioning.
"""

from __future__ import annotations

import numpy as np

from ..types import VI, WT, vi_array
from .build import from_edge_list
from .graph import CSRGraph

__all__ = [
    "permute",
    "induced_subgraph",
    "laplacian_csr",
    "degree_histogram",
]


def permute(g: CSRGraph, perm: np.ndarray) -> CSRGraph:
    """Relabel vertices: new id of old vertex ``u`` is ``perm[u]``.

    ``perm`` must be a permutation of ``0..n-1``.  The result stores each
    adjacency list sorted by neighbour id (canonical form).
    """
    perm = vi_array(perm)
    if len(perm) != g.n or not np.array_equal(np.sort(perm), np.arange(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    src, dst, wgt = g.to_coo()
    inv_vwgts = np.empty_like(g.vwgts)
    inv_vwgts[perm] = g.vwgts
    return from_edge_list(
        g.n,
        perm[src],
        perm[dst],
        wgt,
        vwgts=inv_vwgts,
        name=g.name,
        symmetrize=False,
    )


def induced_subgraph(g: CSRGraph, vertices: np.ndarray) -> CSRGraph:
    """Subgraph induced on ``vertices`` (must be unique), relabelled 0..k-1.

    The relabelling preserves the relative order of ``vertices``.
    """
    vertices = vi_array(vertices)
    k = len(vertices)
    new_id = np.full(g.n, -1, dtype=VI)
    new_id[vertices] = np.arange(k, dtype=VI)
    src, dst, wgt = g.to_coo()
    keep = (new_id[src] >= 0) & (new_id[dst] >= 0)
    return from_edge_list(
        k,
        new_id[src[keep]],
        new_id[dst[keep]],
        wgt[keep],
        vwgts=g.vwgts[vertices],
        name=g.name,
        symmetrize=False,
    )


def laplacian_csr(g: CSRGraph) -> tuple[np.ndarray, CSRGraph]:
    """Return ``(weighted_degrees, g)`` representing ``L = D - A``.

    The Laplacian is kept implicit: spectral code computes
    ``L x = d * x - A x`` using the SpMV kernel, avoiding materialising a
    second CSR structure (guide: be easy on memory, use views).
    """
    return g.weighted_degrees(), g


def degree_histogram(g: CSRGraph) -> np.ndarray:
    """``hist[d]`` = number of vertices of degree ``d``."""
    return np.bincount(np.diff(g.xadj))
