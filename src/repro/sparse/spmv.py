"""CSR sparse matrix-vector multiply — the power-iteration workhorse.

The paper's spectral refinement spends nearly all its time in SpMV
(Section III-C, via Kokkos Kernels); ours is a vectorised gather +
segmented reduction, cost-charged as the row-parallel CSR kernel: one
stream of the CSR arrays, one data-dependent gather of ``x``, one flop
per stored entry.
"""

from __future__ import annotations

import numpy as np

from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..parallel import tiles as _tiles
from ..types import WT

__all__ = ["spmv", "spmm", "laplacian_spmv"]

_B = 8


def _apply(g: CSRGraph, X: np.ndarray) -> np.ndarray:
    """``A X`` for a vector (1-D) or an ``(n, k)`` block, one row-window body.

    Every CSR row lies wholly inside one window, so each row's products
    sum left to right exactly as one ``np.add.reduceat`` over the full
    arrays would associate them, under every driver arm.  A window
    entry's live transient is the ``(k,)`` gather plus products and
    the CSR views: ``(2k + 2) * 8`` bytes, with a vector as ``k = 1``.
    """
    k = 1 if X.ndim == 1 else X.shape[1]

    def window(r0, r1, e0, e1):
        w = np.asarray(g.ewgts[e0:e1])
        products = (w if X.ndim == 1 else w[:, None]) * X[g.adjncy[e0:e1]]
        xw = np.asarray(g.xadj[r0 : r1 + 1])
        nonempty = np.flatnonzero(np.diff(xw))
        Y = np.zeros((r1 - r0,) + X.shape[1:], dtype=WT)
        if len(nonempty):
            Y[nonempty] = np.add.reduceat(products, xw[nonempty] - e0, axis=0)
        return Y

    return _tiles.stitch(_tiles.row_window_map(g.xadj, (2 * k + 2) * _B, window, g))


def spmv(g: CSRGraph, x: np.ndarray, space: ExecSpace | None = None, phase: str = "refinement") -> np.ndarray:
    """``y = A x`` for the (weighted) adjacency matrix of ``g``."""
    y = _apply(g, x)
    if space is not None:
        nnz = g.m_directed
        # the x-vector gather is random *only* when x exceeds the last-
        # level cache; coarse-level vectors are cache-resident, which is
        # why multilevel refinement sweeps are nearly bandwidth-optimal
        gather = _B * nnz
        if _B * g.n <= space.machine.cache_bytes:
            cost = KernelCost(
                stream_bytes=2.0 * _B * nnz + 3.0 * _B * g.n + gather,
                flops=2.0 * nnz,
                launches=1,
            )
        else:
            cost = KernelCost(
                stream_bytes=2.0 * _B * nnz + 3.0 * _B * g.n,
                random_bytes=gather,
                flops=2.0 * nnz,
                launches=1,
            )
        space.ledger.charge(phase, cost)
    return y


def spmm(g: CSRGraph, X: np.ndarray, space: ExecSpace | None = None, phase: str = "refinement") -> np.ndarray:
    """``Y = A X`` for an ``(n, k)`` block of vectors (blocked SpMV).

    The spectral SpMM inner loop: block power iteration applies the
    operator to all ``k`` iterate vectors with one sweep of the CSR
    arrays instead of ``k`` SpMV sweeps.  Same window body as
    :func:`spmv`, so every execution policy is byte-identical.

    The charge is issued once, after the sweep: the CSR stream is paid
    once, the ``X`` gather and the flops ``k`` times.
    """
    X = np.ascontiguousarray(X, dtype=WT)
    if X.ndim == 1:
        X = X[:, None]
    k = X.shape[1]
    Y = _apply(g, X)
    if space is not None:
        nnz = g.m_directed
        gather = float(k) * _B * nnz
        if _B * k * g.n <= space.machine.cache_bytes:
            cost = KernelCost(
                stream_bytes=2.0 * _B * nnz + 3.0 * _B * k * g.n + gather,
                flops=2.0 * k * nnz,
                launches=1,
            )
        else:
            cost = KernelCost(
                stream_bytes=2.0 * _B * nnz + 3.0 * _B * k * g.n,
                random_bytes=gather,
                flops=2.0 * k * nnz,
                launches=1,
            )
        space.ledger.charge(phase, cost)
    return Y


def laplacian_spmv(
    g: CSRGraph,
    x: np.ndarray,
    degrees: np.ndarray,
    space: ExecSpace | None = None,
    phase: str = "refinement",
) -> np.ndarray:
    """``y = L x = D x - A x`` with the Laplacian kept implicit."""
    y = degrees * x - spmv(g, x, space, phase)
    if space is not None:
        space.ledger.charge(
            phase, KernelCost(stream_bytes=3.0 * _B * g.n, flops=2.0 * g.n)
        )
    return y
