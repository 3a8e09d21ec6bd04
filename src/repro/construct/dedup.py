"""Degree-based deduplication optimization and the skew heuristic.

Every undirected fine edge is stored twice in the CSR, but only one copy
is needed for deduplication.  For skewed-degree graphs it matters *which*
copy: keeping the copy at the endpoint whose coarse vertex has the lower
estimated degree (the upper bound C' of Algorithm 6, line 5) keeps the
per-vertex dedup bins small — a hub's bin would otherwise hold nearly all
of the graph.  The paper measures this optimization at 25.7x on kron21's
construction time and enables it selectively using the max-degree to
average-degree ratio (Section III-B); regular meshes gain nothing, so the
sweep is skipped there.  :func:`construct_binned` is the Algorithm 6 frame
that the hash and heap strategies share around their dedup kernels.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..coarsen.base import CoarseMapping
from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..types import VI
from .base import coarse_vertex_weights, finalize_csr, mapped_cross_edges

__all__ = [
    "SKEW_THRESHOLD",
    "is_skewed",
    "degree_estimates",
    "keep_lighter_end",
    "construct_binned",
]

_B = 8

#: Graphs with Δ/(2m/n) above this use the degree-based dedup sweep.
#: The paper's corpus splits between 6.1 (regular max) and 17.0 (skewed
#: min); our ~1/1000-scale stand-ins compress the skew range to 2.7 vs
#: 8.7, so the threshold sits at 5 — splitting our corpus exactly as the
#: paper's threshold splits theirs.
SKEW_THRESHOLD = 5.0


def is_skewed(g) -> bool:
    """The paper's selective-invocation test for the dedup optimization."""
    return g.degree_skew() > SKEW_THRESHOLD


def degree_estimates(mu: np.ndarray, n_c: int, space: ExecSpace, phase: str = "construction") -> np.ndarray:
    """C' of Algorithm 6 (lines 1-5): per-coarse-vertex cross-degree upper
    bound, counted with atomic increments over the mapped edge sweep."""
    # values are bounded by the entry count, so a narrow dtype halves
    # the bandwidth of the per-edge C' gathers in the keep-side sweep
    dt = np.int32 if len(mu) < (1 << 31) else VI
    c_prime = np.bincount(mu, minlength=n_c).astype(dt)
    space.ledger.charge(
        phase,
        KernelCost(
            stream_bytes=_B * len(mu) + _B * n_c,
            random_bytes=_B * len(mu),
            atomic_ops=float(len(mu)),
            launches=1,
        ),
    )
    return c_prime


def keep_lighter_end(
    mu: np.ndarray,
    mv: np.ndarray,
    u: np.ndarray | None,
    v: np.ndarray | None,
    c_prime: np.ndarray,
    space: ExecSpace,
    phase: str = "construction",
    *,
    tie: np.ndarray | None = None,
) -> np.ndarray:
    """The keep-side predicate of Algorithm 6 (lines 9 / 17).

    Returns a mask selecting, for each undirected fine edge, exactly one
    of its two directed copies: the one whose source coarse vertex has
    the smaller degree estimate, with fine vertex ids breaking ties.
    Callers may pass the precomputed ``u < v`` tie-break as ``tie``
    (from ``mapped_cross_edges(..., with_endpoints="tie")``) instead of
    the endpoint arrays themselves.
    """
    cu, cv = c_prime[mu], c_prime[mv]
    if tie is None:
        tie = u < v
    keep = (cu < cv) | ((cu == cv) & tie)
    space.ledger.charge(
        phase,
        KernelCost(
            stream_bytes=3.0 * _B * len(mu),
            random_bytes=2.0 * _B * len(mu),
            launches=1,
        ),
    )
    return keep


def construct_binned(
    g: CSRGraph,
    mapping: CoarseMapping,
    space: ExecSpace,
    strategy: str,
    dedup: Callable,
) -> CSRGraph:
    """Algorithm 6 around a per-bin dedup kernel ``dedup(mu, mv, w, n_c, space)``.

    The frame of the hash and heap strategies: map the directed edges
    to coarse space, then dedup inside the ``dedup`` span labelled
    ``strategy``.  On skewed graphs the keep-side sweep first halves the
    bins and the transpose pass (GraphConsWithTrans) restores symmetric
    storage afterwards.
    """
    n_c = mapping.n_c
    skewed = is_skewed(g)
    mu, mv, w, tie, _ = mapped_cross_edges(
        g, mapping, space, with_endpoints="tie" if skewed else False
    )
    vwgts = coarse_vertex_weights(g, mapping, space)

    with space.span("dedup", strategy=strategy, skew_opt=skewed):
        if skewed:
            c_prime = degree_estimates(mu, n_c, space)
            keep = keep_lighter_end(mu, mv, None, None, c_prime, space, tie=tie)
            mu, mv, w = mu[keep], mv[keep], w[keep]
        mu, mv, w = dedup(mu, mv, w, n_c, space)
    if skewed:
        mu, mv = np.concatenate([mu, mv]), np.concatenate([mv, mu])
        w = np.concatenate([w, w])
        space.ledger.charge(
            "construction",
            KernelCost(
                stream_bytes=6.0 * _B * len(mu),
                random_bytes=2.0 * _B * len(mu),
                atomic_ops=float(len(mu)) / 2.0,
                launches=2,
            ),
        )
    else:
        space.ledger.charge(
            "construction",
            KernelCost(stream_bytes=4.0 * _B * len(mu), launches=1),
        )
    return finalize_csr(n_c, mu, mv, w, vwgts, g.name)
