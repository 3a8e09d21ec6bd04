"""Coarse-graph construction: shared machinery and the strategy registry.

Given a fine graph and a mapping (Algorithm 1, line 5), all strategies
must produce the *same* coarse graph: cross-aggregate edges keep their
endpoints' coarse ids with weights of parallel edges summed; intra-
aggregate edges (self-loops in coarse space) are dropped; coarse vertex
weights are the sums of their aggregates' fine vertex weights.  The
strategies differ only in *how* (and hence at what cost) duplicates are
found and merged — which is the subject of Tables II/III.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from ..coarsen.base import CoarseMapping
from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..parallel.primitives import stable_key_sort
from ..types import VI, WT

__all__ = [
    "GraphConstructor",
    "register_constructor",
    "get_constructor",
    "available_constructors",
    "mapped_cross_edges",
    "coarse_vertex_weights",
    "finalize_csr",
]

_B = 8


class GraphConstructor(Protocol):
    """A coarse-graph construction strategy."""

    def __call__(
        self, g: CSRGraph, mapping: CoarseMapping, space: ExecSpace
    ) -> CSRGraph: ...


_REGISTRY: dict[str, GraphConstructor] = {}


def register_constructor(name: str) -> Callable[[GraphConstructor], GraphConstructor]:
    def deco(fn: GraphConstructor) -> GraphConstructor:
        if name in _REGISTRY:
            raise ValueError(f"constructor {name!r} already registered")
        _REGISTRY[name] = fn
        fn.constructor_name = name  # type: ignore[attr-defined]
        return fn

    return deco


def get_constructor(name: str) -> GraphConstructor:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown constructor {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_constructors() -> list[str]:
    return sorted(_REGISTRY)


def mapped_cross_edges(
    g: CSRGraph, mapping: CoarseMapping, space: ExecSpace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map all directed edges to coarse space and drop intra-aggregate ones.

    Returns ``(mu, mv, w)`` for the surviving directed entries: one read
    of the fine CSR with ``M`` gathered per endpoint (Algorithm 6 lines
    2-5), materialised whole for the global-sort baseline, which sorts
    the full edge set at once.
    """
    counts = g.degrees()
    m = mapping.m
    if g.n < (1 << 31):
        m = m.astype(np.int32)  # halves the bandwidth of the edge-wise gathers
    mu = np.repeat(m, counts)  # == m[edge_sources()], one gather per row
    mv = m[g.adjncy]
    cross = mu != mv
    space.ledger.charge(
        "construction",
        KernelCost(
            stream_bytes=3.0 * _B * g.m_directed + 2.0 * _B * g.n,
            random_bytes=_B * g.m_directed,  # M gathers (M stays cache/L2-hot)
            launches=1,
        ),
    )
    return mu[cross], mv[cross], g.ewgts[cross]


def coarse_vertex_weights(
    g: CSRGraph, mapping: CoarseMapping, space: ExecSpace, phase: str = "construction"
) -> np.ndarray:
    """Aggregate fine vertex weights into coarse vertex weights."""
    # bincount accumulates in array order, exactly like the scatter-add
    out = np.bincount(mapping.m, weights=g.vwgts, minlength=mapping.n_c).astype(WT, copy=False)
    space.ledger.charge(
        phase,
        KernelCost(
            stream_bytes=2.0 * _B * g.n,
            random_bytes=_B * g.n,
            atomic_ops=float(g.n),
            launches=1,
        ),
    )
    return out


def finalize_csr(
    n_c: int,
    cu: np.ndarray,
    cv: np.ndarray,
    w: np.ndarray,
    vwgts: np.ndarray,
    name: str = "",
    canonical: bool = False,
) -> CSRGraph:
    """Assemble a CSRGraph from deduplicated directed entries.

    ``(cu, cv, w)`` must contain each coarse edge twice (both
    directions) with no self-loops; entries may be in any order — rows
    are put in canonical sorted form here.  Residual duplicates are
    merged by summation: when the degree-estimate keep-side predicate
    ties, fine edges of the same coarse pair can split across both
    orientations, so the transpose pass reintroduces a few duplicates
    (the construction kernels charge the merge as part of their
    transpose sweeps).  Callers whose entries are already sorted by
    ``(cu, cv)`` with no duplicates pass ``canonical=True`` to skip the
    sort-and-merge (on sorted dedup'd input it is the identity).
    """
    if not canonical:
        # single stable sort of the fused key == lexsort((cv, cu)):
        # both order by (cu, cv) and break ties by position
        order, key = stable_key_sort(cu * np.int64(n_c) + cv, n_c * n_c)
        cu, cv, w = cu[order], cv[order], w[order]
        if len(cu):
            new_run = np.empty(len(cu), dtype=bool)
            new_run[0] = True
            new_run[1:] = key[1:] != key[:-1]
            if not new_run.all():
                first = np.flatnonzero(new_run)
                wsum = np.add.reduceat(w, first).astype(WT, copy=False)
                cu, cv, w = cu[first], cv[first], wsum
    counts = np.bincount(cu, minlength=n_c).astype(VI)
    xadj = np.zeros(n_c + 1, dtype=VI)
    np.cumsum(counts, out=xadj[1:])
    return CSRGraph(xadj, cv, w, vwgts, name)
