"""Global-sort construction baseline (Section III-B).

Sort *all* mapped edge triples <M[u], M[v], W(u,v)> globally and merge
equal runs — no per-vertex binning, no degree-based keep-side sweep.
The paper found it "not to be competitive": the global sort pays the
full 2m·log(2m) over the whole edge set where the vertex-centric
strategies sort short bins (and the skew optimization halves them).
Kept as the baseline it is.
"""

from __future__ import annotations

import numpy as np

from ..coarsen.base import CoarseMapping
from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..parallel.primitives import stable_key_sort
from ..types import WT
from .base import (
    coarse_vertex_weights,
    finalize_csr,
    mapped_cross_edges,
    register_constructor,
)

__all__ = ["construct_global_sort"]

_B = 8


@register_constructor("global_sort")
def construct_global_sort(g: CSRGraph, mapping: CoarseMapping, space: ExecSpace) -> CSRGraph:
    n_c = mapping.n_c
    mu, mv, w = mapped_cross_edges(g, mapping, space)
    vwgts = coarse_vertex_weights(g, mapping, space)

    total = len(mu)
    with space.span("dedup", strategy="global_sort", skew_opt=False):
        # one stable radix sort of the fused key == lexsort((mv, mu))
        order, key = stable_key_sort(mu * np.int64(n_c) + mv, n_c * n_c)
        mu, mv, w = mu[order], mv[order], w[order]
        if total:
            new_run = np.empty(total, dtype=bool)
            new_run[0] = True
            new_run[1:] = key[1:] != key[:-1]
            first = np.flatnonzero(new_run)
            wsum = np.add.reduceat(w, first).astype(WT, copy=False)
            mu, mv, w = mu[first], mv[first], wsum
        space.ledger.charge(
            "construction",
            KernelCost(
                stream_bytes=6.0 * _B * total,
                sort_key_ops=2.0 * total * max(1.0, np.log2(max(total, 2))),
                launches=3,
            ),
        )
    return finalize_csr(n_c, mu, mv, w, vwgts, g.name, canonical=True)
