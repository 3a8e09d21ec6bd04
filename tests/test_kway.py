"""k-way pipeline: the refinement and the quantile split against their loops.

``greedy_kway_refine`` visits only the boundary vertices that can move;
``greedy_kway_refine_reference`` below is the plain per-vertex loop it
replaced, kept here as the oracle.  Both must agree move for move: the
same ``part`` array (dtype included) and the same sequence of ledger
charges, on random graphs and on spectral starts over corpus graphs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coarsen.multilevel import coarsen_multilevel
from repro.csr import CSRGraph, from_edge_list
from repro.generators import corpus
from repro.parallel import gpu_space
from repro.parallel.cost import KernelCost
from repro.parallel.execspace import ExecSpace
from repro.partition.kway import _B, greedy_kway_refine, quantile_split
from repro.partition.metrics import partition_weights
from repro.partition.multilevel import spectral_vector

SETTINGS = dict(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def greedy_kway_refine_reference(
    g: CSRGraph,
    part: np.ndarray,
    k: int,
    space: ExecSpace,
    *,
    max_passes: int = 4,
    balance_tol: float = 0.03,
) -> np.ndarray:
    """Oracle: the dense per-vertex loop, O(k) work per boundary vertex."""
    part = part.astype(np.int32).copy()
    n = g.n
    if n == 0 or k <= 1:
        return part
    vw = g.vwgts
    w = partition_weights(g, part, k)
    cap = w.sum() / k * (1.0 + balance_tol)
    src = g.edge_sources()

    for _ in range(max_passes):
        cut_mask = part[src] != part[g.adjncy]
        boundary = np.unique(src[cut_mask])
        # one streaming sweep over the edge list + the boundary's adjacency
        space.ledger.charge(
            "refinement",
            KernelCost(stream_bytes=2.0 * _B * g.m, flops=float(g.m), launches=2),
        )
        moved = 0
        conn = np.zeros(k)
        for v in boundary:
            lo, hi = g.xadj[v], g.xadj[v + 1]
            conn[:] = 0.0
            np.add.at(conn, part[g.adjncy[lo:hi]], g.ewgts[lo:hi])
            cur = part[v]
            gains = conn - conn[cur]
            gains[cur] = -np.inf
            gains[w + vw[v] > cap] = -np.inf
            target = int(np.argmax(gains))
            if gains[target] > 0:
                part[v] = target
                w[cur] -= vw[v]
                w[target] += vw[v]
                moved += 1
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


def quantile_split_reference(x: np.ndarray, vwgts: np.ndarray, k: int) -> np.ndarray:
    """Oracle: quantile bands applied by an O(n*k) suffix-bump loop."""
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
    bands = np.searchsorted(csum - vwgts[order] / 2.0, np.arange(1, k) * total / k)
    labels = np.zeros(n, dtype=np.int32)
    for b in bands:  # k-1 boundaries, each bumps the suffix by one part
        labels[b:] += 1
    part[order] = np.minimum(labels, k - 1)
    return part


def _refine(fn, g, part, k, **kw):
    """Run one refinement on a fresh space; return ``(part, charges)``."""
    space = gpu_space(0)
    charges = []
    space.ledger.add_listener(lambda phase, cost: charges.append((phase, cost)))
    return fn(g, part, k, space, **kw), charges


def _assert_same_moves(g, part, k, **kw):
    start = part.copy()
    got, got_charges = _refine(greedy_kway_refine, g, part, k, **kw)
    np.testing.assert_array_equal(part, start)  # the caller's array is untouched
    want, want_charges = _refine(greedy_kway_refine_reference, g, part, k, **kw)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert got_charges == want_charges
    return want


@st.composite
def refine_cases(draw):
    """Weighted multigraph edge list, vertex weights, k and a start part."""
    n = draw(st.integers(1, 48))
    n_edges = draw(st.integers(0, 4 * n))
    ends = st.lists(st.integers(0, n - 1), min_size=n_edges, max_size=n_edges)
    src, dst = draw(ends), draw(ends)
    dup = draw(st.integers(0, n_edges))  # re-list a prefix as duplicate edges
    src, dst = src + src[:dup], dst + dst[:dup]
    # per case: exact halves, whose sums tie gains and land on the cap,
    # or arbitrary floats, whose sums round
    halves = draw(st.booleans())
    weights = st.sampled_from([0.5, 1.5, 2.5]) if halves else st.floats(0.1, 10.0)
    wgt = draw(st.lists(weights, min_size=len(src), max_size=len(src)))
    vweights = st.sampled_from([0.5, 1.0, 1.5]) if halves else st.floats(0.25, 4.0)
    vwgts = draw(st.lists(vweights, min_size=n, max_size=n))
    g = from_edge_list(
        n, src, dst, wgt, vwgts=vwgts, sum_duplicates=draw(st.booleans())
    )
    k = draw(st.sampled_from([1, 2, 3, 5, 8, 64, 300]))
    part = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return g, np.array(part), k


@pytest.fixture(scope="module")
def spectral_start():
    """Corpus graph and Fiedler vector over its hec+sort hierarchy."""
    memo = {}

    def get(name):
        if name not in memo:
            g, _ = corpus.load(name, 0)
            space = gpu_space(0)
            h = coarsen_multilevel(g, space, coarsener="hec", constructor="sort")
            memo[name] = (g, spectral_vector(h, space)[0])
        return memo[name]

    return get


class TestGreedyKwayRefine:
    @given(
        refine_cases(),
        st.sampled_from([0.0, 0.03, 0.2, 1.0]),
        st.sampled_from([1, 2, 4, 8]),
    )
    @settings(**SETTINGS)
    def test_matches_reference_loop(self, case, balance_tol, max_passes):
        g, part, k = case
        _assert_same_moves(
            g, part, k, balance_tol=balance_tol, max_passes=max_passes
        )

    def test_sums_add_in_adjacency_order(self):
        # hub 0 (part 0) reaches part 1 through a 1.0 edge, then 40 edges
        # of 2**-53 that round-to-even absorbs one by one, and part 0
        # through one 1.0 edge: added in adjacency order, part 1 sums to
        # exactly 1.0 (zero gain, the hub stays); a pairwise sum adds the
        # small weights together first and moves the hub
        leaves = np.arange(1, 43)
        wgt = np.r_[1.0, np.full(40, 2.0**-53), 1.0]
        g = from_edge_list(43, np.zeros(42, dtype=int), leaves, wgt)
        start = np.r_[0, np.ones(41, dtype=int), 0]
        out = _assert_same_moves(g, start, 2, balance_tol=1.0)
        assert out[0] == 0

    @pytest.mark.parametrize(
        "name,k",
        [("delaunay24", k) for k in (4, 8, 16, 32, 64)]
        + [("citation", k) for k in (4, 8, 16, 32, 64)]
        + [("europeOsm", 8)],
    )
    def test_matches_reference_on_spectral_starts(self, spectral_start, name, k):
        g, x = spectral_start(name)
        start = quantile_split(x, g.vwgts, k)
        out = _assert_same_moves(g, start, k)
        assert (out != start).any()  # the case exercises real moves


@st.composite
def split_cases(draw):
    """Tied Fiedler values, vertex weights (zeros included), k up to n + 8."""
    n = draw(st.integers(0, 40))
    ties = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    x = draw(st.lists(ties, min_size=n, max_size=n))
    weights = st.one_of(st.just(1.0), st.floats(0.0, 8.0))
    vwgts = draw(st.lists(weights, min_size=n, max_size=n))
    k = draw(st.integers(1, n + 8))  # k > n included
    return np.array(x, dtype=float), np.array(vwgts, dtype=float), k


class TestQuantileSplit:
    @given(split_cases())
    @settings(**SETTINGS)
    def test_matches_suffix_bump_loop(self, case):
        x, vwgts, k = case
        got = quantile_split(x, vwgts, k)
        want = quantile_split_reference(x, vwgts, k)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_protocol_max_k(self):
        rng = np.random.default_rng(0)
        x, vwgts = rng.normal(size=16384), rng.uniform(0.5, 2.0, 16384)
        got = quantile_split(x, vwgts, 4096)
        np.testing.assert_array_equal(got, quantile_split_reference(x, vwgts, 4096))
        assert len(np.unique(got)) == 4096
