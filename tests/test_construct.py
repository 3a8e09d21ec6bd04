"""Construction strategies: equivalence, dedup optimization, invariants."""

import numpy as np
import pytest

from repro.coarsen import CoarseMapping, get_coarsener, hec_parallel
from repro.construct import (
    SKEW_THRESHOLD,
    available_constructors,
    construct_reference,
    construct_sort,
    get_constructor,
    is_skewed,
)
from repro.construct import dedup as dedup_mod
from repro.construct import vertex_sort
from repro.csr import from_edge_list, validate
from repro.generators.kron import rmat
from repro.parallel import gpu_space

from tests.conftest import VERTEX_CENTRIC, random_connected

ALL_CONSTRUCTORS = sorted(available_constructors())


def _float_weighted(g, seed=1):
    """``g`` with non-integer U(0.5, 4.0) edge weights."""
    src, dst, _ = g.to_coo()
    up = src < dst
    w = np.random.default_rng(seed).uniform(0.5, 4.0, int(up.sum()))
    return from_edge_list(g.n, src[up], dst[up], w, name=g.name)


EQUIV_GRAPHS = {
    "int": lambda: random_connected(150, 250, seed=11),
    "float-regular": lambda: _float_weighted(random_connected(150, 250, seed=11)),
    "float-skewed": lambda: _float_weighted(rmat(10, 8, seed=1)),
}


def _graphs_equal(a, b):
    return (
        np.array_equal(a.xadj, b.xadj)
        and np.array_equal(a.adjncy, b.adjncy)
        and np.allclose(a.ewgts, b.ewgts)
        and np.allclose(a.vwgts, b.vwgts)
    )


class TestRegistry:
    def test_registered(self):
        assert set(ALL_CONSTRUCTORS) == {
            "sort", "hash", "spgemm", "global_sort", "heap",
        }

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown constructor"):
            get_constructor("bogus")


@pytest.mark.parametrize("coarsener,cname,graph", [
    pytest.param(co, cn, gr, id=f"{co}-{cn}" + ("" if gr == "int" else f"-{gr}"))
    for gr in EQUIV_GRAPHS for cn in ALL_CONSTRUCTORS for co in ("hec", "hem", "mis2")
])
class TestEquivalence:
    """All strategies produce the reference coarse graph — the central
    correctness property of Section III-B."""

    def test_matches_reference(self, coarsener, cname, graph):
        g = EQUIV_GRAPHS[graph]()
        mp = get_coarsener(coarsener)(g, gpu_space(4))
        ref = construct_reference(g, mp)
        out = get_constructor(cname)(g, mp, gpu_space(0))
        assert _graphs_equal(out, ref)
        validate(out)
        if cname in VERTEX_CENTRIC:
            # one pipeline merges every strategy's bins in the same
            # order, so even non-integer weight sums agree bit for bit
            want = construct_sort(g, mp, gpu_space(0))
            for a in ("xadj", "adjncy", "ewgts", "vwgts"):
                assert np.array_equal(getattr(out, a), getattr(want, a)), a


@pytest.mark.parametrize("cname", ALL_CONSTRUCTORS)
class TestConstructionInvariants:
    def _coarse(self, cname, g, seed=0):
        mp = hec_parallel(g, gpu_space(seed))
        return mp, get_constructor(cname)(g, mp, gpu_space(seed))

    def test_weight_conservation(self, cname):
        g = random_connected(200, 350, seed=3)
        mp, gc = self._coarse(cname, g)
        src, dst, w = g.to_coo()
        intra = w[mp.m[src] == mp.m[dst]].sum() / 2.0
        assert gc.total_edge_weight() == pytest.approx(g.total_edge_weight() - intra)

    def test_vertex_weight_aggregation(self, cname):
        g = random_connected(200, 350, seed=4)
        mp, gc = self._coarse(cname, g)
        expected = np.zeros(mp.n_c)
        np.add.at(expected, mp.m, g.vwgts)
        assert np.allclose(gc.vwgts, expected)

    def test_no_self_loops_or_duplicates(self, cname):
        g = random_connected(200, 350, seed=5)
        _, gc = self._coarse(cname, g)
        validate(gc)

    def test_star_collapse_yields_empty_coarse(self, cname, star10):
        """All vertices in one aggregate: the coarse graph has no edges."""
        mp = hec_parallel(star10, gpu_space(0))
        assert mp.n_c == 1
        gc = get_constructor(cname)(star10, mp, gpu_space(0))
        assert gc.n == 1
        assert gc.m == 0

    def test_identity_mapping_reproduces_graph(self, cname):
        g = random_connected(80, 120, seed=6)
        mp = CoarseMapping(np.arange(g.n), g.n)
        gc = get_constructor(cname)(g, mp, gpu_space(0))
        assert _graphs_equal(gc, g) or (
            np.array_equal(gc.xadj, g.xadj)
            and np.array_equal(gc.adjncy, g.adjncy)
            and np.allclose(gc.ewgts, g.ewgts)
        )


class TestSkewHeuristic:
    def test_star_is_skewed(self):
        g = from_edge_list(30, [0] * 29, list(range(1, 30)))
        assert is_skewed(g)

    def test_grid_is_not(self, grid6):
        assert not is_skewed(grid6)

    def test_threshold_boundary(self):
        assert SKEW_THRESHOLD == 5.0


def _spy_dedup(monkeypatch) -> dict:
    """Record what reaches the pipeline's dedup: the fused ``(mu, mv)``
    keys, their weights, the per-source bins and the key's shift."""
    real = vertex_sort._dedup_keys
    seen = {}

    def spy(key, w, key_bound, bounds, eng=None):
        seen.update(key=np.array(key), w=w, shift=int(bounds[1]).bit_length() - 1)
        out = real(key, w, key_bound, bounds, eng)
        seen["bins"] = out[2]
        return out

    monkeypatch.setattr(vertex_sort, "_dedup_keys", spy)
    return seen


class TestKeepSide:
    def test_exactly_one_copy_survives(self, monkeypatch):
        """Each fine edge carries a unique weight, so the weights that
        reach the dedup name the copies the keep-side sweep kept."""
        rng = np.random.default_rng(7)
        ex = rng.integers(1, 120, size=(200, 2))
        pairs = {(0, v) for v in range(1, 120)}  # a hub makes it skewed
        pairs |= {(min(a, b), max(a, b)) for a, b in ex.tolist() if a != b}
        src, dst = np.array(sorted(pairs)).T
        g = from_edge_list(120, src, dst, np.arange(1.0, len(src) + 1))
        assert is_skewed(g)
        m = np.arange(g.n) % 30
        # some cross edges join coarse vertices of equal C', so the
        # fine-id tie-break decides their copy
        fu, fv = m[g.edge_sources()], m[g.adjncy]
        c_prime = np.bincount(fu[fu != fv], minlength=30)
        assert np.any((fu != fv) & (c_prime[fu] == c_prime[fv]))
        seen = _spy_dedup(monkeypatch)
        construct_sort(g, CoarseMapping(m, 30), gpu_space(0))
        mask = (1 << seen["shift"]) - 1
        kept = list(zip(
            (seen["key"] >> seen["shift"]).tolist(),
            (seen["key"] & mask).tolist(),
            seen["w"].tolist(),
        ))
        cross = {
            float(i + 1): (int(m[u]), int(m[v]))
            for i, (u, v) in enumerate(zip(src, dst)) if m[u] != m[v]
        }
        assert sorted(w for _, _, w in kept) == sorted(cross)
        for mu, mv, w in kept:
            assert (mu, mv) in (cross[w], cross[w][::-1])

    def test_cprime_upper_bounds_true_degree(self, monkeypatch):
        """C' counts each coarse source's cross entries: exactly the
        bins the regular path dedups."""
        g = random_connected(120, 200, seed=8)
        assert not is_skewed(g)
        mp = hec_parallel(g, gpu_space(2))
        seen = _spy_dedup(monkeypatch)
        gc = construct_sort(g, mp, gpu_space(0))
        cross = mp.m[g.edge_sources()] != mp.m[g.adjncy]
        assert seen["bins"].sum() == int(cross.sum())
        assert np.all(np.diff(gc.xadj) <= seen["bins"])

    def test_reference_same_with_and_without_optimization(self):
        g = random_connected(100, 300, seed=9)
        mp = hec_parallel(g, gpu_space(3))
        a = construct_reference(g, mp, use_keep_side=True)
        b = construct_reference(g, mp, use_keep_side=False)
        assert _graphs_equal(a, b)

    def test_optimization_halves_dedup_entries(self, monkeypatch):
        """With the sweep on, the dedup kernels see half the entries."""
        g = from_edge_list(40, [0] * 39, list(range(1, 40)))  # skewed star
        # star collapses under hec; use a 2-coloring mapping instead
        m = np.arange(40) % 5
        mp = CoarseMapping(m, 5)
        seen = _spy_dedup(monkeypatch)
        construct_sort(g, mp, gpu_space(0))
        with_opt = len(seen["key"])
        # without the sweep, dedup would see both directed copies of
        # every cross edge; the sweep keeps exactly one per edge
        cross = m[g.edge_sources()] != m[g.adjncy]
        assert with_opt * 2 == int(cross.sum())
        # the regular path skips the sweep: its dedup sees every cross
        # entry
        seen.clear()
        monkeypatch.setattr(dedup_mod, "SKEW_THRESHOLD", float("inf"))
        construct_sort(g, mp, gpu_space(0))
        assert len(seen["key"]) == int(cross.sum())
