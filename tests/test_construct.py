"""Construction strategies: equivalence, dedup optimization, invariants."""

import numpy as np
import pytest

from repro.coarsen import get_coarsener, hec_parallel
from repro.construct import (
    SKEW_THRESHOLD,
    available_constructors,
    construct_reference,
    degree_estimates,
    get_constructor,
    is_skewed,
    keep_lighter_end,
    mapped_cross_edges,
)
from repro.construct import dedup as dedup_mod
from repro.csr import from_edge_list, validate
from repro.parallel import gpu_space

from tests.conftest import grid_graph, random_connected, star_graph

ALL_CONSTRUCTORS = sorted(available_constructors())


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


@pytest.mark.parametrize("cname", ALL_CONSTRUCTORS)
@pytest.mark.parametrize("coarsener", ["hec", "hem", "mis2"])
class TestEquivalence:
    """All strategies produce the reference coarse graph — the central
    correctness property of Section III-B."""

    def test_matches_reference(self, cname, coarsener):
        g = random_connected(150, 250, seed=11)
        mp = get_coarsener(coarsener)(g, gpu_space(4))
        ref = construct_reference(g, mp)
        out = get_constructor(cname)(g, mp, gpu_space(0))
        assert _graphs_equal(out, ref)
        validate(out)


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
        from repro.coarsen import CoarseMapping

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


class TestKeepSide:
    def test_exactly_one_copy_survives(self):
        g = random_connected(120, 200, seed=7)
        mp = hec_parallel(g, gpu_space(1))
        sp = gpu_space(0)
        mu, mv, w, u, v = mapped_cross_edges(g, mp, sp)
        c_prime = degree_estimates(mu, mp.n_c, sp)
        keep = keep_lighter_end(mu, mv, u, v, c_prime, sp)
        # pair each directed copy with its reverse: exactly one kept
        fwd = {(int(a), int(b)) for a, b in zip(u[keep], v[keep])}
        for a, b in zip(u.tolist(), v.tolist()):
            assert ((a, b) in fwd) != ((b, a) in fwd)

    def test_cprime_upper_bounds_true_degree(self):
        g = random_connected(120, 200, seed=8)
        mp = hec_parallel(g, gpu_space(2))
        sp = gpu_space(0)
        mu, mv, w, u, v = mapped_cross_edges(g, mp, sp)
        c_prime = degree_estimates(mu, mp.n_c, sp)
        gc = get_constructor("sort")(g, mp, gpu_space(0))
        assert np.all(np.diff(gc.xadj) <= c_prime)

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
        from repro.coarsen import CoarseMapping

        m = np.arange(40) % 5
        mp = CoarseMapping(m, 5)
        seen = {}
        import repro.construct.vertex_sort as vs

        real = vs._dedup_keys

        def spy(key, w, key_bound, bounds, eng=None):
            seen["entries"] = len(key)
            return real(key, w, key_bound, bounds, eng)

        monkeypatch.setattr(vs, "_dedup_keys", spy)
        vs.construct_sort(g, mp, gpu_space(0))
        with_opt = seen["entries"]
        # without the sweep, dedup would see both directed copies of
        # every cross edge; the sweep keeps exactly one per edge
        cross = m[g.edge_sources()] != m[g.adjncy]
        assert with_opt * 2 == int(cross.sum())
        # the regular path skips the sweep: its dedup sees every cross
        # entry
        seen.clear()
        monkeypatch.setattr(dedup_mod, "SKEW_THRESHOLD", float("inf"))
        vs.construct_sort(g, mp, gpu_space(0))
        assert seen["entries"] == int(cross.sum())
