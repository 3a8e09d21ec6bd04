"""CSRGraph container behaviour."""

import numpy as np
import pytest

from repro.csr import from_edge_list
from repro.types import VI, WT

from tests.conftest import grid_graph, ring_graph, star_graph


class TestBasicAccessors:
    def test_sizes(self, ring8):
        assert ring8.n == 8
        assert ring8.m == 8
        assert ring8.m_directed == 16
        assert ring8.size_measure == 24

    def test_neighbors_sorted(self, ring8):
        assert list(ring8.neighbors(0)) == [1, 7]
        assert list(ring8.neighbors(3)) == [2, 4]

    def test_neighbors_is_view(self, ring8):
        nbrs = ring8.neighbors(0)
        assert nbrs.base is ring8.adjncy

    def test_degree(self, star10):
        assert star10.degree(0) == 10
        assert star10.degree(5) == 1

    def test_degrees_match_scalar(self, grid6):
        degs = grid6.degrees()
        for u in range(grid6.n):
            assert degs[u] == grid6.degree(u)

    def test_edge_weights_default_one(self, ring8):
        assert np.all(ring8.ewgts == 1.0)
        assert np.all(ring8.vwgts == 1.0)

    def test_arrays_readonly(self, ring8):
        with pytest.raises(ValueError):
            ring8.xadj[0] = 5
        with pytest.raises(ValueError):
            ring8.ewgts[0] = 5.0

    def test_dtypes(self, ring8):
        assert ring8.xadj.dtype == VI
        assert ring8.adjncy.dtype == VI
        assert ring8.ewgts.dtype == WT
        assert ring8.vwgts.dtype == WT


class TestDerived:
    def test_edge_sources(self, ring8):
        src = ring8.edge_sources()
        assert len(src) == ring8.m_directed
        # each vertex of a ring contributes exactly 2 entries
        assert np.all(np.bincount(src) == 2)

    def test_weighted_degrees(self):
        g = from_edge_list(3, [0, 1], [1, 2], [2.0, 3.0])
        assert list(g.weighted_degrees()) == [2.0, 5.0, 3.0]

    def test_max_avg_degree(self, star10):
        assert star10.max_degree() == 10
        assert star10.avg_degree() == pytest.approx(20 / 11)

    def test_degree_skew_star(self, star10):
        assert star10.degree_skew() == pytest.approx(10 / (20 / 11))

    def test_degree_skew_regular(self, ring8):
        assert ring8.degree_skew() == pytest.approx(1.0)

    def test_total_edge_weight(self):
        g = from_edge_list(3, [0, 1], [1, 2], [2.0, 3.0])
        assert g.total_edge_weight() == 5.0

    def test_total_vertex_weight(self, grid6):
        assert grid6.total_vertex_weight() == 36.0

    def test_empty_graph(self):
        from repro.csr import empty

        g = empty(4)
        assert g.n == 4
        assert g.m == 0
        assert g.avg_degree() == 0.0
        assert g.degree_skew() == 0.0
        assert g.max_degree() == 0


class TestConversions:
    def test_to_coo_roundtrip(self, grid6):
        src, dst, w = grid6.to_coo()
        g2 = from_edge_list(grid6.n, src, dst, w, symmetrize=False)
        assert np.array_equal(g2.xadj, grid6.xadj)
        assert np.array_equal(g2.adjncy, grid6.adjncy)
        assert np.allclose(g2.ewgts, grid6.ewgts)

    def test_to_scipy(self, ring8):
        mat = ring8.to_scipy()
        assert mat.shape == (8, 8)
        assert mat.nnz == 16
        dense = mat.toarray()
        assert np.allclose(dense, dense.T)

    def test_with_name(self, ring8):
        g = ring8.with_name("renamed")
        assert g.name == "renamed"
        assert g.n == ring8.n
        assert ring8.name == "ring8"

