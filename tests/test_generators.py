"""Generators and the Table-I corpus."""

import numpy as np
import pytest

from repro.csr import is_connected, validate
from repro.generators import (
    CORPUS,
    REGULAR,
    SKEWED,
    ba_tree,
    chung_lu,
    corpus_table,
    delaunay_graph,
    grid2d,
    grid3d,
    load,
    memory_scale,
    mycielski_step,
    mycielskian,
    random_geometric,
    rmat,
    road_like,
    stencil_offsets,
    watts_strogatz,
)


class TestMesh:
    def test_grid2d_star(self):
        g = grid2d(4, 5)
        validate(g)
        assert g.n == 20
        assert g.m == 4 * 4 + 3 * 5  # horizontal + vertical edges
        assert is_connected(g)

    def test_grid3d_box_degree(self):
        g = grid3d(5, 5, 5, radius=1, kind="box")
        validate(g)
        assert g.max_degree() == 26  # interior of a 27-point stencil
        assert g.degree(0) == 7  # corner

    def test_stencil_offsets(self):
        assert len(stencil_offsets(2, 1, "box")) == 8
        assert len(stencil_offsets(2, 1, "star")) == 4
        assert len(stencil_offsets(3, 1, "box")) == 26
        assert len(stencil_offsets(3, 1, "star")) == 6

    def test_bad_stencil(self):
        with pytest.raises(ValueError):
            stencil_offsets(2, 1, "diamond")

    def test_skew_near_one(self):
        assert grid3d(6, 6, 6).degree_skew() < 2.0


class TestRandomFamilies:
    def test_rgg(self):
        g = random_geometric(500, avg_degree=12, seed=1)
        validate(g)
        assert is_connected(g)
        assert 6 < g.avg_degree() < 20

    def test_delaunay(self):
        g = delaunay_graph(400, seed=2)
        validate(g)
        assert is_connected(g)
        # Euler: planar triangulation has < 3n edges and avg degree < 6
        assert g.m < 3 * g.n
        assert g.avg_degree() < 6

    def test_rmat_skewed(self):
        g = rmat(9, edge_factor=12, seed=3)
        validate(g)
        assert is_connected(g)
        assert g.degree_skew() > 5

    def test_chung_lu_tail(self):
        g = chung_lu(800, avg_degree=20, exponent=2.3, seed=4)
        validate(g)
        assert g.degree_skew() > 3

    def test_ba_tree_is_tree(self):
        g = ba_tree(300, seed=5)
        validate(g)
        assert is_connected(g)
        assert g.m == g.n - 1

    def test_ba_tree_bias_controls_skew(self):
        hub = ba_tree(2000, seed=6, bias=1.0).degree_skew()
        flat = ba_tree(2000, seed=6, bias=0.0).degree_skew()
        assert hub > flat

    def test_watts_strogatz(self):
        g = watts_strogatz(400, k=10, p=0.1, seed=7)
        validate(g)
        assert is_connected(g)
        assert 7 < g.avg_degree() < 11

    def test_road_like_sparse(self):
        g = road_like(2000, seed=8)
        validate(g)
        assert is_connected(g)
        assert g.avg_degree() < 3.0

    def test_determinism(self):
        a = rmat(8, seed=9)
        b = rmat(8, seed=9)
        assert np.array_equal(a.adjncy, b.adjncy)
        c = rmat(8, seed=10)
        assert a.m != c.m or not np.array_equal(a.adjncy, c.adjncy)


class TestMycielskian:
    def test_size_recurrences(self):
        g = mycielskian(2)
        n, m = g.n, g.m
        for order in range(3, 8):
            g = mycielski_step(g)
            n, m = 2 * n + 1, 3 * m + n
            assert g.n == n
            assert g.m == m
        validate(g)

    def test_triangle_free(self):
        import networkx as nx

        g = mycielskian(5)
        src, dst, _ = g.to_coo()
        nxg = nx.Graph(zip(src.tolist(), dst.tolist()))
        assert len(list(nx.triangles(nxg).values())) == g.n
        assert sum(nx.triangles(nxg).values()) == 0

    def test_chromatic_growth_proxy(self):
        # each step increases the max degree
        a, b = mycielskian(5), mycielskian(6)
        assert b.max_degree() > a.max_degree()

    def test_bad_order(self):
        with pytest.raises(ValueError):
            mycielskian(1)


class TestCorpus:
    def test_twenty_graphs(self):
        assert len(CORPUS) == 20
        assert len(REGULAR) == len(SKEWED) == 10

    def test_paper_order_by_size(self):
        sizes = [s.paper_size_measure for s in REGULAR]
        assert sizes == sorted(sizes, reverse=True)

    def test_load_and_cache(self, tmp_path, monkeypatch):
        import repro.generators.corpus as c

        monkeypatch.setattr(c, "_CACHE_DIR", tmp_path)
        g1, spec = load("ppa")
        assert (tmp_path / "ppa-s0.npz").exists()
        assert (tmp_path / "ppa-s0.meta.json").exists()
        g2, _ = load("ppa")
        assert np.array_equal(g1.adjncy, g2.adjncy)
        assert spec.group == "skewed"
        stats = c._get_cache().stats()
        assert stats.misses == 1 and stats.hits == 1

    def test_corrupt_cache_self_heals(self, tmp_path, monkeypatch):
        import repro.generators.corpus as c

        monkeypatch.setattr(c, "_CACHE_DIR", tmp_path)
        g1, _ = load("ppa")
        path = tmp_path / "ppa-s0.npz"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        g2, _ = load("ppa")  # must regenerate, not raise BadZipFile
        assert np.array_equal(g1.adjncy, g2.adjncy)
        stats = c._get_cache().stats()
        assert stats.corruptions == 1 and stats.regenerations == 1
        assert list((tmp_path / "quarantine").iterdir())

    def test_stale_fingerprint_regenerates(self, tmp_path, monkeypatch):
        import repro.generators.corpus as c

        monkeypatch.setattr(c, "_CACHE_DIR", tmp_path)
        load("ppa")
        monkeypatch.setattr(c, "_fingerprint", lambda spec, seed: "f" * 16)
        load("ppa")
        stats = c._get_cache().stats()
        assert stats.stale == 1 and stats.regenerations == 1

    def test_unknown_graph(self):
        with pytest.raises(KeyError, match="unknown corpus graph"):
            load("nonexistent")

    def test_all_connected_and_valid(self):
        for spec in CORPUS:
            g, _ = load(spec.name)
            validate(g)
            assert is_connected(g), spec.name
            assert g.name == spec.name

    def test_skew_split_matches_groups(self):
        from repro.construct import is_skewed

        for spec in CORPUS:
            g, _ = load(spec.name)
            assert is_skewed(g) == (spec.group == "skewed"), spec.name

    def test_memory_scale_large(self):
        g, spec = load("ppa")
        assert memory_scale(g, spec) > 100  # ~1/1000-scale stand-ins

    def test_corpus_table_fields(self):
        rows = corpus_table()
        assert len(rows) == 20
        assert all({"graph", "m", "n", "skew", "paper_m"} <= set(r) for r in rows)
