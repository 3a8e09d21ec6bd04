"""Batched edge updates: apply_edges semantics + budgeted-kernel parity."""

import numpy as np
import pytest

from repro.coarsen.hem import unmatched_heavy_neighbors
from repro.csr import CSRGraph, from_edge_list, validate
from repro.csr.update import apply_edges
from repro.parallel import gpu_space
from repro.partition.fm import compute_gains
from repro.storage import budget as budget_mod
from repro.storage.budget import MemoryBudget
from repro.storage.mapped import open_mapped, write_mapped
from repro.types import UNMAPPED, VI

from .conftest import random_connected


def arrays(g):
    return (np.asarray(g.xadj), np.asarray(g.adjncy),
            np.asarray(g.ewgts), np.asarray(g.vwgts))


def assert_same_graph(a, b):
    for x, y in zip(arrays(a), arrays(b)):
        np.testing.assert_array_equal(x, y)


def edge_set(g):
    return {(int(u), int(v)): float(w) for u, v, w in
            zip(g.edge_sources(), np.asarray(g.adjncy), np.asarray(g.ewgts))}


class TestApplyEdges:
    def test_add_new_edges_matches_rebuild(self):
        g = random_connected(60, 90, seed=3, weighted=True)
        present = edge_set(g)
        (u1, v1), (u2, v2) = [
            (u, v) for u in range(2) for v in range(30, 60)
            if (u, v) not in present
        ][:2]
        g2, delta = apply_edges(g, add=([u1, u2], [v1, v2], [2.5, 1.5]))
        validate(g2)
        # byte-identical to rebuilding from the mutated edge list
        es, ed = g.edge_sources(), np.asarray(g.adjncy)
        keep = es < ed
        ref = from_edge_list(
            g.n,
            np.concatenate([es[keep], [u1, u2]]),
            np.concatenate([ed[keep], [v1, v2]]),
            np.concatenate([np.asarray(g.ewgts)[keep], [2.5, 1.5]]),
            sum_duplicates=False,
            name=g.name,
        )
        assert_same_graph(g2, ref)
        assert delta.applied_adds == 2 and delta.applied_removes == 0

    def test_duplicate_adds_keep_max_weight(self):
        g = random_connected(30, 40, seed=1)
        g2, delta = apply_edges(
            g, add=([3, 3, 20], [20, 20, 3], [1.0, 4.0, 2.0])
        )
        validate(g2)
        # (3,20) requested three times (both directions): max weight wins
        assert edge_set(g2)[(3, 20)] == 4.0
        assert edge_set(g2)[(20, 3)] == 4.0
        assert delta.requested_adds == 3

    def test_add_below_existing_weight_is_noop(self):
        g = from_edge_list(4, [0, 1], [1, 2], [5.0, 1.0])
        g2, delta = apply_edges(g, add=([0], [1], [2.0]))
        assert g2 is g  # max(5, 2) = 5: nothing changed, same object
        assert delta.empty

    def test_removing_absent_edges_is_noop(self):
        g = random_connected(30, 40, seed=2)
        absent = [(u, v) for u in range(30) for v in range(30)
                  if u != v and (u, v) not in edge_set(g)][:3]
        ru = [u for u, _ in absent]
        rv = [v for _, v in absent]
        g2, delta = apply_edges(g, remove=(ru, rv))
        assert g2 is g
        assert delta.empty and delta.requested_removes == 3

    def test_add_and_remove_same_edge_in_one_batch(self):
        # E' = (E \ R) ∪max A: the add wins over the simultaneous remove
        g = from_edge_list(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
        g2, _delta = apply_edges(g, add=([0], [1], [7.0]), remove=([0], [1]))
        validate(g2)
        assert edge_set(g2)[(0, 1)] == 7.0
        assert g2.m == g.m

    def test_disconnecting_update(self):
        # removing the bridge splits the graph; CSR must stay valid with
        # isolated structure intact
        g = from_edge_list(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
        g2, delta = apply_edges(g, remove=([1], [2]))
        validate(g2)
        assert g2.m == 2
        assert (1, 2) not in edge_set(g2) and (2, 1) not in edge_set(g2)
        assert delta.applied_removes == 1

    def test_remove_all_edges_of_a_vertex(self):
        g = from_edge_list(3, [0, 1], [1, 2], [1.0, 1.0])
        g2, _ = apply_edges(g, remove=([0, 1], [1, 2]))
        validate(g2)
        assert g2.m == 0 and g2.n == 3

    def test_self_loops_silently_dropped(self):
        # self-loops are outside the graph model: filtered, not an error
        g = random_connected(10, 12, seed=0)
        g2, delta = apply_edges(g, add=([3], [3], [1.0]))
        assert g2 is g
        assert delta.empty and delta.requested_adds == 1

    def test_out_of_range_rejected(self):
        g = random_connected(10, 12, seed=0)
        with pytest.raises(ValueError):
            apply_edges(g, add=([3], [10], [1.0]))

    def test_mapped_vs_resident_parity(self, tmp_path):
        g = random_connected(200, 400, seed=5, weighted=True)
        gm = open_mapped(write_mapped(g, tmp_path / "g.csrdir"))
        add = ([7, 9, 100], [150, 151, 2], [3.5, 0.25, 9.0])
        es = g.edge_sources()
        rm = (es[:5], np.asarray(g.adjncy)[:5])
        r1, d1 = apply_edges(g, add=add, remove=rm)
        r2, d2 = apply_edges(gm, add=add, remove=rm)
        assert_same_graph(r1, r2)
        assert d1.summary() == d2.summary()

    def test_full_rebuild_cross_check(self):
        """apply_edges is byte-identical to from_edge_list on the
        mutated edge list, across a randomized batch."""
        rng = np.random.default_rng(17)
        g = random_connected(150, 400, seed=7, weighted=True)
        au = rng.integers(0, g.n, 25)
        av = rng.integers(0, g.n, 25)
        ok = au != av
        au, av = au[ok], av[ok]
        aw = rng.uniform(0.5, 6.0, len(au))
        eidx = rng.choice(g.m_directed, 30, replace=False)
        ru = g.edge_sources()[eidx]
        rv = np.asarray(g.adjncy)[eidx]
        g2, _ = apply_edges(g, add=(au, av, aw), remove=(ru, rv))
        validate(g2)

        ref = edge_set(g)
        for u, v in zip(ru, rv):
            ref.pop((int(u), int(v)), None)
            ref.pop((int(v), int(u)), None)
        for u, v, w in zip(au, av, aw):
            for key in ((int(u), int(v)), (int(v), int(u))):
                ref[key] = max(ref.get(key, 0.0), float(w))
        uu = [k[0] for k in ref if k[0] < k[1]]
        vv = [k[1] for k in ref if k[0] < k[1]]
        ww = [ref[(u, v)] for u, v in zip(uu, vv)]
        rebuilt = from_edge_list(g.n, uu, vv, ww, sum_duplicates=False,
                                 name=g.name)
        assert_same_graph(g2, rebuilt)

    def test_convenience_method(self):
        g = random_connected(20, 30, seed=4)
        via_method, d1 = g.apply_edges(add=([0], [15], [2.0]))
        via_fn, d2 = apply_edges(g, add=([0], [15], [2.0]))
        assert_same_graph(via_method, via_fn)
        assert d1.summary() == d2.summary()


class TestBudgetedKernelParity:
    """PR-8 budgeted twins: byte-identical under tiny windows."""

    def test_weighted_degrees_chunked(self):
        g = random_connected(400, 900, seed=11, weighted=True)
        ref = g.weighted_degrees().copy()
        g2 = CSRGraph(g.xadj, g.adjncy, g.ewgts, g.vwgts, name="twin")
        b = MemoryBudget(2048, min_window=32)
        with budget_mod.limit(b):
            got = g2.weighted_degrees()
        assert b.engaged == 1
        assert got.tobytes() == ref.tobytes()

    def test_compute_gains_chunked(self):
        g = random_connected(400, 900, seed=12, weighted=True)
        part = (np.arange(g.n) % 2).astype(np.int8)
        ref = compute_gains(g, part)
        b = MemoryBudget(2048, min_window=32)
        with budget_mod.limit(b):
            got = compute_gains(g, part)
        assert b.engaged == 1
        assert b.peak_planned <= b.resident_bytes
        assert got.tobytes() == ref.tobytes()

    def test_unmatched_heavy_neighbors_chunked(self):
        g = random_connected(400, 900, seed=13, weighted=True)
        m = np.full(g.n, UNMAPPED, dtype=VI)
        m[::3] = np.arange(0, g.n, 3)  # a third already matched
        queue = np.flatnonzero(m == UNMAPPED).astype(VI)
        s1, s2 = gpu_space(0), gpu_space(0)
        ref = unmatched_heavy_neighbors(g, m, queue, s1)
        b = MemoryBudget(2048, min_window=32)
        with budget_mod.limit(b):
            got = unmatched_heavy_neighbors(g, m, queue, s2)
        assert b.engaged == 1
        assert b.peak_planned <= b.resident_bytes
        assert got.tobytes() == ref.tobytes()
        assert s1.ledger.phase("mapping").as_dict() == s2.ledger.phase("mapping").as_dict()

    def test_compute_gains_chunked_hub_row(self):
        # a row larger than any window must stay whole and still match
        hub_d = np.arange(1, 301)
        g = from_edge_list(301, np.zeros(300, dtype=np.int64), hub_d,
                           np.linspace(0.5, 3.0, 300))
        part = (np.arange(301) % 2).astype(np.int8)
        ref = compute_gains(g, part)
        with budget_mod.limit(MemoryBudget(512, min_window=16)):
            got = compute_gains(g, part)
        assert got.tobytes() == ref.tobytes()
