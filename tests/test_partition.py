"""Partitioning: metrics, GGG, FM, spectral, multilevel, baselines."""

import numpy as np
import pytest

from repro.coarsen.multilevel import GraphHierarchy, coarsen_multilevel
from repro.csr import from_edge_list
from repro.generators import corpus
from repro.parallel import cpu_space, gpu_space
from repro.partition import (
    compute_gains,
    edge_cut,
    fiedler_power_iteration,
    fm_refine,
    greedy_graph_growing,
    imbalance,
    median_split,
    metis_like,
    mtmetis_like,
    multilevel_bisect,
    partition_weights,
    rebalance_exact,
    spectral_bisect,
    validate_partition,
)
from repro.partition.kway import kway_from_hierarchy
from repro.partition.multilevel import spectral_vector
from repro.partition.spectral import fiedler_dense

from tests.conftest import grid_graph, path_graph, random_connected, two_triangles


class TestMetrics:
    def test_edge_cut_known(self):
        g = two_triangles()
        part = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        assert edge_cut(g, part) == 1.0

    def test_edge_cut_weighted(self):
        g = from_edge_list(3, [0, 1], [1, 2], [5.0, 7.0])
        assert edge_cut(g, np.array([0, 0, 1])) == 7.0
        assert edge_cut(g, np.array([0, 1, 1])) == 5.0

    def test_partition_weights(self):
        g = from_edge_list(3, [0, 1], [1, 2], vwgts=[1.0, 2.0, 4.0])
        w = partition_weights(g, np.array([0, 1, 0]))
        assert list(w) == [5.0, 2.0]

    def test_imbalance(self):
        g = from_edge_list(4, [0, 1, 2], [1, 2, 3])
        assert imbalance(g, np.array([0, 0, 1, 1])) == 0.0
        assert imbalance(g, np.array([0, 0, 0, 1])) == pytest.approx(0.5)

    def test_validate(self):
        g = two_triangles()
        validate_partition(g, np.zeros(6, dtype=np.int8))
        with pytest.raises(ValueError):
            validate_partition(g, np.zeros(3, dtype=np.int8))
        with pytest.raises(ValueError):
            validate_partition(g, np.full(6, 3, dtype=np.int8))


class TestGGG:
    def test_balanced_on_grid(self, grid6):
        part = greedy_graph_growing(grid6, gpu_space(0))
        assert imbalance(grid6, part) <= 2 / 18  # within one vertex of half

    def test_two_triangles_optimal(self):
        g = two_triangles()
        part = greedy_graph_growing(g, gpu_space(1), trials=8)
        assert edge_cut(g, part) == 1.0

    def test_single_vertex(self):
        g = from_edge_list(1, [], [])
        assert list(greedy_graph_growing(g, gpu_space(0))) == [0]


class TestGains:
    def test_gain_formula_bruteforce(self, rc100):
        rng = np.random.default_rng(2)
        part = (rng.random(rc100.n) < 0.5).astype(np.int8)
        gains = compute_gains(rc100, part)
        base = edge_cut(rc100, part)
        for v in range(0, rc100.n, 7):
            flipped = part.copy()
            flipped[v] = 1 - flipped[v]
            assert edge_cut(rc100, flipped) == pytest.approx(base - gains[v])


class TestFM:
    def test_improves_noisy_partition(self, grid6):
        rng = np.random.default_rng(0)
        # a balanced but random partition: high cut
        part = np.zeros(grid6.n, dtype=np.int8)
        part[rng.permutation(grid6.n)[: grid6.n // 2]] = 1
        before = edge_cut(grid6, part)
        out = fm_refine(grid6, part, gpu_space(0))
        after = edge_cut(grid6, out)
        assert after < before
        assert imbalance(grid6, out) <= 2 / grid6.n + 1e-9

    def test_never_worsens_balanced_cut(self):
        for seed in range(4):
            g = random_connected(100, 160, seed=seed)
            part = (np.arange(g.n) % 2).astype(np.int8)
            before = edge_cut(g, part)
            out = fm_refine(g, part, gpu_space(seed))
            assert edge_cut(g, out) <= before + 1e-9

    def test_input_not_mutated(self, grid6):
        part = (np.arange(grid6.n) % 2).astype(np.int8)
        copy = part.copy()
        fm_refine(grid6, part, gpu_space(0))
        assert np.array_equal(part, copy)

    def test_walks_imbalanced_to_balance(self, grid6):
        part = np.zeros(grid6.n, dtype=np.int8)  # everything on one side
        part[:3] = 1
        out = fm_refine(grid6, part, gpu_space(0))
        assert imbalance(grid6, out) < imbalance(grid6, part)

    def test_empty_graph(self):
        g = from_edge_list(0, [], [])
        out = fm_refine(g, np.zeros(0, dtype=np.int8), gpu_space(0))
        assert len(out) == 0

    def test_respects_vertex_weights(self):
        # heavy vertex cannot cross if it would wreck balance
        g = from_edge_list(4, [0, 1, 2], [1, 2, 3], vwgts=[10.0, 1.0, 1.0, 10.0])
        part = np.array([0, 0, 1, 1], dtype=np.int8)
        out = fm_refine(g, part, gpu_space(0))
        assert abs(partition_weights(g, out)[0] - 11.0) <= 2.0


class TestRebalance:
    def test_exact_balance_unit_weights(self, grid6):
        part = np.zeros(grid6.n, dtype=np.int8)
        part[:10] = 1  # 10 vs 26
        out = rebalance_exact(grid6, part, gpu_space(0))
        w = partition_weights(grid6, out)
        assert w[0] == w[1]

    def test_noop_when_balanced(self, grid6):
        part = (np.arange(grid6.n) % 2).astype(np.int8)
        out = rebalance_exact(grid6, part, gpu_space(0))
        assert np.array_equal(out, part)

    def test_odd_total_stops(self):
        g = path_graph(5)
        part = np.zeros(5, dtype=np.int8)
        out = rebalance_exact(g, part, gpu_space(0))
        # perfect balance impossible with odd unit total; must terminate
        assert abs(partition_weights(g, out)[0] - partition_weights(g, out)[1]) >= 1


class TestSpectral:
    def test_fiedler_of_path_is_monotone(self):
        g = path_graph(20)
        x, _ = fiedler_power_iteration(g, gpu_space(0), max_iters=3000, tol=1e-14)
        d = np.diff(x)
        assert np.all(d > 0) or np.all(d < 0)

    def test_dense_fiedler_matches_power(self):
        g = path_graph(16)
        xd = fiedler_dense(g, gpu_space(0))
        xp, _ = fiedler_power_iteration(g, gpu_space(0), max_iters=5000, tol=1e-14)
        align = np.sign(np.dot(xd, xp))
        assert np.allclose(xd * align, xp, atol=1e-3)

    def test_median_split_balance(self):
        x = np.array([0.5, -1.0, 2.0, 0.0])
        part = median_split(x, np.ones(4))
        assert partition_weights(from_edge_list(4, [0], [1]), part)[0] == 2

    def test_median_split_weighted(self):
        x = np.array([1.0, 2.0, 3.0])
        part = median_split(x, np.array([1.0, 1.0, 2.0]))
        assert part[2] == 1  # the heavy top vertex alone balances

    def test_spectral_bisect_two_triangles(self):
        g = two_triangles()
        part, x, iters = spectral_bisect(g, gpu_space(0), max_iters=2000)
        assert edge_cut(g, part) == 1.0

    def test_single_vertex(self):
        g = from_edge_list(1, [], [])
        x, iters = fiedler_power_iteration(g, gpu_space(0))
        assert len(x) == 1


class TestMultilevelBisect:
    @pytest.mark.parametrize("refinement", ["fm", "spectral"])
    def test_grid_quality(self, refinement):
        g = grid_graph(16, 16)
        res = multilevel_bisect(g, gpu_space(3), refinement=refinement)
        validate_partition(g, res.part)
        assert res.stats["imbalance"] == 0.0
        assert res.cut <= 2.0 * 16  # within 2x of the optimal straight cut

    def test_fm_beats_or_ties_spectral_on_grid(self):
        g = grid_graph(16, 16)
        fm = min(multilevel_bisect(g, gpu_space(s), refinement="fm").cut for s in range(3))
        sp = min(
            multilevel_bisect(g, gpu_space(s), refinement="spectral").cut for s in range(3)
        )
        assert fm <= sp * 1.5

    def test_unknown_refinement(self, grid6):
        with pytest.raises(ValueError, match="refinement"):
            multilevel_bisect(grid6, gpu_space(0), refinement="magic")

    def test_result_fields(self, grid6):
        res = multilevel_bisect(grid6, gpu_space(0))
        assert res.levels == res.hierarchy.levels
        assert res.stats["coarsener"] == "hec"
        assert res.cut == edge_cut(grid6, res.part)

    @pytest.mark.parametrize("coarsener", ["hec", "hem", "mtmetis", "mis2"])
    def test_coarsener_choices(self, coarsener):
        g = random_connected(200, 320, seed=2)
        res = multilevel_bisect(g, gpu_space(1), coarsener=coarsener)
        validate_partition(g, res.part)
        assert res.stats["imbalance"] <= 1.0 / (g.n // 2)


@pytest.fixture(scope="module")
def deep():
    # stops above the dense threshold (569 coarsest vertices), so the
    # coarsest solve draws its start vector from the RNG
    g, _ = corpus.load("delaunay24", 0)
    h = coarsen_multilevel(g, gpu_space(0), cutoff=600)
    assert h.coarsest.n > 512
    return h


class TestEmbeddingReuse:
    """``spectral_vector`` keeps one embedding per hierarchy: the first
    read computes it, the second records it, later reads replay it."""

    @staticmethod
    def _fresh(h):
        return GraphHierarchy(h.graphs, h.mappings, h.stats)

    @staticmethod
    def _read(h, seed=7):
        space = gpu_space(seed)
        space.rng.standard_normal(3)  # enter mid-stream, as after a build
        entry = space.rng.bit_generator.state
        x, iters = spectral_vector(h, space)
        ledger = {p: space.ledger.phase(p).as_dict() for p in space.ledger.phases()}
        return x, iters, space.rng.bit_generator.state, ledger, entry

    def test_replay_equals_recomputation(self, deep):
        want_x, want_iters, want_rng, want_ledger, entry = self._read(self._fresh(deep))
        assert want_rng != entry  # the embedding really drew
        h = self._fresh(deep)
        reads = [self._read(h) for _ in range(3)]  # plain, recorded, replayed
        for x, iters, rng, ledger, _ in reads:
            assert x.tobytes() == want_x.tobytes()
            assert iters == want_iters
            assert rng == want_rng
            assert ledger == want_ledger
        assert not reads[2][0].flags.writeable
        ((_, kept),) = h.kept.values()
        assert kept is not None

    def test_one_read_keeps_no_embedding(self, deep):
        h = self._fresh(deep)
        self._read(h)
        ((_, kept),) = h.kept.values()
        assert kept is None

    def test_other_entry_state_recomputes(self, deep):
        h = self._fresh(deep)
        self._read(h)
        self._read(h)  # recorded at seed 7's entry state
        x, iters, rng, ledger, _ = self._read(h, seed=8)
        want = self._read(self._fresh(deep), seed=8)
        assert x.tobytes() == want[0].tobytes()
        assert (iters, rng, ledger) == want[1:4]


def _bisect_read(refinement):
    def read(h, space):
        res = multilevel_bisect(h.graphs[0], space, refinement=refinement, hierarchy=h)
        return res.part, {"cut": res.cut, **res.stats}
    return read


def _kway_read(k):
    def read(h, space):
        return kway_from_hierarchy(h.graphs[0], h, k, space)
    return read


#: every refined read a hierarchy keeps besides the embedding:
#: ``read(h, space) -> (part, stats)``
KEPT_READS = {
    "bisect-fm": _bisect_read("fm"),
    "bisect-spectral": _bisect_read("spectral"),
    "kway-3": _kway_read(3),
    "kway-8": _kway_read(8),
    "kway-64": _kway_read(64),
}


class TestKeptReads:
    """Bisections and k-way reads are kept like the embedding: computed,
    recorded, then replayed, each read with the same part, stats, RNG
    state and ledger phase totals as a computed one."""

    @staticmethod
    def _read(h, read, seed=7):
        space = gpu_space(seed)
        space.rng.standard_normal(3)  # enter mid-stream, as after a build
        part, stats = KEPT_READS[read](h, space)
        ledger = {p: space.ledger.phase(p).as_dict() for p in space.ledger.phases()}
        return part, stats, space.rng.bit_generator.state, ledger

    @pytest.mark.parametrize("read", sorted(KEPT_READS))
    def test_replay_equals_recomputation(self, deep, read, kept_computes):
        want_part, want_stats, want_rng, want_ledger = self._read(
            TestEmbeddingReuse._fresh(deep), read
        )
        h = TestEmbeddingReuse._fresh(deep)
        del kept_computes[:]
        for i in range(4):  # plain, recorded, replayed twice
            part, stats, rng, ledger = self._read(h, read)
            assert part.tobytes() == want_part.tobytes()
            assert stats == want_stats
            assert rng == want_rng
            assert ledger == want_ledger
            if i >= 1:
                assert not part.flags.writeable
            # iteration counts are copies: editing them keeps the answer
            for value in stats.values():
                if isinstance(value, list):
                    value.append(-1)
        assert len(kept_computes) == 2
        # the read, plus the embedding it recorded or replayed inside
        recorded = [key for key, (_, rec) in h.kept.items() if rec is not None]
        assert len(recorded) == (1 if read == "bisect-fm" else 2), recorded

    @pytest.mark.parametrize("read", ["bisect-fm", "kway-8"])
    def test_other_entry_state_recomputes(self, deep, read):
        h = TestEmbeddingReuse._fresh(deep)
        self._read(h, read)
        self._read(h, read)  # recorded at seed 7's entry state
        part, *rest = self._read(h, read, seed=8)
        want = self._read(TestEmbeddingReuse._fresh(deep), read, seed=8)
        assert part.tobytes() == want[0].tobytes()
        assert rest == list(want[1:])

    def test_kept_reads_are_bounded(self):
        """Reading k = 2…64 twice each keeps at most MAX_KEPT_READS reads,
        the least recently used dropped: the last k-way reads and the
        embedding every one of them replays."""
        from repro.partition.multilevel import MAX_KEPT_READS

        g = random_connected(400, 700, seed=5)
        h = coarsen_multilevel(g, gpu_space(0))
        for k in range(2, 65):
            for _ in range(2):
                space = gpu_space(0)
                if k == 2:
                    multilevel_bisect(g, space, hierarchy=h)
                else:
                    kway_from_hierarchy(g, h, k, space)
                assert len(h.kept) <= MAX_KEPT_READS
        kept = {key: rec for key, (_, rec) in h.kept.items()}
        assert len(kept) == MAX_KEPT_READS
        assert all(rec is not None for rec in kept.values())
        machine = gpu_space(0).machine.name
        assert set(kept) == {machine} | {
            (machine, "kway", k) for k in range(66 - MAX_KEPT_READS, 65)
        }


class TestBaselines:
    def test_metis_like(self, grid6):
        res = metis_like(grid6, seed=1)
        validate_partition(grid6, res.part)
        assert "sim_seconds" in res.stats
        assert res.stats["sim_seconds"] > 0

    def test_mtmetis_like(self, grid6):
        res = mtmetis_like(grid6, seed=1)
        validate_partition(grid6, res.part)
        assert res.stats["coarsener"] == "mtmetis"
