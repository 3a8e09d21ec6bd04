"""Tile-parallel kernel engine: determinism, composition, clamping.

The contract under test is the one the serial repo has enforced since
PR 1, extended *inside* a single run: tile boundaries depend only on
the graph and the tile-size constant (never the thread count), partial
results reduce in tile order, and ledger charges stay outside the tile
loop — so results, ledger totals, and trace rollups are byte-identical
to serial at any ``--threads N``, including under a memory budget and
composed with a ``--jobs`` worker pool.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.bench.harness import run_coarsening, run_partition, space_for
from repro.coarsen.hec import heavy_neighbors, hec_parallel
from repro.coarsen.hem import unmatched_heavy_neighbors
from repro.construct import construct_sort, get_constructor, is_skewed
from repro.csr import CSRGraph
from repro.generators.kron import rmat
from repro.parallel import tiles
from repro.parallel.primitives import stable_key_sort
from repro.parallel.tiles import (
    DEFAULT_TILE_ENTRIES,
    TileEngine,
    clamp_threads,
    parallel_sort,
    resolve_threads,
)
from repro.partition.applications import spectral_embedding
from repro.partition.fm import compute_gains
from repro.sparse.spmv import spmm, spmv
from repro.storage import budget as budget_mod
from repro.storage import chunked, mapped
from repro.storage.budget import MemoryBudget
from repro.types import UNMAPPED, VI

from tests.conftest import per_vertex_centric


@pytest.fixture(scope="module")
def big():
    """RMAT graph whose directed edge count clears the engage floor."""
    g = rmat(12, 16, seed=1, name="tiles-rmat12")
    assert g.m_directed > DEFAULT_TILE_ENTRIES
    return g


@pytest.fixture(autouse=True)
def _no_global_engine():
    """Every test starts and ends with no process-global engine."""
    tiles.configure(1)
    yield
    tiles.configure(1)


def ledger_dict(space) -> dict:
    return {p: space.ledger.phase(p).as_dict() for p in space.ledger.phases()}


# --------------------------------------------------------------- boundaries


class TestTileBoundaries:
    def test_boundaries_independent_of_thread_count(self, big):
        for te in (1, 97, 4096, DEFAULT_TILE_ENTRIES):
            tiles_2 = TileEngine(2, te).row_tiles(big.xadj)
            tiles_8 = TileEngine(8, te).row_tiles(big.xadj)
            assert tiles_2 == tiles_8

    def test_row_tiles_cover_and_align(self, big):
        tl = TileEngine(4, 4096).row_tiles(big.xadj)
        assert tl[0][0] == 0 and tl[-1][1] == big.n
        for (r0, r1, e0, e1), (n0, _n1, ne0, _ne1) in zip(tl, tl[1:]):
            assert r1 == n0 and e1 == ne0
        for r0, r1, e0, e1 in tl:
            assert e0 == big.xadj[r0] and e1 == big.xadj[r1]

    def test_tile_larger_than_graph_is_one_tile(self, big):
        eng = TileEngine(4, big.m_directed + 10)
        assert len(eng.row_tiles(big.xadj)) == 1

    def test_engage_floor(self):
        assert not TileEngine(1).engaged(10**9)
        assert not TileEngine(4).engaged(DEFAULT_TILE_ENTRIES)
        assert TileEngine(4).engaged(DEFAULT_TILE_ENTRIES + 1)
        # a tiny tile size never lowers the floor (dispatch overhead)
        assert not TileEngine(4, 1).engaged(DEFAULT_TILE_ENTRIES)


# ------------------------------------------------------------- installation


class TestInstallation:
    def test_default_is_serial(self):
        assert tiles.current() is None

    def test_limit_installs_and_restores(self):
        with tiles.limit(3) as eng:
            assert tiles.current() is eng and eng.threads == 3
        assert tiles.current() is None

    def test_limit_none_is_noop(self):
        with tiles.limit(None) as eng:
            assert eng is None and tiles.current() is None

    def test_limit_wins_over_configure(self):
        glob = tiles.configure(2)
        assert tiles.current() is glob
        with tiles.limit(TileEngine(4)) as eng:
            assert tiles.current() is eng
        assert tiles.current() is glob
        tiles.configure(1)
        assert tiles.current() is None

    def test_tile_workers_see_no_engine(self):
        with tiles.limit(TileEngine(2, 1)) as eng:
            seen = eng.map_tiles(lambda i0, i1: tiles.current(), [(0, 1), (1, 2)])
        assert seen == [None, None]

    def test_map_tiles_returns_submission_order(self):
        import time

        eng = TileEngine(4, 1)
        # later tiles finish first; the result list must not care
        out = eng.map_tiles(
            lambda i, delay: (time.sleep(delay), i)[1],
            [(i, (3 - i) * 0.01) for i in range(4)],
        )
        assert out == [0, 1, 2, 3]
        eng.close()

    def test_single_tile_runs_inline(self):
        eng = TileEngine(4)
        assert eng.map_tiles(lambda a, b: a + b, [(1, 2)]) == [3]
        assert eng._pool is None  # never spun up a pool for one tile
        assert eng.snapshot()["tiled_kernels"] == 1

    def test_executor_survives_fork_by_rebuilding(self):
        eng = TileEngine(2, 1)
        eng.map_tiles(lambda a, b: a, [(0, 0), (1, 1)])
        first = eng._pool
        assert first is not None
        eng._pool_pid = -1  # what a forked child would observe
        assert eng._executor() is not first
        eng.close()


# --------------------------------------------------------- resolve / clamp


class TestResolveClamp:
    def test_resolve_default(self):
        assert resolve_threads(None, env={}) == 1

    def test_resolve_env(self):
        assert resolve_threads(None, env={"REPRO_THREADS": "4"}) == 4
        assert resolve_threads(None, env={"REPRO_THREADS": "junk"}) == 1

    def test_explicit_beats_env(self):
        assert resolve_threads(2, env={"REPRO_THREADS": "8"}) == 2

    def test_zero_means_all_cores(self):
        got = resolve_threads(0, env={})
        assert got >= 1
        assert got <= (os.cpu_count() or 1)

    def test_negative_clamps_to_one(self):
        assert resolve_threads(-3, env={}) == 1

    def test_clamp_threads(self):
        cores = tiles.usable_cores()
        assert clamp_threads(8, 1) == 8  # no pool: nothing to share with
        assert clamp_threads(8, 2) == max(1, min(8, cores // 2))
        assert clamp_threads(8, 10 * cores) == 1  # never below 1

    def test_cli_jobs_clamped_to_cores(self):
        from argparse import Namespace

        from repro.bench.report import _resolve_jobs

        got = _resolve_jobs(Namespace(jobs=10**6))
        assert got <= max(1, os.cpu_count() or 1)

    def test_cpuset_smaller_than_host(self, monkeypatch):
        """Caps follow the affinity mask, not the host's core count."""
        from argparse import Namespace

        from repro.bench.report import _resolve_jobs

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert clamp_threads(4, 2) == 1
        assert _resolve_jobs(Namespace(jobs=8)) == 2


# ------------------------------------------------------- row-window driver


class TestRowWindowMap:
    """``row_window_map`` is the one place a kernel's policy is chosen."""

    def test_global_arm_is_one_call(self, big):
        calls = []

        def body(*window):
            calls.append(window)
            return len(calls)

        assert tiles.row_window_map(big.xadj, 8, body) == [1]
        assert calls == [(0, big.n, 0, big.m_directed)]

    def test_budget_arm_yields_each_window_before_the_next(self, big, monkeypatch):
        b = MemoryBudget(1 << 16)
        events = []
        monkeypatch.setattr(b, "note_engaged", lambda: events.append("engaged"))
        monkeypatch.setattr(b, "note_window", lambda e, bpe: events.append(("note", e)))
        monkeypatch.setattr(mapped, "advise_dontneed",
                            lambda g: events.append(("advise", g.name)))

        def body(r0, r1, e0, e1):
            events.append(("run", r0))
            return r0

        eng = TileEngine(4, 4096)
        with budget_mod.limit(b), tiles.limit(eng):
            for r0 in tiles.row_window_map(big.xadj, 8, body, big):
                events.append(("yield", r0))
        windows = list(chunked.row_windows(big.xadj, b.window_entries(8)))
        assert len(windows) > 1
        want = ["engaged"]
        for r0, _r1, e0, e1 in windows:
            want += [("note", e1 - e0), ("run", r0), ("advise", big.name), ("yield", r0)]
        assert events == want
        assert eng.kernels == 0  # an engaged budget wins over tiles

    def test_tile_arm_returns_tile_order(self, big):
        import time

        eng = TileEngine(4, 4096)

        def body(r0, r1, e0, e1):
            if r0 == 0:
                time.sleep(0.01)  # the first tile finishes last
            return (r0, r1, e0, e1)

        with tiles.limit(eng):
            got = tiles.row_window_map(big.xadj, 8, body)
        eng.close()
        assert got == eng.row_tiles(big.xadj)
        assert len(got) > 1 and eng.kernels == 1


# ------------------------------------------------------------ parallel sort


class TestParallelSort:
    @pytest.mark.parametrize("n", [0, 1, 5, 1000, 300_000])
    @pytest.mark.parametrize("te", [97, 65_536])
    def test_matches_numpy_sort(self, n, te):
        rng = np.random.default_rng(n + te)
        a = rng.integers(-(1 << 40), 1 << 40, size=n, dtype=np.int64)
        want = np.sort(a)
        eng = TileEngine(4, te)
        got = parallel_sort(a.copy(), eng)
        eng.close()
        assert got.tobytes() == want.tobytes()

    def test_adversarial_tile_sizes(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 1 << 20, size=1000, dtype=np.int64)
        want = np.sort(a)
        for te in (1, 7, 97, 1001, 2000):
            eng = TileEngine(3, te)
            assert parallel_sort(a.copy(), eng).tobytes() == want.tobytes()
            eng.close()

    @pytest.mark.parametrize(
        "case", ["sorted", "reversed", "equal", "duplicates"]
    )
    def test_degenerate_inputs(self, case):
        n = 10_000
        a = {
            "sorted": np.arange(n, dtype=np.int64),
            "reversed": np.arange(n, dtype=np.int64)[::-1].copy(),
            "equal": np.zeros(n, dtype=np.int64),
            "duplicates": np.tile(np.arange(17, dtype=np.int64), n // 17 + 1)[:n],
        }[case]
        eng = TileEngine(4, 512)
        assert parallel_sort(a.copy(), eng).tobytes() == np.sort(a).tobytes()
        eng.close()

    def test_serial_fallback_below_two_tiles(self):
        a = np.array([3, 1, 2], dtype=np.int64)
        eng = TileEngine(4, 65_536)
        got = parallel_sort(a, eng)
        assert got.tobytes() == np.array([1, 2, 3], dtype=np.int64).tobytes()
        assert eng._pool is None  # fell back without touching the pool

    def test_stable_key_sort_with_engine(self):
        rng = np.random.default_rng(11)
        key = rng.integers(0, 50, size=100_000).astype(np.int64)
        eng = TileEngine(4, 4096)
        s_order, s_sorted = stable_key_sort(key.copy(), 50)
        t_order, t_sorted = stable_key_sort(key.copy(), 50, eng=eng)
        eng.close()
        assert s_order.tobytes() == t_order.tobytes()
        assert s_sorted.tobytes() == t_sorted.tobytes()
        assert s_order.tobytes() == np.argsort(key, kind="stable").tobytes()


# ------------------------------------------------------------ kernel parity


TILE_SIZES = [97, 4096, DEFAULT_TILE_ENTRIES, 10**7]


class TestKernelParity:
    """Every tiled twin must reproduce its serial kernel byte for byte,
    at adversarial tile sizes (prime, power-of-two, larger than m)."""

    @pytest.mark.parametrize("te", [1] + TILE_SIZES)
    def test_spmv(self, big, te):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(big.n)
        want = spmv(big, x)
        with tiles.limit(TileEngine(4, te)) as eng:
            got = spmv(big, x)
            engaged = eng.kernels
        assert got.tobytes() == want.tobytes()
        if te <= big.m_directed:
            assert engaged == 1

    @pytest.mark.parametrize("te", TILE_SIZES)
    def test_spmm(self, big, te):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((big.n, 4))
        want = spmm(big, X)
        with tiles.limit(TileEngine(4, te)):
            got = spmm(big, X)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("te", [1] + TILE_SIZES)
    def test_heavy_neighbors(self, big, te):
        want = heavy_neighbors(big)
        with tiles.limit(TileEngine(4, te)):
            got = heavy_neighbors(big)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("te", TILE_SIZES)
    def test_unmatched_heavy_neighbors(self, big, te):
        m = np.full(big.n, UNMAPPED, dtype=VI)
        m[:: 3] = np.arange(0, big.n, 3, dtype=VI)  # a third already matched
        queue = np.flatnonzero(m == UNMAPPED).astype(VI)
        s1, s2 = space_for("gpu"), space_for("gpu")
        want = unmatched_heavy_neighbors(big, m, queue, s1)
        with tiles.limit(TileEngine(4, te)):
            got = unmatched_heavy_neighbors(big, m, queue, s2)
        assert got.tobytes() == want.tobytes()
        assert ledger_dict(s1) == ledger_dict(s2)

    @pytest.mark.parametrize("te", TILE_SIZES)
    def test_weighted_degrees(self, big, te):
        rng = np.random.default_rng(4)
        w = rng.uniform(0.5, 3.0, big.m_directed)
        want = CSRGraph(big.xadj, big.adjncy, w, big.vwgts).weighted_degrees()
        with tiles.limit(TileEngine(4, te)) as eng:
            got = CSRGraph(big.xadj, big.adjncy, w, big.vwgts).weighted_degrees()
        assert got.tobytes() == want.tobytes()
        if te <= big.m_directed:
            assert eng.kernels == 1

    @pytest.mark.parametrize("te", TILE_SIZES)
    def test_compute_gains(self, big, te):
        rng = np.random.default_rng(3)
        part = rng.integers(0, 2, size=big.n).astype(np.int8)
        want = compute_gains(big, part)
        with tiles.limit(TileEngine(4, te)):
            got = compute_gains(big, part)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("te,cname", per_vertex_centric(
        (str(te), (te,)) for te in TILE_SIZES
    ))
    def test_construct_sort(self, big, te, cname, monkeypatch):
        """``big`` (skewed, unit weights) and its first coarse level
        (skewed, weighted), so the count pass, its carried windows and
        both keep-side sweeps run on tiles.  The coarse level sits below
        the engage floor; the floor is lowered so that every tile size
        under ``m`` engages on it too."""
        s0 = space_for("gpu")
        level1 = construct_sort(big, hec_parallel(big, s0), s0)
        assert is_skewed(level1) and not level1.has_unit_ewgts()
        monkeypatch.setattr(tiles, "_ENGAGE_ENTRIES", 0)
        construct = get_constructor(cname)
        for g in (big, level1):
            s1, s2 = space_for("gpu"), space_for("gpu")
            mapping = hec_parallel(g, s1)
            want = construct(g, mapping, s1)
            with tiles.limit(TileEngine(4, te)) as eng:
                mapping2 = hec_parallel(g, s2)
                k0 = eng.kernels
                got = construct(g, mapping2, s2)
            # the constructor itself runs on tiles, not only the mapping
            assert (eng.kernels > k0) == (eng.kernels > 0) == (te < g.m_directed)
            assert mapping2.m.tobytes() == mapping.m.tobytes()
            for a, b in (
                (want.xadj, got.xadj), (want.adjncy, got.adjncy),
                (want.ewgts, got.ewgts), (want.vwgts, got.vwgts),
            ):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            assert ledger_dict(s1) == ledger_dict(s2)


# ----------------------------------------------------- full-run invariance


def _strip(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in ("trace", "hierarchy", "result")}


class TestRunInvariance:
    """Whole harness runs are invariant in the thread count: results,
    ledger-derived trace rollups, everything."""

    @pytest.mark.parametrize("threads", [2, 8])
    def test_coarsen_run(self, big, threads):
        base = run_coarsening(big, None, oom=False)
        with tiles.limit(threads):
            got = run_coarsening(big, None, oom=False)
        assert _strip(got) == _strip(base)
        assert got["trace"].to_dict() == base["trace"].to_dict()

    @pytest.mark.parametrize("threads", [2, 8])
    def test_partition_run(self, big, threads):
        base = run_partition(big, None, refinement="fm", oom=False)
        with tiles.limit(threads):
            got = run_partition(big, None, refinement="fm", oom=False)
        assert _strip(got) == _strip(base)
        assert got["trace"].to_dict() == base["trace"].to_dict()
        assert got["result"].part.tobytes() == base["result"].part.tobytes()

    def test_hem_coarsen_run(self, big):
        base = run_coarsening(big, None, coarsener="hem", oom=False)
        with tiles.limit(8):
            got = run_coarsening(big, None, coarsener="hem", oom=False)
        assert _strip(got) == _strip(base)
        assert got["trace"].to_dict() == base["trace"].to_dict()

    def test_budget_composition(self, big):
        """Budget precedence: budgeted twins run unthreaded, and adding
        threads on top of a budget changes nothing."""
        with budget_mod.limit(MemoryBudget(1 << 20)):
            base = run_coarsening(big, None, oom=False)
        with budget_mod.limit(MemoryBudget(1 << 20)), tiles.limit(8):
            got = run_coarsening(big, None, oom=False)
        assert _strip(got) == _strip(base)
        assert got["trace"].to_dict() == base["trace"].to_dict()

    def test_adversarial_tile_engine_whole_run(self, big):
        base = run_partition(big, None, refinement="spectral", oom=False)
        with tiles.limit(TileEngine(3, 997)):
            got = run_partition(big, None, refinement="spectral", oom=False)
        assert _strip(got) == _strip(base)
        assert got["trace"].to_dict() == base["trace"].to_dict()


class TestSpectralEmbedding:
    def test_serial_tiled_budgeted_identical(self, big):
        s0, s1, s2 = (space_for("gpu") for _ in range(3))
        base = spectral_embedding(big, s0, k=3)
        with tiles.limit(TileEngine(4, 997)):
            tiled = spectral_embedding(big, s1, k=3)
        with budget_mod.limit(MemoryBudget(1 << 16)):
            budgeted = spectral_embedding(big, s2, k=3)
        assert tiled.tobytes() == base.tobytes()
        assert budgeted.tobytes() == base.tobytes()
        assert ledger_dict(s1) == ledger_dict(s0)
        assert ledger_dict(s2) == ledger_dict(s0)

    def test_k_clamped_on_tiny_graph(self):
        from tests.conftest import two_triangles

        X = spectral_embedding(two_triangles(), space_for("gpu"), k=64)
        assert X.shape == (6, 5)


# -------------------------------------------------------- pool composition


class TestPoolComposition:
    def test_worker_init_none_leaves_engine(self):
        from repro.parallel.pool import _worker_init

        eng = tiles.configure(2)
        _worker_init(None)
        assert tiles.current() is eng

    def test_worker_init_configures_and_exports(self):
        from repro.parallel.pool import _worker_init

        old = os.environ.get("REPRO_THREADS")
        try:
            _worker_init(2)
            got = tiles.current()
            assert got is not None and got.threads == 2
            assert os.environ["REPRO_THREADS"] == "2"
        finally:
            if old is None:
                os.environ.pop("REPRO_THREADS", None)
            else:
                os.environ["REPRO_THREADS"] = old
            tiles.configure(1)

    def test_run_experiments_threads_parity(self, big):
        """The session summary path with threads composes with jobs=1."""
        from repro.parallel.pool import ExperimentTask
        from repro.parallel.session import run_session

        tasks = [ExperimentTask(kind="coarsen", graph="ppa", machine="gpu",
                                coarsener="hec", constructor="sort",
                                seed=0, oom=False)]
        base = run_session(tasks, jobs=1, retries=0)
        threaded = run_session(tasks, jobs=1, retries=0, threads=2)
        assert threaded.results == base.results
        assert threaded.summary.get("threads") == 2
        assert "tiles" in threaded.summary


# ----------------------------------------------------------------- speedup


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup needs >= 4 physical cores")
def test_speedup_at_four_threads():
    """The acceptance bound: >= 1.8x on the edge-volume kernels."""
    import time

    g = rmat(15, 16, seed=2, name="tiles-speedup")
    rng = np.random.default_rng(0)
    X = rng.standard_normal((g.n, 8))

    def best_of(k, fn):
        times = []
        for _ in range(k):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    def work():
        spmm(g, X)
        heavy_neighbors(g)

    serial = best_of(5, work)
    with tiles.limit(4):
        threaded = best_of(5, work)
    assert serial / threaded >= 1.8, (serial, threaded)


# ------------------------------------------------------------ scale schema


class TestRssSchema:
    def test_rss_key_threads_suffix(self):
        from repro.bench.scale import rss_key

        assert rss_key("gpu", "hec", "sort", 0, "x10") == "gpu:hec:sort:s0:x10"
        assert rss_key("gpu", "hec", "sort", 0, "x100", 4) == "gpu:hec:sort:s0:x100:t4"

    def test_wallclock_key_suffix_order(self):
        from repro.bench.report import wallclock_key

        assert wallclock_key("gpu", "hec", "sort", 0, threads=2) == "gpu:hec:sort:s0:t2"
        assert wallclock_key("gpu", "hec", "sort", 0, jobs=2, threads=4) \
            == "gpu:hec:sort:s0:j2:t4"
