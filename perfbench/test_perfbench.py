"""The benchmark's own tests.

    python -m pytest perfbench -q

Covers the contract pieces the numbers rest on: inputs are pure
functions of the seed, nearest-rank percentiles and the 10-beyond rule,
output checks that catch a planted wrong value, and unchanged outputs
with the trace wrappers installed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import gen  # noqa: E402

common.use_program()


def _small_graph():
    from repro.csr import from_edge_list

    rng = np.random.default_rng(3)
    n = 200
    src = np.concatenate([np.arange(n), rng.integers(0, n, 300)])
    dst = np.concatenate([(np.arange(n) + 1) % n, rng.integers(0, n, 300)])
    return from_edge_list(n, src, dst, name="small")


# ------------------------------------------------------------- generators


def test_corpus_order_is_pure_and_complete():
    names = [f"g{i}" for i in range(20)]
    a = gen.corpus_order(7, 3, names)
    assert a == gen.corpus_order(7, 3, names)
    assert sorted(a) == sorted((c, n) for c in gen.COARSENERS for n in names)
    # coarsener blocks stay contiguous so each has a per-pass total
    assert len({c for c, _ in a[:20]}) == 1
    assert any(gen.corpus_order(s, 3, names) != a for s in range(8, 12))


def test_sweep_cycle_is_pure_rotation_of_the_template():
    base = gen.sweep_requests()
    assert len(base) == len(gen.SWEEP_GRAPHS) * len(gen.SWEEP_TEMPLATE)
    for seed in range(6):
        cyc = gen.sweep_cycle(seed)
        assert cyc == gen.sweep_cycle(seed)
        k = base.index(cyc[0])
        assert cyc == base[k:] + base[:k]
    assert len({gen.request_key(r) for r in base}) == len(base)


def test_update_episodes_are_pure_functions_of_seed_and_tenant():
    g = _small_graph()
    assert gen.episode_order(5) == gen.episode_order(5)
    assert sorted(gen.episode_order(5)) == sorted(gen.EPISODE_POOL)
    a = gen.episode_requests(g, 3)
    assert a == gen.episode_requests(g, 3)
    assert a != gen.episode_requests(g, 4)
    ops = [r["op"] for r in a]
    assert ops[0::2] == ["update_graph"] * gen.EPISODE_PAIRS
    assert all(op != "update_graph" for op in ops[1::2])
    removes = [tuple(e) for r in a[0::2] for e in r["remove"]]
    assert len(removes) == len(set(removes))  # without replacement
    for r in a[0::2]:
        assert all(u != v and 0.5 <= w <= 4.0 for u, v, w in r["add"])


# ------------------------------------------------------------- percentiles


def test_nearest_rank_percentiles_on_tiny_samples():
    assert common.percentile([5.0], 50) == 5.0
    assert common.percentile([5.0], 90) == 5.0
    assert common.percentile([4, 1, 3, 2], 50) == 2
    assert common.percentile([4, 1, 3, 2], 90) == 4
    assert common.percentile(list(range(1, 11)), 90) == 9
    with pytest.raises(ValueError):
        common.percentile([], 50)


def test_ten_beyond_rule():
    assert common.beyond(100, 90) == 10
    assert common.beyond(99, 90) == 9
    assert common.min_samples(90) == 100
    assert common.min_samples(50) == 20
    assert common.pct_entry(list(range(100)), 90)["ok"]
    assert not common.pct_entry(list(range(99)), 90)["ok"]
    assert not common.pct_entry(list(range(19)), 50)["ok"]


# ----------------------------------------------------------- output checks


def test_planted_wrong_expected_value_is_a_failure():
    import corpus_worker
    from repro.generators import corpus

    expected = common.load_expected()["corpus"]
    planted = {k: dict(v) for k, v in expected.items()}
    planted["ppa:hem"]["levels"] += 1
    graphs = {"ppa": corpus.load("ppa", gen.CORPUS_SEED)}
    passes, failures = corpus_worker._run_passes(
        graphs, ["ppa"], planted, seed=0, seconds=0.0, first_pass=0,
        min_passes=1)
    assert [(f["graph"], f["coarsener"], f["fields"]) for f in failures] == [
        ("ppa", "hem", ["levels"])]
    attempted = sum(len(p["ops"]) for p in passes)
    assert len(failures) / attempted > 0


def test_served_row_checks():
    import serve_load

    want = {"cut": 10.0, "levels": 3}
    assert serve_load.verdict({"status": "ok", "row": want}, want) is None
    assert serve_load.verdict(
        {"status": "ok", "row": {"cut": 11.0, "levels": 3}}, want
    ) == "mismatch:cut"
    assert serve_load.verdict(
        {"status": "rejected", "reason": "queue-full"}, want
    ) == "rejected:queue-full"
    assert serve_load.verdict({"status": "ok", "row": want}, None)


def test_outputs_unchanged_with_trace_wrappers_installed():
    import spans
    from repro.bench import harness
    from repro.generators import corpus
    from repro.serve.executor import ServeExecutor
    from repro.serve.protocol import validate_request

    expected = common.load_expected()
    log = spans.SpanLog()
    undo = spans.install_serving(log)
    try:
        g, spec = corpus.load("ppa", gen.CORPUS_SEED)
        for c in gen.COARSENERS:
            r = harness.run_coarsening(g, spec, machine="gpu", coarsener=c,
                                       constructor="sort",
                                       seed=gen.CORPUS_SEED, oom=False)
            assert common.mismatches(r, expected["corpus"][f"ppa:{c}"]) == []
        ex = ServeExecutor()
        try:
            for req in gen.sweep_requests()[8:12]:  # citation: fm, coarsen, k4, k8
                row = ex.execute(validate_request(req))["row"]
                want = expected["sweep"][gen.request_key(req)]
                assert common.mismatches(row, want) == []
            tenant = gen.EPISODE_POOL[0]
            tg, _ = corpus.load(gen.UPDATE_GRAPH, tenant)
            ex.execute(validate_request(gen.warm_request(tenant)))
            steps = expected["update"][str(tenant)]["steps"]
            for req, want in list(zip(gen.episode_requests(tg, tenant), steps))[:6]:
                row = ex.execute(validate_request(req))["row"]
                assert common.mismatches(row, want) == []
        finally:
            ex.registry.close()
    finally:
        for u in undo:
            u()
    names = {s[1] for s in log.spans}
    for layer in ("coarsen.mapping", "construct.construction", "coarsen.driver",
                  "harness.run_coarsening", "partition.kway_refine",
                  "partition.spectral", "partition.fm", "trace.replay",
                  "trace.to_dict", "serve.execute", "update.apply_edges",
                  "update.patch", "cache.load"):
        assert layer in names, layer
    # every wrapper came off again
    from repro.coarsen import multilevel
    from repro.partition import kway

    assert not hasattr(kway.greedy_kway_refine, "__wrapped__")
    assert not hasattr(multilevel.get_coarsener, "__wrapped__")


def test_self_time_subtracts_children():
    spans_ = [
        {"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None,
         "request": 0, "labels": {}},
        {"id": 1, "name": "b", "start": 1.0, "end": 4.0, "parent": 0,
         "request": 0, "labels": {}},
        {"id": 2, "name": "b", "start": 5.0, "end": 7.0, "parent": 0,
         "request": 0, "labels": {}},
    ]
    import spans

    dur = spans.durations(spans_)
    assert dur[0] == (10.0, 5.0)
    assert spans.total(spans_, "b", dur=dur) == 5.0
    assert spans.in_windows(spans_[1], [(0.5, 2.0)])
    assert not spans.in_windows(spans_[2], [(0.5, 2.0)])
