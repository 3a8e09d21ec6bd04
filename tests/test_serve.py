"""Serving daemon: protocol, byte-parity, hierarchy reuse, admission,
clean shutdown, and the loadtest harness."""

from __future__ import annotations

import json
import math
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import faultinject
from repro.coarsen import multilevel as ml
from repro.generators import corpus
from repro.parallel import shm as shm_lifecycle
from repro.parallel.pool import ExperimentTask, _execute
from repro.parallel.session import SessionJournal
from repro.serve import (
    FrameTimeout,
    GraphRegistry,
    HierarchyCache,
    PoisonTracker,
    ProtocolError,
    ServeClient,
    ServeJournal,
    Server,
    ServerConfig,
    recover_executor,
    recv_msg,
    send_msg,
    wait_for_server,
)
from repro.serve import protocol
from repro.serve.executor import MAX_IDEM_ENTRIES, ServeExecutor, request_key
from repro.serve.journal import STATE_NAME, record_digest, request_digest
from repro.serve.loadtest import (
    build_mix,
    compare_against,
    merge_bench_file,
    percentile,
    run_loadtest,
)
from repro.serve.registry import hierarchy_key

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _disarm_faults():
    faultinject.clear()
    yield
    faultinject.clear()


def _req(op="partition", graph="ppa", **over):
    base = {"op": op, "graph": graph, "machine": "gpu", "coarsener": "hec",
            "constructor": "sort", "refinement": "fm", "k": 2, "seed": 0,
            "oom": False, "assignment": False}
    base.update(over)
    return base


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _no_own_segments():
    mine = [s for s in shm_lifecycle.list_segments() if s["pid"] == os.getpid()]
    assert mine == [], mine


# ------------------------------------------------------------- protocol


class TestProtocol:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            msg = {"op": "partition", "graph": "ppa", "k": 17, "nested": {"x": [1, 2]}}
            send_msg(a, msg)
            assert recv_msg(b) == msg
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_msg(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 100) + b'{"op":')  # promises 100 bytes
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame|before the frame"):
                recv_msg(b)
        finally:
            b.close()

    def test_oversized_declared_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", protocol.MAX_FRAME + 1))
            with pytest.raises(ProtocolError, match="MAX_FRAME"):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_oversized_send_rejected(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME", 64)
        a, b = socket.socketpair()
        try:
            with pytest.raises(ProtocolError, match="MAX_FRAME"):
                send_msg(a, {"payload": "x" * 200})
        finally:
            a.close()
            b.close()

    def test_non_object_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            body = b"[1,2,3]"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="JSON object"):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_validate_applies_defaults(self):
        out = protocol.validate_request({"op": "partition", "graph": "ppa"})
        assert out == _req()

    def test_validate_rejections(self):
        for bad, pat in [
            ({"op": "frobnicate"}, "unknown op"),
            ({"op": "coarsen"}, "requires a graph"),
            ({"op": "partition", "graph": "ppa", "k": 0}, "out of range"),
            ({"op": "partition", "graph": "ppa", "k": "two"}, "must be int"),
            ({"op": "partition", "graph": "ppa", "machine": "tpu"}, "machine"),
            ({"op": "partition", "graph": "ppa", "refinement": "km"}, "refinement"),
        ]:
            with pytest.raises(ProtocolError, match=pat):
                protocol.validate_request(bad)

    def test_validate_ping_status_passthrough(self):
        assert protocol.validate_request({"op": "ping"}) == {"op": "ping"}
        assert protocol.validate_request({"op": "status", "junk": 1}) == {"op": "status"}


# ---------------------------------------------------- executor + parity


class TestServeExecutor:
    def test_partition_row_byte_identical_to_batch(self):
        ex = ServeExecutor()
        try:
            resp = ex.execute(_req())
            assert resp["status"] == "ok"
            batch_row = _execute(ExperimentTask(
                kind="partition", graph="ppa", refinement="fm", oom=False))
            assert _canon(resp["row"]) == _canon(batch_row)
            assert resp["key"] == "partition:gpu:hec:sort:fm:ppa:s0"
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_coarsen_row_byte_identical_to_batch(self):
        ex = ServeExecutor()
        try:
            resp = ex.execute(_req(op="coarsen", graph="citation"))
            batch_row = _execute(ExperimentTask(
                kind="coarsen", graph="citation", oom=False))
            assert _canon(resp["row"]) == _canon(batch_row)
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_hit_row_byte_identical_to_build_row(self):
        """Tape replay makes a cache hit bitwise-neutral."""
        ex = ServeExecutor()
        try:
            first = ex.execute(_req())
            second = ex.execute(_req())
            assert first["meta"]["hierarchy"] == "build"
            assert second["meta"]["hierarchy"] == "hit"
            assert _canon(first["row"]) == _canon(second["row"])
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_error_is_typed_response(self):
        ex = ServeExecutor()
        try:
            resp = ex.execute(_req(graph="no-such-graph"))
            assert resp["status"] == "error"
            assert resp["kind"]
            assert ex.errors == 1
        finally:
            ex.registry.close()

    def test_assignment_opt_in(self):
        ex = ServeExecutor()
        try:
            without = ex.execute(_req())
            with_part = ex.execute(_req(assignment=True))
            assert "assignment" not in without.get("meta", {})
            part = with_part["meta"]["assignment"]
            assert sorted(set(part)) == [0, 1]
            labels = ex.execute(_req(op="cluster", assignment=True))
            assert len(labels["meta"]["assignment"]) > 0
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_request_key_matches_batch_key(self):
        assert request_key(_req()) == ExperimentTask(
            kind="partition", graph="ppa", refinement="fm").key()
        assert request_key(_req(op="coarsen")) == ExperimentTask(
            kind="coarsen", graph="ppa").key()
        assert request_key(_req(k=8)) == "partition:gpu:hec:sort:greedy-k8:ppa:s0"
        assert request_key(_req(op="cluster")) == "cluster:gpu:hec:sort:ppa:s0"


class TestHierarchyReuse:
    def test_k_sweep_coarsens_exactly_once(self, monkeypatch):
        """The acceptance criterion: k ∈ {2..64} on one graph → 1 build."""
        calls = []
        real = ml._coarsen_levels

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ml, "_coarsen_levels", counting)
        ex = ServeExecutor()
        try:
            cuts = {}
            for k in range(2, 65):
                resp = ex.execute(_req(k=k))
                assert resp["status"] == "ok", resp
                cuts[k] = resp["row"]["cut"]
            stats = ex.hierarchies.stats()
            assert stats["builds"] == 1
            assert stats["hits"] == 62
            assert len(calls) == 1  # the ledger-level truth: one coarsening
            # the sweep actually partitioned at every k
            assert all(cuts[k] > 0 for k in cuts)
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_reuse_spans_ops(self):
        """coarsen / bisect / k-way / cluster share one hierarchy."""
        ex = ServeExecutor()
        try:
            for req in (_req(op="coarsen"), _req(), _req(k=8), _req(op="cluster")):
                assert ex.execute(req)["status"] == "ok"
            stats = ex.hierarchies.stats()
            assert stats["builds"] == 1
            assert stats["hits"] == 3
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_hierarchy_key_ignores_post_coarsening_knobs(self):
        assert hierarchy_key(_req(k=2)) == hierarchy_key(_req(k=64))
        assert hierarchy_key(_req(refinement="fm")) == \
            hierarchy_key(_req(refinement="spectral"))
        assert hierarchy_key(_req(seed=0)) != hierarchy_key(_req(seed=1))
        assert hierarchy_key(_req(oom=False)) != hierarchy_key(_req(oom=True))

    def test_lru_bound_evicts(self):
        cache = HierarchyCache(max_entries=2)
        for seed in range(3):
            cache.put(hierarchy_key(_req(seed=seed)), object(), object())
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert not cache.peek(hierarchy_key(_req(seed=0)))


def _new_edge_for(g):
    """A (u, v) pair guaranteed absent from ``g``."""
    import numpy as np

    for u in range(g.n):
        row = set(np.asarray(g.adjncy[g.xadj[u]:g.xadj[u + 1]]).tolist())
        for v in range(g.n - 1, -1, -1):
            if v != u and v not in row:
                return u, v
    raise AssertionError("graph is complete")


def _update_req(graph="ppa", seed=0, add=None, remove=None):
    return {"op": "update_graph", "graph": graph, "seed": seed,
            "add": add or [], "remove": remove or []}


def _updated_reads(ex, seeds) -> list[dict]:
    """Coarsen, update (one absent edge) and k=8-read each ppa tenant."""
    responses = []
    for seed in seeds:
        g, _spec = corpus.load("ppa", seed)
        u, v = _new_edge_for(g)
        for req in (_req(op="coarsen", seed=seed),
                    _update_req(seed=seed, add=[[u, v, 2.5]]),
                    _req(k=8, seed=seed)):
            responses.append(ex.execute(req))
    return responses


class TestUpdateGraph:
    def test_validate_normalizes_and_rejects(self):
        out = protocol.validate_request(
            {"op": "update_graph", "graph": "ppa", "add": [[1, 2]],
             "remove": None})
        assert out == {"op": "update_graph", "graph": "ppa", "seed": 0,
                       "add": [[1, 2, 1.0]], "remove": []}
        for bad in (
            {"op": "update_graph", "graph": "ppa", "add": [[1]]},
            {"op": "update_graph", "graph": "ppa", "add": [[1, -2]]},
            {"op": "update_graph", "graph": "ppa", "add": [[1, 2, 0.0]]},
            {"op": "update_graph", "graph": "ppa",
             "remove": [[1, 2, 3.0]]},
            {"op": "update_graph", "graph": "ppa", "seed": "x"},
        ):
            with pytest.raises(ProtocolError):
                protocol.validate_request(bad)

    def test_update_patches_cached_hierarchy_and_pins_tenant(self):
        ex = ServeExecutor()
        try:
            built = ex.execute(_req())
            assert built["meta"]["hierarchy"] == "build"
            g, _spec = ex.registry.graph("ppa", 0)
            u, v = _new_edge_for(g)

            resp = ex.execute(_update_req(add=[[u, v, 2.5]]))
            assert resp["status"] == "ok"
            row = resp["row"]
            assert row["applied_adds"] == 1
            assert row["hierarchies_patched"] == 1
            assert row["hierarchies_evicted"] == 0
            assert ex.hierarchies.stats()["patches"] == 1

            # the mutated tenant is pinned: a reload would resurrect the
            # pristine on-disk graph
            assert ex.registry.is_mutated("ppa", 0)

            # later requests hit the patched hierarchy, not a rebuild
            after = ex.execute(_req())
            assert after["status"] == "ok"
            assert after["meta"]["hierarchy"] == "hit"
            assert after["row"] != built["row"]  # the graph really changed
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_update_evicts_non_delta_hierarchies(self):
        ex = ServeExecutor()
        try:
            ex.execute(_req(coarsener="hem"))
            g, _spec = ex.registry.graph("ppa", 0)
            u, v = _new_edge_for(g)
            resp = ex.execute(_update_req(add=[[u, v, 2.5]]))
            assert resp["row"]["hierarchies_patched"] == 0
            assert resp["row"]["hierarchies_evicted"] == 1
            assert ex.hierarchies.stats()["entries"] == 0
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_noop_update_leaves_everything_alone(self):
        ex = ServeExecutor()
        try:
            ex.execute(_req())
            g, _spec = ex.registry.graph("ppa", 0)
            u, v = _new_edge_for(g)
            resp = ex.execute(_update_req(remove=[[u, v]]))
            assert resp["status"] == "ok"
            assert resp["row"]["applied_removes"] == 0
            assert resp["row"]["hierarchies_patched"] == 0
            assert not ex.registry.is_mutated("ppa", 0)
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_out_of_range_update_is_typed_error(self):
        ex = ServeExecutor()
        try:
            g, _spec = ex.registry.graph("ppa", 0)
            resp = ex.execute(_update_req(add=[[0, g.n + 7, 1.0]]))
            assert resp["status"] == "error"
            assert ex.errors == 1
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_updates_past_tenant_bound_are_kept(self):
        """More updated tenants than ``max_graphs``: the tenant being
        loaded is never its own eviction victim, so every update lands
        and every row matches an unbounded registry's."""
        bounded = ServeExecutor(GraphRegistry(max_graphs=2))
        unbounded = ServeExecutor(GraphRegistry(max_graphs=64))
        try:
            got = _updated_reads(bounded, range(4))
            want = _updated_reads(unbounded, range(4))
            assert [r for r in got if r["status"] != "ok"] == []
            assert [_canon(r) for r in got] == [_canon(r) for r in want]
            assert len(bounded.registry.resident()) == 4
        finally:
            bounded.registry.close()
            unbounded.registry.close()
        _no_own_segments()


# -------------------------------------------------- in-process server


@pytest.fixture()
def server(tmp_path):
    srv = Server(ServerConfig(socket_path=str(tmp_path / "serve.sock"),
                              drain_timeout=5.0))
    srv.start()
    wait_for_server(srv.config.socket_path, timeout=10.0)
    yield srv
    srv.stop()
    _no_own_segments()


class TestServer:
    def test_ping_and_status(self, server):
        with ServeClient(server.config.socket_path) as client:
            pong = client.request({"op": "ping"})
            assert pong["status"] == "ok" and pong["pid"] == os.getpid()
            status = client.request({"op": "status"})
            assert status["queue_max"] == server.config.queue_max
            assert "hierarchy" in status and "counters" in status

    def test_served_row_byte_identical_to_batch(self, server):
        with ServeClient(server.config.socket_path) as client:
            resp = client.request(_req())
        assert resp["status"] == "ok"
        batch_row = _execute(ExperimentTask(
            kind="partition", graph="ppa", refinement="fm", oom=False))
        assert _canon(resp["row"]) == _canon(batch_row)

    def test_invalid_request_is_typed_error(self, server):
        with ServeClient(server.config.socket_path) as client:
            resp = client.request({"op": "frobnicate"})
            assert resp["status"] == "error"
            assert resp["kind"] == "ProtocolError"
            # the connection survives a bad request
            assert client.request({"op": "ping"})["status"] == "ok"

    def test_admission_rejects_when_queue_full(self, tmp_path):
        srv = Server(ServerConfig(socket_path=str(tmp_path / "adm.sock"),
                                  queue_max=1, batch_max=1, drain_timeout=8.0))
        # first request hangs in the dispatcher; the second fills the
        # queue; everything after that must get the typed rejection
        faultinject.install("serve.exec:hang:sleep=1.5,times=1")
        srv.start()
        wait_for_server(srv.config.socket_path, timeout=10.0)
        results = {}

        def send(tag):
            with ServeClient(srv.config.socket_path, timeout=60.0) as c:
                results[tag] = c.request(_req())

        try:
            t1 = threading.Thread(target=send, args=("hung",))
            t1.start()
            deadline = time.monotonic() + 5.0
            while srv._inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert srv._inflight == 1  # dispatcher is inside the hang
            t2 = threading.Thread(target=send, args=("queued",))
            t2.start()
            deadline = time.monotonic() + 5.0
            while srv._queue.qsize() == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            send("overflow")  # queue full: synchronous typed rejection
            assert results["overflow"]["status"] == "rejected"
            assert results["overflow"]["reason"] == "queue-full"
            t1.join(30.0)
            t2.join(30.0)
            assert results["hung"]["status"] == "ok"
            assert results["queued"]["status"] == "ok"
            assert srv.counters["rejected_full"] == 1
        finally:
            srv.stop()
        _no_own_segments()

    def test_stop_rejects_new_work_typed(self, server):
        server._stopping.set()
        with ServeClient(server.config.socket_path) as client:
            resp = client.request(_req())
        assert resp == {"status": "rejected", "reason": "shutting-down"}

    def test_stop_unlinks_socket_and_segments(self, tmp_path):
        srv = Server(ServerConfig(socket_path=str(tmp_path / "gone.sock")))
        srv.start()
        wait_for_server(srv.config.socket_path, timeout=10.0)
        with ServeClient(srv.config.socket_path) as client:
            assert client.request(_req(op="coarsen"))["status"] == "ok"
        assert srv.executor.registry.resident()  # a graph went resident
        srv.stop()
        assert not Path(srv.config.socket_path).exists()
        _no_own_segments()


# ------------------------------------------------- the real daemon


def _spawn_daemon(dirpath, *extra, faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop(faultinject.ENV_VAR, None)
    if faults:
        env[faultinject.ENV_VAR] = faults
    sock = Path(dirpath) / "daemon.sock"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--socket", str(sock),
         "--log-dir", str(Path(dirpath) / "log"), "--drain-timeout", "8",
         *extra],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        wait_for_server(str(sock), timeout=60.0)
    except TimeoutError:
        proc.kill()
        out, _ = proc.communicate(timeout=10)
        raise AssertionError(f"daemon never came up:\n{out.decode()}")
    return proc, str(sock)


class TestDaemonProcess:
    def _spawn(self, tmp_path, *extra, faults=None):
        return _spawn_daemon(tmp_path, *extra, faults=faults)

    def test_sigterm_drains_inflight_and_cleans_up(self, tmp_path):
        # the armed hang keeps one request in flight across the SIGTERM
        proc, sock = self._spawn(
            tmp_path, faults="serve.exec:hang:sleep=1.5,times=1")
        results = {}

        def send():
            with ServeClient(sock, timeout=60.0) as c:
                results["resp"] = c.request(_req())

        t = threading.Thread(target=send)
        try:
            with ServeClient(sock) as probe:
                pid = probe.request({"op": "ping"})["pid"]
            t.start()
            time.sleep(0.5)  # request is inside the 1.5 s hang
            proc.send_signal(signal.SIGTERM)
            t.join(30.0)
            assert results["resp"]["status"] == "ok"  # drained, not dropped
            assert proc.wait(timeout=30) == 0
            # cleanup ladder: socket unlinked, no segments owned by the pid
            assert not Path(sock).exists()
            leaked = [s for s in shm_lifecycle.list_segments()
                      if s["pid"] == pid]
            assert leaked == [], leaked
            # journal: started, served the request, then a final record
            records, _ = SessionJournal.scan(tmp_path / "log" / "journal.jsonl")
            types = [r["type"] for r in records]
            assert types[0] == "serve-start"
            assert "served" in types
            assert types[-1] == "serve-end"
            served = [r for r in records if r["type"] == "served"]
            assert served[0]["key"] == "partition:gpu:hec:sort:fm:ppa:s0"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_request_cli_roundtrip(self, tmp_path):
        proc, sock = self._spawn(tmp_path)
        try:
            env = dict(os.environ)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            out_dir = tmp_path / "traces"
            cli = subprocess.run(
                [sys.executable, "-m", "repro.serve", "request",
                 "--socket", sock, "--op", "partition", "--graph", "ppa",
                 "--refinement", "fm", "--trace-dir", str(out_dir)],
                cwd=REPO_ROOT, env=env, capture_output=True, timeout=120,
            )
            assert cli.returncode == 0, cli.stdout.decode() + cli.stderr.decode()
            results = json.loads((out_dir / "results.json").read_text())
            assert results[0]["graph"] == "ppa"
            assert (out_dir / "partition-gpu-hec-sort-fm-ppa-0.trace.json").exists()
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0


# ------------------------------------------------------------ loadtest


class TestLoadtestHarness:
    def test_build_mix_deterministic_and_covers_ops(self):
        mix = build_mix(32, ["ppa", "citation"], seed=3)
        assert mix == build_mix(32, ["ppa", "citation"], seed=3)
        assert len(mix) == 32
        assert all(r["seed"] == 3 for r in mix)
        ops = {(r["op"], r.get("k")) for r in mix}
        assert ("coarsen", None) in ops
        assert ("cluster", None) in ops
        assert ("partition", 2) in ops and ("partition", 64) in ops
        assert {r["graph"] for r in mix} == {"ppa", "citation"}

    def test_percentile_nearest_rank(self):
        vals = [float(v) for v in range(1, 101)]
        assert percentile(vals, 50) == 50.0
        assert percentile(vals, 100) == 100.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([3.0, 1.0, 2.0], 0) == 1.0

    def test_merge_and_compare(self, tmp_path):
        path = tmp_path / "BENCH_serving.json"
        entry = {
            "overall": {"p50_ms": 10.0, "p99_ms": 50.0},
            "hierarchy": {"hit_rate": 0.9},
        }
        merge_bench_file(path, "cfg", entry)
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1 and "cfg" in doc["configs"]
        # same numbers: passes
        assert compare_against(entry, path, "cfg", max_regression=0.5) == 0
        # blown p99: fails
        worse = {"overall": {"p50_ms": 10.0, "p99_ms": 500.0},
                 "hierarchy": {"hit_rate": 0.9}}
        assert compare_against(worse, path, "cfg", max_regression=0.5) == 1
        # collapsed hit-rate: fails
        cold = {"overall": {"p50_ms": 10.0, "p99_ms": 50.0},
                "hierarchy": {"hit_rate": 0.5}}
        assert compare_against(cold, path, "cfg", max_regression=0.5) == 1
        # unknown config key: hard error
        assert compare_against(entry, path, "nope", max_regression=0.5) == 2

    def test_merge_preserves_other_configs(self, tmp_path):
        path = tmp_path / "b.json"
        merge_bench_file(path, "a", {"x": 1})
        merge_bench_file(path, "b", {"x": 2})
        doc = json.loads(path.read_text())
        assert set(doc["configs"]) == {"a", "b"}

    def test_committed_baseline_matches_loadtest_key(self):
        """CI replays n=160/c=4/j=1 over ppa,citation — pin the key."""
        doc = json.loads((REPO_ROOT / "BENCH_serving.json").read_text())
        assert doc["schema"] == 1
        assert "ppa,citation:n160:c4:j1" in doc["configs"]
        entry = doc["configs"]["ppa,citation:n160:c4:j1"]
        assert entry["overall"]["p50_ms"] > 0
        assert entry["hierarchy"]["hit_rate"] > 0.9

    def test_percentile_tiny_samples(self):
        assert percentile([5.0], 99) == 5.0
        assert percentile([1.0, 2.0], 50) == 1.0
        assert percentile([1.0, 2.0], 99) == 2.0
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0
        assert math.isnan(percentile([], 50))

    def test_report_carries_n_and_error_kinds(self, server):
        entry = run_loadtest(
            server.config.socket_path, build_mix(3, ["ppa"]), clients=1
        )
        assert entry["outcomes"]["ok"] == 3
        assert entry["error_kinds"] == {}
        assert entry["overall"]["n"] == 3
        assert entry["overall"]["n"] == entry["overall"]["count"]
        for s in entry["ops"].values():
            assert s["n"] == s["count"]


# ------------------------------------------------- durable state journal


class TestServeJournal:
    def test_append_scan_roundtrip(self, tmp_path):
        j = ServeJournal(tmp_path)
        j.open()
        assert j.append({"type": "tenant", "graph": "ppa", "seed": 0})
        assert j.append({"type": "hierarchy",
                         "key": ["ppa", 0, "gpu", "hec", "sort", False],
                         "tape_sha": "ab" * 8})
        j.close()
        records, valid = ServeJournal.scan(tmp_path / STATE_NAME)
        assert [r["type"] for r in records] == ["tenant", "hierarchy"]
        assert [r["seq"] for r in records] == [0, 1]
        assert valid == (tmp_path / STATE_NAME).stat().st_size
        for r in records:
            assert r["sha"] == record_digest(r)

    def test_torn_tail_is_truncated(self, tmp_path):
        j = ServeJournal(tmp_path)
        j.open()
        for i in range(3):
            j.append({"type": "tenant", "graph": f"g{i}", "seed": 0})
        j.close()
        path = tmp_path / STATE_NAME
        intact = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b'{"seq":3,"type":"tenant"')  # torn mid-record
        records, valid = ServeJournal.scan(path)
        assert len(records) == 3
        assert valid == intact
        # reopening at the valid prefix drops the torn tail durably and
        # the sequence continues where the valid prefix ended
        j2 = ServeJournal(tmp_path)
        j2.open(truncate_to=valid, seq=3)
        j2.append({"type": "tenant", "graph": "g3", "seed": 0})
        j2.close()
        records, valid2 = ServeJournal.scan(path)
        assert [r["seq"] for r in records] == [0, 1, 2, 3]
        assert valid2 == path.stat().st_size

    def test_digest_mismatch_stops_the_scan(self, tmp_path):
        j = ServeJournal(tmp_path)
        j.open()
        for i in range(3):
            j.append({"type": "tenant", "graph": f"g{i}", "seed": 0})
        j.close()
        path = tmp_path / STATE_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"g1"', b'"gX"')  # payload != sha
        path.write_bytes(b"".join(lines))
        records, valid = ServeJournal.scan(path)
        assert len(records) == 1
        assert valid == len(lines[0])

    def test_write_failure_degrades_not_crashes(self, tmp_path, monkeypatch):
        j = ServeJournal(tmp_path)
        j.open()
        assert j.append({"type": "tenant", "graph": "ppa", "seed": 0})

        def boom(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.serve.journal.os.fsync", boom)
        with pytest.warns(RuntimeWarning, match="crash-recovered"):
            assert not j.append({"type": "tenant", "graph": "x", "seed": 0})
        assert j.disabled
        assert j.write_failures == 1
        # once degraded, appends are silent no-ops — the daemon keeps
        # serving, it just lost crash coverage
        assert not j.append({"type": "tenant", "graph": "y", "seed": 0})
        j.close()
        # the failed record's bytes landed before fsync blew up; only
        # the *guarantee* is gone, not the prefix
        records, _ = ServeJournal.scan(tmp_path / STATE_NAME)
        assert len(records) == 2

    def test_request_digest_ignores_delivery_metadata(self):
        base = _req()
        assert request_digest(base) == request_digest(
            {**base, "idem": "a", "deadline_ms": 5}
        )
        assert request_digest(base) != request_digest(_req(k=4))

    def test_poison_tracker_strikes_and_quarantine(self):
        p = PoisonTracker(threshold=2)
        assert p.strike("d1") == 1
        assert not p.quarantined("d1")
        assert p.strike("d1") == 2
        assert p.quarantined("d1")
        assert p.stats()["quarantined"] == ["d1"]
        assert p.stats()["strikes"] == {"d1": 2}
        assert PoisonTracker(threshold=0).threshold == 1


# ------------------------------------------------------- warm restart


def _journaled_executor(tmp_path, **kw):
    ex = ServeExecutor(**kw)
    j = ServeJournal(tmp_path)
    j.open()
    ex.attach_state_journal(j)
    return ex, j


class TestRecovery:
    def test_warm_restart_byte_identical(self, tmp_path):
        ex1, j1 = _journaled_executor(tmp_path)
        try:
            first = ex1.execute(_req())
            assert first["meta"]["hierarchy"] == "build"
            g, _spec = ex1.registry.graph("ppa", 0)
            u, v = _new_edge_for(g)
            upd = {"op": "update_graph", "graph": "ppa", "seed": 0,
                   "add": [[u, v, 2.5]], "remove": [], "idem": "abc-1"}
            r_upd = ex1.execute(upd)
            assert r_upd["status"] == "ok"
            r_k8 = ex1.execute(_req(k=8))
            assert r_k8["meta"]["hierarchy"] == "hit"
        finally:
            j1.close()
            ex1.registry.close()

        ex2 = ServeExecutor()
        try:
            summary = recover_executor(ex2, tmp_path)
            assert summary["tenants"] == 1
            assert summary["hierarchies"] == 1
            assert summary["updates"] == 1
            assert summary["mismatches"] == []
            assert summary["poison_strikes"] == []
            assert summary["valid_bytes"] > 0
            assert summary["next_seq"] == summary["records"]
            # the recovered idempotency table answers the retry of the
            # pre-crash update byte-identically, without re-applying it
            mutations_before = ex2.registry.mutations
            retry = ex2.execute(upd)
            assert _canon(retry) == _canon(r_upd)
            assert ex2.registry.mutations == mutations_before
            # the rebuilt + re-patched hierarchy serves post-crash
            # requests byte-identically, still as cache hits
            after = ex2.execute(_req(k=8))
            assert after["meta"]["hierarchy"] == "hit"
            assert _canon(after["row"]) == _canon(r_k8["row"])
            assert ex2.registry.is_mutated("ppa", 0)
        finally:
            ex2.registry.close()
        _no_own_segments()

    def test_updates_past_tenant_bound_recover(self, tmp_path):
        """A journal with more updated tenants than ``max_graphs``
        replays every update, and each tenant's read hits its recovered
        hierarchy byte-identically."""
        ex1, j1 = _journaled_executor(
            tmp_path, registry=GraphRegistry(max_graphs=1))
        try:
            before = _updated_reads(ex1, range(3))
            assert [r for r in before if r["status"] != "ok"] == []
        finally:
            j1.close()
            ex1.registry.close()

        ex2 = ServeExecutor(GraphRegistry(max_graphs=1))
        try:
            summary = recover_executor(ex2, tmp_path)
            assert summary["updates"] == 3
            assert summary["mismatches"] == []
            assert len(ex2.registry.resident()) == 3
            for seed, pre in zip(range(3), before[2::3]):
                after = ex2.execute(_req(k=8, seed=seed))
                assert after["meta"]["hierarchy"] == "hit"
                assert _canon(after) == _canon(pre)
        finally:
            ex2.registry.close()
        _no_own_segments()

    def test_tape_mismatch_evicts_and_reports(self, tmp_path):
        ex1, j1 = _journaled_executor(tmp_path)
        try:
            assert ex1.execute(_req())["status"] == "ok"
        finally:
            j1.close()
            ex1.registry.close()
        # tamper the journaled tape digest (valid record sha, wrong tape)
        path = tmp_path / STATE_NAME
        records, _ = ServeJournal.scan(path)
        key = None
        lines = []
        for rec in records:
            rec = dict(rec)
            if rec["type"] == "hierarchy":
                key = tuple(rec["key"])
                rec["tape_sha"] = "0" * 16
                rec["sha"] = record_digest(rec)
            lines.append(json.dumps(rec, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        path.write_text("".join(lines))
        assert key is not None

        ex2 = ServeExecutor()
        try:
            summary = recover_executor(ex2, tmp_path)
            assert summary["hierarchies"] == 0
            assert summary["mismatches"] == [list(key)]
            assert not ex2.hierarchies.peek(key)
            # strict mode refuses to come up on a divergent rebuild
            ex3 = ServeExecutor()
            try:
                with pytest.raises(RuntimeError, match="tape digest"):
                    recover_executor(ex3, tmp_path, strict=True)
            finally:
                ex3.registry.close()
            # the evicted entry is rebuilt fresh, never served stale
            rebuilt = ex2.execute(_req())
            assert rebuilt["status"] == "ok"
            assert rebuilt["meta"]["hierarchy"] == "build"
        finally:
            ex2.registry.close()
        _no_own_segments()

    def test_dangling_exec_begin_strikes_and_quarantines(self, tmp_path):
        digest = request_digest(_req(op="cluster"))
        j = ServeJournal(tmp_path)
        j.open()
        j.append({"type": "tenant", "graph": "ppa", "seed": 0})
        j.append({"type": "poison", "digest": digest})
        j.append({"type": "exec-begin", "digest": digest, "op": "cluster"})
        j.close()
        ex = ServeExecutor()
        try:
            summary = recover_executor(ex, tmp_path)
            assert summary["poison_strikes"] == [digest, digest]
            assert ex.poison.quarantined(digest)  # threshold 2: 2 strikes
            resp = ex.execute(_req(op="cluster"))
            assert resp["status"] == "error"
            assert resp["kind"] == "PoisonQuarantined"
            # quarantine is per-request, not per-tenant: the graph serves
            assert ex.execute(_req())["status"] == "ok"
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_skips_dead_hierarchies(self, tmp_path):
        key = ["ppa", 0, "gpu", "hec", "sort", False]
        j = ServeJournal(tmp_path)
        j.open()
        j.append({"type": "tenant", "graph": "ppa", "seed": 0})
        j.append({"type": "hierarchy", "key": key, "tape_sha": "f" * 16})
        j.append({"type": "hierarchy-drop", "key": key})
        j.close()
        ex = ServeExecutor()
        try:
            summary = recover_executor(ex, tmp_path)
            assert summary["tenants"] == 1
            assert summary["skipped"] == 1
            assert summary["hierarchies"] == 0
            assert summary["mismatches"] == []
            assert ex.hierarchies.stats()["builds"] == 0  # no wasted rebuild
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_missing_journal_recovers_to_nothing(self, tmp_path):
        ex = ServeExecutor()
        try:
            summary = recover_executor(ex, tmp_path)
            assert summary == {
                "records": 0, "valid_bytes": 0, "next_seq": 0,
                "tenants": 0, "hierarchies": 0, "updates": 0,
                "skipped": 0, "mismatches": [], "poison_strikes": [],
            }
        finally:
            ex.registry.close()


# --------------------------------------------- idempotency + quarantine


class TestIdempotency:
    def test_update_graph_applies_exactly_once(self):
        ex = ServeExecutor()
        try:
            g, _spec = ex.registry.graph("ppa", 0)
            u, v = _new_edge_for(g)
            upd = {"op": "update_graph", "graph": "ppa", "seed": 0,
                   "add": [[u, v, 2.5]], "remove": [], "idem": "once-1"}
            first = ex.execute(upd)
            assert first["status"] == "ok"
            assert first["row"]["applied_adds"] == 1
            assert ex.registry.mutations == 1
            # the duplicate is answered from the idempotency table,
            # byte-identically, without touching the graph again
            dup = ex.execute(dict(upd))
            assert _canon(dup) == _canon(first)
            assert ex.registry.mutations == 1
            # a different key is a different logical update: it executes
            g2, _spec = ex.registry.graph("ppa", 0)
            u2, v2 = _new_edge_for(g2)
            fresh = ex.execute({"op": "update_graph", "graph": "ppa",
                                "seed": 0, "add": [],
                                "remove": [[u2, v2]], "idem": "once-2"})
            assert fresh["status"] == "ok"
            assert fresh["row"]["applied_removes"] == 0  # it really ran
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_idem_table_is_bounded(self):
        ex = ServeExecutor()
        try:
            for i in range(MAX_IDEM_ENTRIES + 10):
                ex.remember_idempotent(f"k{i}", {"status": "ok"})
            assert len(ex._idem) == MAX_IDEM_ENTRIES
            assert ex._idem_lookup("k0") is None
            assert ex._idem_lookup(f"k{MAX_IDEM_ENTRIES + 9}") is not None
        finally:
            ex.registry.close()


# ----------------------------------------------------------- deadlines


class TestDeadlines:
    def test_expired_deadline_is_typed_error(self):
        ex = ServeExecutor()
        try:
            resp = ex.execute(_req(), deadline=time.monotonic() - 0.001)
            assert resp["status"] == "error"
            assert resp["kind"] == "DeadlineExceeded"
            assert ex.errors == 1
            ok = ex.execute(_req(), deadline=time.monotonic() + 60.0)
            assert ok["status"] == "ok"
        finally:
            ex.registry.close()
        _no_own_segments()

    def test_validate_idem_and_deadline_fields(self):
        out = protocol.validate_request(
            {"op": "partition", "graph": "ppa", "idem": "k-1",
             "deadline_ms": 250})
        assert out["idem"] == "k-1"
        assert out["deadline_ms"] == 250
        for bad in (
            {"op": "update_graph", "graph": "ppa", "idem": ""},
            {"op": "update_graph", "graph": "ppa", "idem": "x" * 201},
            {"op": "update_graph", "graph": "ppa", "idem": 7},
            {"op": "partition", "graph": "ppa", "deadline_ms": 0},
            {"op": "partition", "graph": "ppa", "deadline_ms": True},
            {"op": "partition", "graph": "ppa", "deadline_ms": "soon"},
        ):
            with pytest.raises(ProtocolError):
                protocol.validate_request(bad)

    def test_queued_request_expires_with_typed_answer(self, tmp_path):
        """Queue time counts against the budget: a request whose
        deadline lapses while an earlier request hogs the dispatcher is
        answered DeadlineExceeded, never executed."""
        srv = Server(ServerConfig(socket_path=str(tmp_path / "dl.sock"),
                                  batch_max=1, drain_timeout=8.0))
        faultinject.install("serve.exec:hang:sleep=1.5,times=1")
        srv.start()
        wait_for_server(srv.config.socket_path, timeout=10.0)
        results = {}

        def send(tag, req):
            with ServeClient(srv.config.socket_path, timeout=60.0) as c:
                results[tag] = c.request(req)

        try:
            t1 = threading.Thread(target=send, args=("hung", _req()))
            t1.start()
            deadline = time.monotonic() + 5.0
            while srv._inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert srv._inflight == 1  # dispatcher is inside the hang
            send("expired", _req(deadline_ms=200))
            t1.join(30.0)
            assert results["hung"]["status"] == "ok"
            assert results["expired"]["status"] == "error"
            assert results["expired"]["kind"] == "DeadlineExceeded"
            assert srv.counters["deadline_exceeded"] == 1
        finally:
            srv.stop()
        _no_own_segments()


# ------------------------------------------------------- frame timeout


class TestFrameTimeout:
    def test_partial_frame_raises_frame_timeout(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00")  # 1 of 4 header bytes, then stall
            t0 = time.monotonic()
            with pytest.raises(FrameTimeout):
                recv_msg(b, frame_timeout=0.3)
            assert time.monotonic() - t0 < 5.0
        finally:
            a.close()
            b.close()

    def test_idle_wait_is_unbounded(self):
        """The timer starts at the first byte, not at recv entry — an
        idle keep-alive connection never times out."""
        a, b = socket.socketpair()
        msg = {"op": "ping"}

        def late_send():
            time.sleep(0.5)  # longer than the frame timeout below
            send_msg(a, msg)

        t = threading.Thread(target=late_send)
        t.start()
        try:
            assert recv_msg(b, frame_timeout=0.2) == msg
        finally:
            t.join(5.0)
            a.close()
            b.close()

    def test_frame_timeout_is_a_protocol_error(self):
        assert issubclass(FrameTimeout, ProtocolError)

    def test_server_answers_typed_and_drops_connection(self, tmp_path):
        srv = Server(ServerConfig(socket_path=str(tmp_path / "ft.sock"),
                                  frame_timeout=0.3, drain_timeout=5.0))
        srv.start()
        wait_for_server(srv.config.socket_path, timeout=10.0)
        try:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.settimeout(10.0)
            raw.connect(srv.config.socket_path)
            try:
                raw.sendall(b"\x00\x00")  # 2 of 4 header bytes, stall
                resp = recv_msg(raw)
                assert resp["status"] == "error"
                assert resp["kind"] == "FrameTimeout"
                assert recv_msg(raw) is None  # connection was closed
            finally:
                raw.close()
            assert srv.counters["frame_timeouts"] == 1
            # the stalled client cost itself its connection, not the daemon
            with ServeClient(srv.config.socket_path) as c:
                assert c.request({"op": "ping"})["status"] == "ok"
        finally:
            srv.stop()
        _no_own_segments()


# ------------------------------------------------------ retrying client


class TestRetryingClient:
    def test_strict_client_raises_on_absent_daemon(self, tmp_path):
        with pytest.raises(OSError):
            ServeClient(str(tmp_path / "absent.sock"))

    def test_retrying_client_defers_connection(self, tmp_path):
        client = ServeClient(str(tmp_path / "late.sock"), retries=3,
                             backoff_base=0.01, backoff_cap=0.05)
        try:
            with pytest.raises(OSError):
                client.request({"op": "ping"})
            assert client.retried == 3
        finally:
            client.close()

    def test_deadline_budget_bounds_retries(self, tmp_path):
        client = ServeClient(str(tmp_path / "absent.sock"), retries=50,
                             backoff_base=0.05, backoff_cap=0.1,
                             deadline=0.3)
        t0 = time.monotonic()
        try:
            with pytest.raises((TimeoutError, OSError)):
                client.request({"op": "ping"})
            assert time.monotonic() - t0 < 5.0
        finally:
            client.close()

    def test_reconnects_across_daemon_restart(self, tmp_path):
        path = str(tmp_path / "restart.sock")
        srv1 = Server(ServerConfig(socket_path=path, drain_timeout=5.0))
        srv1.start()
        wait_for_server(path, timeout=10.0)
        holder = {}
        client = ServeClient(path, retries=10, backoff_base=0.1,
                             backoff_cap=1.0, timeout=30.0)
        try:
            assert client.request({"op": "ping"})["status"] == "ok"
            srv1.stop()

            def restart():
                time.sleep(0.5)
                srv2 = Server(ServerConfig(socket_path=path,
                                           drain_timeout=5.0))
                holder["srv"] = srv2.start()
                # a second daemon generation on the same socket path

            t = threading.Thread(target=restart)
            t.start()
            resp = client.request({"op": "ping"})
            assert resp["status"] == "ok"
            assert client.reconnects >= 1
            t.join(10.0)
        finally:
            client.close()
            if "srv" in holder:
                holder["srv"].stop()
        _no_own_segments()

    def test_typed_rejection_retries_then_surfaces(self, server):
        server._stopping.set()
        with ServeClient(server.config.socket_path, retries=2,
                         backoff_base=0.01, backoff_cap=0.02) as client:
            resp = client.request(_req())
            assert resp == {"status": "rejected", "reason": "shutting-down"}
            assert client.retried == 2

    def test_auto_idem_for_retried_updates(self, server):
        g, _spec = corpus.load("ppa", 0)
        u, v = _new_edge_for(g)
        with ServeClient(server.config.socket_path, retries=2) as client:
            resp = client.request({"op": "update_graph", "graph": "ppa",
                                   "seed": 0, "remove": [[u, v]]})
            assert resp["status"] == "ok"
        idem_keys = list(server.executor._idem)
        assert len(idem_keys) == 1
        assert re.fullmatch(rf"c{os.getpid():x}-[0-9a-f]{{8}}-1", idem_keys[0])
        # an explicit key is honoured untouched
        with ServeClient(server.config.socket_path, retries=2) as client:
            client.request({"op": "update_graph", "graph": "ppa", "seed": 0,
                            "remove": [[u, v]], "idem": "explicit-1"})
        assert "explicit-1" in server.executor._idem


# ------------------------------------------- SIGKILL + warm restart


class TestCrashRecoveryDaemon:
    def test_sigkill_recover_serves_byte_identical(self, tmp_path):
        """The acceptance criterion: SIGKILL the daemon, restart with
        --recover, and everything observable — registry tenants,
        hierarchy-cache hits, response bytes, idempotent retries — is
        indistinguishable from a daemon that never died."""
        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        ctl_dir = tmp_path / "ctl"
        ctl_dir.mkdir()
        g, _spec = corpus.load("ppa", 0)
        u, v = _new_edge_for(g)
        upd = {"op": "update_graph", "graph": "ppa", "seed": 0,
               "add": [[u, v, 2.5]], "remove": [], "idem": "kill-1"}

        proc1, sock = _spawn_daemon(crash_dir)
        try:
            with ServeClient(sock, timeout=120.0) as c:
                pid1 = c.request({"op": "ping"})["pid"]
                r_part = c.request(_req())
                assert r_part["status"] == "ok"
                r_upd = c.request(upd)
                assert r_upd["status"] == "ok"
            proc1.kill()  # SIGKILL: no drain, no cleanup ladder
            assert proc1.wait(timeout=30) == -signal.SIGKILL
        finally:
            if proc1.poll() is None:
                proc1.kill()
                proc1.wait(timeout=10)
        # tenants live only in the daemon's memory: even a SIGKILL, which
        # skips every cleanup step, leaves no segment behind
        leaked = [s for s in shm_lifecycle.list_segments()
                  if s["pid"] == pid1]
        assert leaked == [], leaked

        proc2, sock2 = _spawn_daemon(
            crash_dir, "--recover", str(crash_dir / "log"))
        proc3 = None
        try:
            with ServeClient(sock2, timeout=120.0) as c:
                rec = c.request({"op": "status"})["recovery"]
                assert rec["tenants"] == 1
                assert rec["hierarchies"] == 1
                assert rec["updates"] == 1
                assert rec["mismatches"] == []
                r2_retry = c.request(upd)
                r2_k8 = c.request(_req(k=8))
                r2_cluster = c.request(_req(op="cluster"))
            # exactly-once across the crash: the retry is answered from
            # the recovered idempotency table, byte-identically
            assert _canon(r2_retry) == _canon(r_upd)
            # bitwise hierarchy recovery: post-crash requests *hit* the
            # rebuilt + re-patched cache
            assert r2_k8["meta"]["hierarchy"] == "hit"

            proc3, sock3 = _spawn_daemon(ctl_dir)
            with ServeClient(sock3, timeout=120.0) as c:
                assert _canon(c.request(_req())) == _canon(r_part)
                assert c.request(upd)["status"] == "ok"
                r3_k8 = c.request(_req(k=8))
                r3_cluster = c.request(_req(op="cluster"))
            # ...and they match an uninterrupted daemon byte for byte
            assert _canon(r2_k8) == _canon(r3_k8)
            assert _canon(r2_cluster) == _canon(r3_cluster)

            for proc in (proc2, proc3):
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=30) == 0
        finally:
            for proc in (proc2, proc3):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
        # the recovered run marked itself and journaled no duplicate update
        records, _ = ServeJournal.scan(crash_dir / "log" / "state.jsonl")
        types = [r["type"] for r in records]
        assert "recovered" in types
        assert types.count("update") == 1
        leaked = [s for s in shm_lifecycle.list_segments()
                  if s["pid"] in (pid1, proc2.pid, proc3.pid)]
        assert leaked == [], leaked


class TestSupervisor:
    def test_crash_respawn_recover_and_quarantine(self, tmp_path):
        """An armed executor crash kills the daemon mid-request; the
        supervisor respawns it with --recover, the retrying client rides
        the outage, the poisoned request is quarantined (typed error,
        daemon survives), and the journaled update stays exactly-once."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env[faultinject.ENV_VAR] = "serve.exec:crash:op=cluster,times=1"
        sock = tmp_path / "sup.sock"
        log = tmp_path / "log"
        sup = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "supervise",
             "--socket", str(sock), "--log-dir", str(log),
             "--drain-timeout", "8", "--poison-threshold", "1",
             "--max-restarts", "2"],
            cwd=REPO_ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        pid1 = pid2 = None
        try:
            wait_for_server(str(sock), timeout=60.0)
            g, _spec = corpus.load("ppa", 0)
            u, v = _new_edge_for(g)
            upd = {"op": "update_graph", "graph": "ppa", "seed": 0,
                   "add": [[u, v, 2.5]], "remove": [], "idem": "sup-1"}
            with ServeClient(str(sock), timeout=120.0, retries=15,
                             backoff_base=0.3, backoff_cap=2.0) as client:
                pid1 = client.request({"op": "ping"})["pid"]
                assert client.request(_req())["status"] == "ok"
                r_upd = client.request(upd)
                assert r_upd["status"] == "ok"
                # the armed fault kills the daemon inside this request;
                # the client retries through the respawn, and the
                # recovered daemon (threshold 1) answers the typed
                # quarantine instead of crashing again
                r_cluster = client.request(_req(op="cluster",
                                                graph="citation"))
                assert r_cluster["status"] == "error"
                assert r_cluster["kind"] == "PoisonQuarantined"
                pid2 = client.request({"op": "ping"})["pid"]
                assert pid2 != pid1
                # the quarantine is contained: everything else serves,
                # and the recovered hierarchy still hits
                r_k8 = client.request(_req(k=8))
                assert r_k8["status"] == "ok"
                assert r_k8["meta"]["hierarchy"] == "hit"
                # exactly-once across the crash
                records, _ = ServeJournal.scan(log / "state.jsonl")
                types = [r["type"] for r in records]
                assert types.count("update") == 1
                assert "recovered" in types
                r_retry = client.request(upd)
                assert _canon(r_retry) == _canon(r_upd)
            sup.send_signal(signal.SIGTERM)
            assert sup.wait(timeout=60) == 0
            assert not sock.exists()
        finally:
            if sup.poll() is None:
                sup.kill()
                sup.wait(timeout=10)
        leaked = [s for s in shm_lifecycle.list_segments()
                  if s["pid"] in (pid1, pid2)]
        assert leaked == [], leaked
