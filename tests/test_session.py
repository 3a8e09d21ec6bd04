"""Fault-tolerant sessions: journal/resume, retry/quarantine, chaos matrix."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import faultinject
from repro.bench.report import EXIT_QUARANTINED, main as bench_main
from repro.csr.graph import CSRGraph
from repro.csr.validation import GraphValidationError, find_defects
from repro.parallel import shm as shm_lifecycle
from repro.parallel.pool import ExperimentTask, format_pool_summary
from repro.parallel.session import (
    SessionJournal,
    SessionMismatch,
    backoff_delay,
    row_digest,
    run_session,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

TASKS = [ExperimentTask(kind="coarsen", graph=g) for g in ("ppa", "citation")]


@pytest.fixture(autouse=True)
def _disarm_faults():
    faultinject.clear()
    yield
    faultinject.clear()


def _rows_key(results):
    return json.dumps(results, sort_keys=True)


def _no_leaks():
    """No shm segments owned by this process, no lingering children."""
    import multiprocessing as mp

    mine = [s for s in shm_lifecycle.list_segments() if s["pid"] == os.getpid()]
    assert mine == [], mine
    for child in mp.active_children():
        child.join(5.0)
        assert not child.is_alive()


# ------------------------------------------------------- pure components


class TestBackoff:
    def test_deterministic(self):
        assert backoff_delay("k", 1) == backoff_delay("k", 1)

    def test_keys_decorrelate(self):
        assert backoff_delay("a", 1) != backoff_delay("b", 1)

    def test_capped_exponential_envelope(self):
        for attempt in range(8):
            d = backoff_delay("k", attempt, base=0.25, cap=5.0)
            assert 0.0 < d <= 5.0
            assert d >= min(5.0, 0.25 * 2.0**attempt) * 0.5

    def test_zero_base_disables(self):
        assert backoff_delay("k", 3, base=0.0) == 0.0


class TestJournal:
    def test_append_scan_round_trip(self, tmp_path):
        j = SessionJournal(tmp_path)
        j.open()
        j.append({"type": "session", "tasks_fp": "abc"})
        j.append({"type": "done", "key": "k", "row": {"x": 1.5}})
        j.close()
        records, valid = SessionJournal.scan(j.path)
        assert [r["type"] for r in records] == ["session", "done"]
        assert records[1]["row"] == {"x": 1.5}
        assert valid == j.path.stat().st_size

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        j = SessionJournal(tmp_path)
        j.open()
        j.append({"type": "session", "tasks_fp": "abc"})
        j.close()
        with open(j.path, "ab") as fh:
            fh.write(b'{"type": "done", "key": "k", "ro')  # torn write
        records, valid = SessionJournal.scan(j.path)
        assert len(records) == 1
        assert valid < j.path.stat().st_size
        j2 = SessionJournal(tmp_path)
        j2.open(truncate_to=valid)
        assert j2.path.stat().st_size == valid

    def test_scan_missing_file(self, tmp_path):
        assert SessionJournal.scan(tmp_path / "nope.jsonl") == ([], 0)

    def test_row_digest_stable_across_json_round_trip(self):
        row = {"graph": "ppa", "total_s": 0.123456789e-3, "levels": 2}
        replayed = json.loads(json.dumps(row))
        assert row_digest(row) == row_digest(replayed)


# ------------------------------------------------- resume & retry (task_fn)


def _marked_task(task):
    """Picklable test task: records each execution in SESSION_TEST_DIR."""
    d = Path(os.environ["SESSION_TEST_DIR"])
    with open(d / f"{task.graph}.count", "a") as fh:
        fh.write("x")
    return {"key": task.key(), "pid": os.getpid(), "wall_s": 0.0,
            "row": {"graph": task.graph, "seed": task.seed}}


def _failing_task(task):
    raise ValueError(f"boom {task.graph}")


def _slow_first_task(task):
    """Picklable test task: the first of TASKS finishes last."""
    if task.graph == TASKS[0].graph:
        time.sleep(1.0)
    return {"key": task.key(), "pid": os.getpid(), "wall_s": 0.0,
            "row": {"graph": task.graph}}


class TestResume:
    def _runs(self, tmp_path, graph):
        p = tmp_path / f"{graph}.count"
        return len(p.read_text()) if p.exists() else 0

    def test_completed_tasks_replay_not_rerun(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SESSION_TEST_DIR", str(tmp_path))
        sess = tmp_path / "sess"
        first = run_session(TASKS, jobs=1, task_fn=_marked_task, session_dir=sess)
        assert self._runs(tmp_path, "ppa") == 1
        second = run_session(TASKS, jobs=1, task_fn=_marked_task, session_dir=sess)
        assert self._runs(tmp_path, "ppa") == 1  # replayed, not re-executed
        assert second.summary["resumed"] == len(TASKS)
        assert _rows_key(second.results) == _rows_key(first.results)

    def test_partial_journal_schedules_only_remainder(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SESSION_TEST_DIR", str(tmp_path))
        sess = tmp_path / "sess"
        run_session(TASKS[:1], jobs=1, task_fn=_marked_task, session_dir=sess)
        # simulate the interrupted full session: same journal dir would
        # carry a different task fingerprint, so build the real one
        full_sess = tmp_path / "full"
        first = run_session(TASKS, jobs=1, task_fn=_marked_task,
                            session_dir=full_sess)
        # drop the second done record to fake a mid-run kill
        records, _ = SessionJournal.scan(full_sess / "journal.jsonl")
        keep = [r for r in records if not (
            r.get("type") == "done" and r.get("key") == TASKS[1].key()
        ) and r.get("type") != "end"]
        with open(full_sess / "journal.jsonl", "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in keep)
        before = self._runs(tmp_path, "citation")
        resumed = run_session(TASKS, jobs=1, task_fn=_marked_task,
                              session_dir=full_sess)
        assert self._runs(tmp_path, "citation") == before + 1
        assert resumed.summary["resumed"] == 1
        assert _rows_key(resumed.results) == _rows_key(first.results)

    def test_mismatched_task_set_refused(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SESSION_TEST_DIR", str(tmp_path))
        sess = tmp_path / "sess"
        run_session(TASKS, jobs=1, task_fn=_marked_task, session_dir=sess)
        other = [ExperimentTask(kind="coarsen", graph="kron21")]
        with pytest.raises(SessionMismatch):
            run_session(other, jobs=1, task_fn=_marked_task, session_dir=sess)

    def test_tampered_row_fails_digest_and_reruns(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SESSION_TEST_DIR", str(tmp_path))
        sess = tmp_path / "sess"
        run_session(TASKS[:1], jobs=1, task_fn=_marked_task, session_dir=sess)
        path = sess / "journal.jsonl"
        records, _ = SessionJournal.scan(path)
        for r in records:
            if r.get("type") == "done":
                r["row"]["seed"] = 999  # digest no longer matches
        with open(path, "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
        with pytest.warns(RuntimeWarning, match="fails its digest"):
            out = run_session(TASKS[:1], jobs=1, task_fn=_marked_task,
                              session_dir=sess)
        assert out.summary["resumed"] == 0
        assert self._runs(tmp_path, "ppa") == 2  # re-executed
        assert out.results[0]["seed"] == 0  # the honest value, not 999

    def test_torn_tail_resume(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SESSION_TEST_DIR", str(tmp_path))
        sess = tmp_path / "sess"
        first = run_session(TASKS, jobs=1, task_fn=_marked_task, session_dir=sess)
        with open(sess / "journal.jsonl", "ab") as fh:
            fh.write(b'{"half a reco')
        out = run_session(TASKS, jobs=1, task_fn=_marked_task, session_dir=sess)
        assert _rows_key(out.results) == _rows_key(first.results)


class TestRetryQuarantine:
    def test_exhausted_retries_quarantine_not_raise(self, tmp_path):
        sess = tmp_path / "sess"
        out = run_session(TASKS[:1], jobs=1, task_fn=_failing_task,
                          retries=1, backoff_base=0.0, session_dir=sess)
        assert out.results == []
        assert out.summary["retries"] == 1
        assert out.summary["quarantined"] == 1
        (entry,) = out.failed
        assert entry["attempts"] == 2 and entry["kind"] == "ValueError"
        types = [r["type"] for r in SessionJournal.scan(sess / "journal.jsonl")[0]]
        assert types.count("fail") == 2 and types.count("quarantine") == 1

    def test_other_tasks_complete_around_quarantine(self):
        faultinject.install("pool.worker:error:graph=ppa")
        try:
            out = run_session(TASKS, jobs=1, retries=0)
        finally:
            faultinject.clear()
        assert [r["graph"] for r in out.results] == ["citation"]
        assert out.failed[0]["key"] == TASKS[0].key()

    def test_transient_failure_retried_to_success(self):
        base = run_session(TASKS, jobs=1)
        # attempts 0 and 1 fail deterministically, attempt 2 succeeds
        faultinject.install("pool.worker:error:graph=ppa,attempt<2")
        out = run_session(TASKS, jobs=1, retries=2, backoff_base=0.0)
        assert out.summary["retries"] == 2
        assert out.summary["quarantined"] == 0
        assert _rows_key(out.results) == _rows_key(base.results)


# ----------------------------------------------------- supervised pool


class TestSupervisedPool:
    def test_worker_crash_respawn_charges_only_victim(self):
        base = run_session(TASKS, jobs=1)
        faultinject.install("pool.worker:crash:graph=ppa,attempt<1")
        try:
            out = run_session(TASKS, jobs=2, retries=2, backoff_base=0.0)
        finally:
            faultinject.clear()
        assert out.summary["crashes"] == 1
        assert out.summary["quarantined"] == 0
        assert _rows_key(out.results) == _rows_key(base.results)
        assert out.failed == []
        _no_leaks()

    def test_hang_killed_and_retried(self):
        base = run_session(TASKS, jobs=1)
        faultinject.install("pool.worker:hang:graph=citation,attempt<1,sleep=60")
        try:
            out = run_session(TASKS, jobs=2, retries=2, backoff_base=0.0,
                              task_timeout=2.0)
        finally:
            faultinject.clear()
        assert out.summary["hangs"] == 1
        assert out.summary["quarantined"] == 0
        assert _rows_key(out.results) == _rows_key(base.results)
        _no_leaks()

    def test_persistent_crash_quarantined_pool_survives(self):
        faultinject.install("pool.worker:crash:graph=ppa")
        try:
            out = run_session(TASKS, jobs=2, retries=1, backoff_base=0.0)
        finally:
            faultinject.clear()
        assert out.summary["quarantined"] == 1
        assert out.failed[0]["kind"] == "WorkerCrash"
        assert "exit code 70" in out.failed[0]["error"]
        assert [r["graph"] for r in out.results] == ["citation"]
        _no_leaks()

    def test_task_fn_rows_follow_task_order_not_completion_order(self):
        out = run_session(TASKS, jobs=2, retries=0, task_fn=_slow_first_task)
        assert [r["graph"] for r in out.results] == [t.graph for t in TASKS]
        _no_leaks()


# -------------------------------------------------------- degradations


class TestDegradation:
    def test_pool_create_failure_falls_back_to_serial(self):
        base = run_session(TASKS, jobs=1)
        faultinject.install("pool.create:oserror")
        try:
            with pytest.warns(RuntimeWarning, match="degraded"):
                out = run_session(TASKS, jobs=2)
        finally:
            faultinject.clear()
        assert any(d["site"] == "pool.create" for d in out.summary["degradations"])
        assert _rows_key(out.results) == _rows_key(base.results)
        _no_leaks()

    def test_journal_write_failure_disables_journal_not_session(self, tmp_path):
        faultinject.install("journal.write:oserror:after=1")
        try:
            with pytest.warns(RuntimeWarning, match="journal write failed"):
                out = run_session(TASKS, jobs=1, session_dir=tmp_path / "s")
        finally:
            faultinject.clear()
        assert len(out.results) == len(TASKS)
        assert out.summary["journal_disabled"] is True
        assert any(d["site"] == "journal.write"
                   for d in out.summary["degradations"])


# --------------------------------------------------------- chaos matrix


def _graph_cache_fresh(monkeypatch, tmp_path):
    import repro.generators.corpus as c

    monkeypatch.setattr(c, "_CACHE_DIR", tmp_path / "fresh-cache")


CHAOS_CELLS = [
    # (fault spec, extra session kwargs, fresh graph cache, recovery is
    #  visible in the session summary)
    ("pool.worker:crash:attempt<2,graph=ppa", {"jobs": 2}, False, True),
    ("pool.worker:hang:attempt<1,graph=ppa,sleep=60",
     {"jobs": 2, "task_timeout": 2.0}, False, True),
    ("pool.worker:oserror:attempt<2,graph=ppa", {"jobs": 2}, False, True),
    ("pool.worker:error:attempt<1,graph=citation", {"jobs": 2}, False, True),
    ("pool.create:oserror", {"jobs": 2}, False, True),
    # cache-store failure degrades inside the cache (store_failures ledger,
    # asserted below); invisible to the session summary by design
    ("cache.store:oserror", {"jobs": 2}, True, False),
    ("journal.write:oserror:after=1", {"jobs": 2}, False, True),
]


class TestChaosMatrix:
    """Every injected fault ends in retry, quarantine, or degradation —

    never a hang, a stranded worker, or a leaked shm segment — and the
    surviving results match the fault-free run byte for byte.  The
    crash/kill kinds at *parent* sites are exercised by
    ``TestKillResume`` below (they must take down a subprocess, not the
    test runner)."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return _rows_key(run_session(TASKS, jobs=1).results)

    @pytest.mark.parametrize(
        "spec,kwargs,fresh_cache,expect_recovery", CHAOS_CELLS,
        ids=["-".join(c[0].split(":")[:2]) for c in CHAOS_CELLS],
    )
    def test_cell_recovers_cleanly(self, spec, kwargs, fresh_cache,
                                   expect_recovery, baseline, tmp_path,
                                   monkeypatch):
        if fresh_cache:
            _graph_cache_fresh(monkeypatch, tmp_path)
        faultinject.install(spec)
        t0 = time.monotonic()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = run_session(
                    TASKS, retries=2, backoff_base=0.0,
                    session_dir=tmp_path / "sess", **kwargs,
                )
        finally:
            faultinject.clear()
        assert time.monotonic() - t0 < 60, "chaos cell took pathologically long"
        assert out.summary["quarantined"] == 0, out.failed
        assert _rows_key(out.results) == baseline
        recovered = bool(
            out.summary["retries"] or out.summary["crashes"]
            or out.summary["hangs"] or out.summary["degradations"]
        )
        assert recovered == expect_recovery
        _no_leaks()

    def test_cache_store_failure_counts_in_ledger(self, tmp_path, monkeypatch):
        import repro.generators.corpus as c

        _graph_cache_fresh(monkeypatch, tmp_path)
        faultinject.install("cache.store:oserror")
        try:
            with pytest.warns(RuntimeWarning, match="cache store"):
                g, _spec = c.load("ppa", 0)
        finally:
            faultinject.clear()
        assert g.n > 0
        assert c._get_cache().stats().store_failures >= 1


# ------------------------------------------------ SIGKILL resume (CLI)


class TestKillResume:
    def test_sigkill_midrun_then_resume_bitwise_identical(self, tmp_path):
        from tests.test_pool import _tree_bytes

        graphs = "ppa,citation"
        base_dir = tmp_path / "base"
        assert bench_main(["--trace-dir", str(base_dir), "corpus",
                           "--graphs", graphs]) == 0

        sess = tmp_path / "sess"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop(faultinject.ENV_VAR, None)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bench",
             "--trace-dir", str(tmp_path / "killed"),
             "--faults", "journal.write:kill:after=2",
             "corpus", "--graphs", graphs, "--resume", str(sess),
             "--jobs", "2"],
            cwd=REPO_ROOT, env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode in (-9, 137), proc.stderr.decode()[-2000:]
        records, _ = SessionJournal.scan(sess / "journal.jsonl")
        assert records[0]["type"] == "session"
        assert sum(r["type"] == "done" for r in records) == 1

        # workers inherit the corpus through fork: even a SIGKILL, which
        # skips every cleanup path, leaves no segment behind
        assert shm_lifecycle.list_segments() == []

        out_dir = tmp_path / "resumed"
        assert bench_main(["--trace-dir", str(out_dir), "corpus",
                           "--graphs", graphs, "--resume", str(sess),
                           "--jobs", "2"]) == 0
        assert _tree_bytes(out_dir) == _tree_bytes(base_dir)


# ------------------------------------------------------ CLI behaviours


class TestSessionCLI:
    def test_quarantine_exit_code_is_distinct(self, capsys):
        faultinject.install("pool.worker:error:graph=ppa")
        try:
            rc = bench_main(["corpus", "--graphs", "ppa", "--retries", "0"])
        finally:
            faultinject.clear()
        assert rc == EXIT_QUARANTINED == 3
        out = capsys.readouterr().out
        assert "FAILED" in out and "quarantined" in out

    def test_validate_corpus_flag_passes_on_real_corpus(self):
        assert bench_main(["corpus", "--graphs", "ppa", "--validate-corpus"]) == 0

    def test_unknown_graph_subset_rejected(self):
        with pytest.raises(SystemExit, match="unknown corpus graph"):
            bench_main(["corpus", "--graphs", "not-a-graph"])

    def test_summary_surfaces_recovery_and_failures(self):
        summary = {
            "jobs": 2, "tasks": 3, "wall_s": 1.0, "busy_s": 1.2,
            "utilization": 0.6, "overhead_s": 0.4,
            "workers": {}, "retries": 2, "crashes": 1, "hangs": 0,
            "quarantined": 1, "resumed": 1,
            "degradations": [
                {"site": "pool.create", "action": "serial-fallback",
                 "error": "EAGAIN"},
            ],
            "failed": [
                {"key": "coarsen:gpu:hec:sort:ppa:s0", "attempts": 3,
                 "kind": "WorkerCrash", "error": "exit code 70"},
            ],
        }
        text = format_pool_summary(summary)
        assert "recovery" in text and "retries 2" in text
        assert "crashes 1" in text and "quarantined 1" in text
        assert "resumed 1" in text
        assert "degraded  pool.create -> serial-fallback (EAGAIN)" in text
        assert "FAILED  coarsen:gpu:hec:sort:ppa:s0" in text


# -------------------------------------------- structural graph validation


def _path_graph(**overrides):
    """0 - 1 - 2 path graph, optionally corrupted via overrides."""
    arrays = dict(
        xadj=np.array([0, 1, 3, 4]),
        adjncy=np.array([1, 0, 2, 1]),
        ewgts=np.array([1.0, 1.0, 1.0, 1.0]),
        vwgts=np.array([1.0, 1.0, 1.0]),
    )
    arrays.update(overrides)
    return CSRGraph(**arrays)


def _codes(g):
    return {f["code"] for f in find_defects(g)}


class TestGraphValidation:
    def test_valid_graph_has_no_findings(self):
        g = _path_graph()
        assert find_defects(g) == []
        g.validate()  # does not raise

    def test_indptr_endpoints(self):
        assert "indptr-endpoints" in _codes(
            _path_graph(xadj=np.array([0, 1, 3, 5]))
        )

    def test_indptr_monotonic(self):
        assert "indptr-monotonic" in _codes(
            _path_graph(xadj=np.array([0, 2, 1, 4]))
        )

    def test_length_mismatch(self):
        assert "length-mismatch" in _codes(
            _path_graph(vwgts=np.array([1.0, 1.0]))
        )

    def test_index_range_short_circuits_gathers(self):
        findings = find_defects(_path_graph(adjncy=np.array([1, 0, 5, 1])))
        assert [f["code"] for f in findings] == ["index-range"]

    def test_self_loop(self):
        assert "self-loop" in _codes(_path_graph(adjncy=np.array([1, 0, 2, 2])))

    def test_rows_unsorted(self):
        assert "rows-unsorted" in _codes(
            _path_graph(adjncy=np.array([1, 2, 0, 1]))
        )

    def test_duplicate_edge(self):
        assert "duplicate-edge" in _codes(
            _path_graph(adjncy=np.array([1, 0, 0, 1]))
        )

    def test_asymmetric_weights(self):
        assert "asymmetric" in _codes(
            _path_graph(ewgts=np.array([1.0, 1.0, 2.0, 1.0]))
        )

    def test_bad_weights(self):
        assert "edge-weight" in _codes(
            _path_graph(ewgts=np.array([1.0, -1.0, 1.0, 1.0]))
        )
        assert "vertex-weight" in _codes(
            _path_graph(vwgts=np.array([1.0, 0.0, 1.0]))
        )

    def test_validate_raises_with_structured_findings(self):
        g = _path_graph(adjncy=np.array([1, 0, 2, 2]))
        with pytest.raises(GraphValidationError, match="invalid graph") as exc:
            g.validate()
        assert any(f["code"] == "self-loop" for f in exc.value.findings)

