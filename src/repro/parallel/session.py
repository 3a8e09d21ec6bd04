"""Fault-tolerant experiment sessions: journal, resume, retry, degrade.

The paper's sweeps are hours-long cross-products of independent tasks
(the task model lives in :mod:`repro.parallel.pool`).  :func:`run_session`
is the one executor that runs them, inline or over supervised worker
processes, inside a failure-state machine so **no single fault costs
more than one task's work**:

* **Deterministic merge.**  Results are keyed by task configuration and
  re-emitted in the caller's task order, never in completion order —
  the merged results, ledger totals, and trace rollups are bitwise
  identical to a serial run at any ``jobs`` value and any interleave.
  Largest graph first (LPT) scheduling keeps a long-running graph from
  ending up as the lone straggler behind a drained queue.
* **Session journal + resume.**  Every completed task is appended to an
  fsynced JSONL journal (key, attempt, scalar row; every record carries
  its ``seq`` and a digest, see :class:`Journal`).  A session restarted
  with the same task set replays completed rows from the journal's valid
  prefix and only schedules the remainder; the merged results are
  byte-identical to an uninterrupted run because rows are pure functions
  of their configuration.
* **Retry with quarantine.**  A failed attempt is retried up to
  ``retries`` times with capped exponential backoff whose schedule is a
  pure function of ``(key, attempt)`` — no wall-clock randomness.
  A task that exhausts its retries is quarantined into the journal with
  its error and the session completes the rest, reporting ``failed``
  instead of raising.
* **Supervised workers.**  Unlike ``ProcessPoolExecutor`` (which breaks
  the whole pool on one dead child), each worker is a supervised process
  with its own duplex pipe: the parent knows exactly which task each
  worker runs, so a crash charges an attempt to *that* task only, the
  worker is respawned, and the session continues.  A task exceeding
  ``task_timeout`` is treated as hung: its worker is killed and
  respawned, the attempt charged.
* **Inherited corpus.**  Before it starts workers, the parent loads each
  needed graph once into :data:`repro.parallel.pool._WORKER_GRAPHS`;
  workers are forked from it and read the same pages copy-on-write.
* **Graceful degradation.**  Worker spawn failure falls back to the
  serial path, and a journal write failure disarms the journal.  Both
  produce byte-identical results and are reported in the session
  summary instead of being silent.

Fault-injection points (:mod:`repro.faultinject`) are threaded through
every one of these paths so CI can prove each recovery transition.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import multiprocessing as mp
import os
import time
import warnings
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Callable, Sequence

from .. import faultinject
from ..cache.atomic import atomic_write_bytes, fsync_dir
from ..cache.store import fingerprint_payload
from .pool import (
    _WORKER_GRAPHS,
    ExperimentTask,
    _check_unique,
    _run_task,
    _worker_init,
    task_weight,
)

__all__ = [
    "JOURNAL_NAME",
    "Journal",
    "SessionJournal",
    "SessionMismatch",
    "SessionOutcome",
    "backoff_delay",
    "record_digest",
    "run_session",
]

JOURNAL_NAME = "journal.jsonl"
JOURNAL_SCHEMA = 1

#: seconds to wait for a killed worker to be reaped
_KILL_JOIN_S = 5.0


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def record_digest(record: dict) -> str:
    """16-hex sha256 of a journal record (excluding its own ``sha`` field)."""
    body = {k: v for k, v in record.items() if k != "sha"}
    return hashlib.sha256(_canonical(body).encode()).hexdigest()[:16]


def backoff_delay(
    key: str, attempt: int, *, base: float = 0.25, cap: float = 5.0
) -> float:
    """Deterministic capped exponential backoff for one retry.

    ``min(cap, base * 2**attempt)`` scaled into ``[0.5x, 1x)`` by a
    jitter that is a pure hash of ``(key, attempt)`` — two sessions
    replaying the same failures produce the *same* schedule, and
    co-failing tasks still decorrelate (different keys, different
    jitter).  No wall-clock or RNG state enters the decision.
    """
    if base <= 0.0:
        return 0.0
    # the fixed "0:" prefix is hashed too: changing it changes every delay
    h = int.from_bytes(
        hashlib.sha256(f"0:{key}:{attempt}".encode()).digest()[:8], "big"
    )
    jitter = h / 2.0**64  # [0, 1)
    return min(cap, base * (2.0**attempt)) * (0.5 + 0.5 * jitter)


class SessionMismatch(ValueError):
    """The journal in the resume directory belongs to a different task set."""


class Journal:
    """Append-only, digest-verified, per-record-fsynced JSONL journal.

    Every record is one line stamped with ``seq`` (its index in the
    file) and ``sha`` (:func:`record_digest`), written + flushed +
    ``fsync``'d before the writer proceeds, so a SIGKILL at any instant
    loses at most the record being written.  :meth:`scan` keeps the
    prefix before the first torn, unparsable, out-of-sequence or
    digest-failing line, and reopening truncates to it.  The directory
    entry is fsynced on creation (:func:`repro.cache.atomic.fsync_dir`).

    A write failure (disk full) does not kill the writer: the journal
    disarms itself and warns, and the run continues without crash
    coverage.  Subclasses bind the file name and the fault site.
    """

    #: file name under the journal's directory
    NAME: str

    def __init__(self, directory):
        self.dir = Path(directory)
        self.path = self.dir / self.NAME
        self._fh = None
        self.seq = 0
        self.disabled = False
        self.write_failures = 0

    def fire(self, **labels) -> None:
        """Fire this journal's fault site; runs before every write."""
        raise NotImplementedError

    @staticmethod
    def scan(path) -> tuple[list[dict], int]:
        """Parse a journal; returns ``(records, valid_byte_length)``.

        Everything before the first bad line was fsynced before the next
        was written, so the valid prefix is the exact pre-crash state.
        """
        try:
            blob = Path(path).read_bytes()
        except OSError:
            return [], 0
        records: list[dict] = []
        valid = 0
        for raw in blob.splitlines(keepends=True):
            if not raw.endswith(b"\n"):
                break  # torn tail from a killed writer
            try:
                rec = json.loads(raw)
            except ValueError:
                break
            if (
                not isinstance(rec, dict)
                or rec.get("seq") != len(records)
                or rec.get("sha") != record_digest(rec)
            ):
                break
            records.append(rec)
            valid += len(raw)
        return records, valid

    def open(self, *, truncate_to: int | None = None, seq: int = 0) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "ab")
        if truncate_to is not None:
            fh.truncate(truncate_to)
        self._fh = fh
        self.seq = seq
        fsync_dir(self.dir)

    def append(self, record: dict) -> bool:
        """Durably append one record; False when journaling is degraded."""
        if self.disabled or self._fh is None:
            return False
        record = {"seq": self.seq, **record}
        try:
            self.fire(type=record.get("type", ""), seq=self.seq)
            record["sha"] = record_digest(record)
            self._fh.write((_canonical(record) + "\n").encode())
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as e:
            self.disabled = True
            self.write_failures += 1
            warnings.warn(
                f"journal write failed ({e}) on {self.path}; work continues, "
                "but this run can no longer be resumed or crash-recovered",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        self.seq += 1
        return True

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover
                pass
            self._fh = None


class SessionJournal(Journal):
    """The journal of one experiment session (``--resume DIR``)."""

    NAME = JOURNAL_NAME

    def fire(self, **labels) -> None:
        faultinject.fire("journal.write", **labels)


@dataclass
class SessionOutcome:
    """Merged results (task order) + accounting + quarantined tasks."""

    results: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    failed: list = field(default_factory=list)


# ------------------------------------------------------ supervised worker


def _worker_main(conn, parent_conn, parent_pid, task_fn, threads=None) -> None:
    """Worker process loop: serve ``(task, attempt)`` requests until None.

    A forked worker inherits duplicates of the parent-side pipe ends (its
    own and any earlier sibling's), so parent death does NOT deliver EOF
    on ``conn``.  The inherited copy of our own parent end is closed here,
    and the receive loop polls with a ``getppid`` orphan check so a
    SIGKILL'd session never strands workers blocking on a pipe that can
    no longer close.
    """
    if parent_conn is not None:
        try:
            parent_conn.close()
        except OSError:  # pragma: no cover
            pass
    _worker_init(threads)
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    break  # parent died without cleanup: exit, don't strand
                continue
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        task, attempt = msg
        try:
            out = task_fn(task) if task_fn is not None else _run_task(task, attempt)
            payload = ("ok", out)
        except BaseException as e:  # noqa: BLE001 - marshalled to the parent
            payload = (
                "err", {"kind": type(e).__name__, "error": str(e) or type(e).__name__}
            )
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


class _Worker:
    """One supervised worker process with a dedicated duplex pipe.

    The parent tracks exactly which ``(task, attempt)`` the worker is
    running, so worker death or a hang is attributable to one task —
    the property ``ProcessPoolExecutor`` cannot provide.
    """

    def __init__(self, ctx, task_fn, threads=None):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child, self.conn, os.getpid(), task_fn, threads),
            daemon=True,
        )
        self.proc.start()
        child.close()
        self.task_idx: int | None = None
        self.attempt = 0
        self.started = 0.0

    @property
    def busy(self) -> bool:
        return self.task_idx is not None

    def assign(self, idx: int, task: ExperimentTask, attempt: int) -> None:
        self.conn.send((task, attempt))
        self.task_idx = idx
        self.attempt = attempt
        self.started = time.monotonic()

    def clear(self) -> None:
        self.task_idx = None

    def kill(self) -> None:
        """Terminate the process (escalating to SIGKILL) and reap it."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(1.0)
            if self.proc.is_alive():
                self.proc.kill()
        self.proc.join(_KILL_JOIN_S)


# ---------------------------------------------------------- session state


class _SessionState:
    """Bookkeeping shared by the pool and serial engines."""

    def __init__(self, tasks, keys, *, retries, backoff_base, journal):
        self.tasks = tasks
        self.keys = keys
        self.retries = retries
        self.backoff_base = backoff_base
        self.journal = journal
        self.by_key: dict[str, dict] = {}
        self.workers: dict[int, dict] = {}
        self.busy_s = 0.0
        self.retried = 0
        self.crashes = 0
        self.hangs = 0
        self.resumed = 0
        self.degradations: list[dict] = []
        self.quarantined: dict[int, dict] = {}
        self._order = 0

    def next_order(self) -> int:
        self._order += 1
        return self._order

    def journal_append(self, record: dict) -> None:
        if self.journal is not None:
            before = self.journal.disabled
            self.journal.append(record)
            if self.journal.disabled and not before:
                self.degrade("journal.write", "journaling-disabled",
                             "journal write failed")

    def degrade(self, site: str, action: str, error) -> None:
        entry = {"site": site, "action": action, "error": str(error)}
        self.degradations.append(entry)
        warnings.warn(
            f"degraded: {site} -> {action} ({error})", RuntimeWarning, stacklevel=3
        )
        if site != "journal.write":
            self.journal_append({"type": "degrade", **entry})

    def success(self, idx: int, out: dict) -> None:
        key = self.keys[idx]
        row = out["row"]
        self.by_key[key] = row
        w = self.workers.setdefault(out["pid"], {"tasks": 0, "busy_s": 0.0})
        w["tasks"] += 1
        w["busy_s"] += out["wall_s"]
        self.busy_s += out["wall_s"]
        self.journal_append(
            {"type": "done", "key": key, "attempt": out.get("attempt", 0),
             "row": row}
        )

    def failure(self, idx: int, attempt: int, kind: str, message: str,
                pending: list, now: float) -> None:
        """Charge a failed attempt: schedule a retry or quarantine."""
        key = self.keys[idx]
        self.journal_append(
            {"type": "fail", "key": key, "attempt": attempt, "kind": kind,
             "error": message}
        )
        if attempt >= self.retries:
            entry = {"key": key, "attempts": attempt + 1, "kind": kind,
                     "error": message}
            self.quarantined[idx] = entry
            self.journal_append({"type": "quarantine", **entry})
            return
        self.retried += 1
        delay = backoff_delay(key, attempt, base=self.backoff_base)
        heapq.heappush(pending, (now + delay, self.next_order(), idx, attempt + 1))


# ---------------------------------------------------------------- engines


def _run_one(task_fn, task, attempt):
    out = task_fn(task) if task_fn is not None else _run_task(task, attempt)
    out.setdefault("attempt", attempt)
    return out


def _serial_drain(state: _SessionState, pending: list, task_fn) -> None:
    """Run the pending queue inline, honouring backoff and retries."""
    while pending:
        ready_at, _order, idx, attempt = heapq.heappop(pending)
        wait = ready_at - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        try:
            out = _run_one(task_fn, state.tasks[idx], attempt)
        except Exception as e:  # noqa: BLE001 - retried or quarantined
            state.failure(idx, attempt, type(e).__name__, str(e) or type(e).__name__,
                          pending, time.monotonic())
            continue
        state.success(idx, out)


def _spawn_workers(state, ctx, task_fn, jobs, threads=None):
    """Create the supervised worker set; None on total spawn failure."""
    workers: list[_Worker] = []
    try:
        faultinject.fire("pool.create", jobs=jobs)
        for _ in range(jobs):
            workers.append(_Worker(ctx, task_fn, threads))
    except OSError as e:
        for w in workers:
            w.kill()
        state.degrade("pool.create", "serial-fallback", e)
        return None
    return workers


def _pool_drain(state: _SessionState, pending: list, *, jobs, task_fn,
                task_timeout, threads=None) -> list:
    """Drain the pending queue over supervised workers.

    Returns a (possibly empty) list of still-pending entries — non-empty
    only when the pool degraded away entirely and the caller should
    finish serially.
    """
    ctx = mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    )
    workers = _spawn_workers(state, ctx, task_fn, jobs, threads)
    if workers is None:
        return pending

    def respawn(i: int) -> bool:
        try:
            workers[i] = _Worker(ctx, task_fn, threads)
            return True
        except OSError as e:
            state.degrade("pool.respawn", "serial-fallback", e)
            return False

    def fail_over_to_serial() -> list:
        """Kill every worker, requeue their in-flight tasks, hand back."""
        for w in workers:
            if w.busy:
                heapq.heappush(
                    pending,
                    (0.0, state.next_order(), w.task_idx, w.attempt),
                )
                w.clear()
            w.kill()
        workers.clear()
        return pending

    try:
        while pending or any(w.busy for w in workers):
            now = time.monotonic()

            # hand ready tasks to idle workers
            for i, w in enumerate(workers):
                if w.busy or not pending or pending[0][0] > now:
                    continue
                if not w.proc.is_alive():
                    w.kill()
                    if not respawn(i):
                        return fail_over_to_serial()
                    w = workers[i]
                ready_at, _order, idx, attempt = heapq.heappop(pending)
                try:
                    w.assign(idx, state.tasks[idx], attempt)
                except (BrokenPipeError, OSError):
                    # died between liveness check and send: task never ran
                    heapq.heappush(pending, (ready_at, _order, idx, attempt))
                    state.crashes += 1
                    w.kill()
                    if not respawn(i):
                        return fail_over_to_serial()

            busy = [w for w in workers if w.busy]
            # earliest of: next backoff release, per-task hang deadline —
            # bounded so supervision never sleeps past an event it must
            # react to.  The backoff release only matters while a worker
            # is idle to take the task; with every worker busy it would
            # clamp the wait to 0s and spin the supervisor against the
            # workers it supervises
            timeouts = []
            if pending and len(busy) < len(workers):
                timeouts.append(max(0.0, pending[0][0] - now))
            if task_timeout is not None:
                timeouts.extend(
                    max(0.0, w.started + task_timeout - now) for w in busy
                )
            if not busy:
                if pending:
                    time.sleep(min(timeouts) if timeouts else 0.01)
                continue

            waitables = {w.conn: w for w in busy}
            sentinels = {w.proc.sentinel: w for w in busy}
            ready = mp_connection.wait(
                list(waitables) + list(sentinels),
                timeout=min(timeouts) if timeouts else 0.5,
            )
            now = time.monotonic()
            handled: set[int] = set()
            for obj in ready:
                w = waitables.get(obj) or sentinels.get(obj)
                if id(w) in handled:
                    continue
                handled.add(id(w))
                i = workers.index(w)
                idx, attempt = w.task_idx, w.attempt
                got = None
                if w.conn.poll():
                    try:
                        got = w.conn.recv()
                    except (EOFError, OSError):
                        got = None
                if got is not None:
                    status, payload = got
                    w.clear()
                    if status == "ok":
                        state.success(idx, payload)
                    else:
                        state.failure(idx, attempt, payload.get("kind", "Error"),
                                      payload.get("error", ""), pending, now)
                elif not w.proc.is_alive():
                    # worker died mid-task: charge the attempt to exactly
                    # this task, respawn the worker, keep the session up
                    code = w.proc.exitcode
                    state.crashes += 1
                    w.clear()
                    w.kill()
                    state.failure(
                        idx, attempt, "WorkerCrash",
                        f"worker process died with exit code {code} while "
                        f"running {state.keys[idx]!r}",
                        pending, now,
                    )
                    if not respawn(i):
                        return fail_over_to_serial()

            # hung tasks: kill the worker, charge the attempt, respawn
            if task_timeout is not None:
                for i, w in enumerate(workers):
                    if not w.busy or now - w.started <= task_timeout:
                        continue
                    idx, attempt = w.task_idx, w.attempt
                    state.hangs += 1
                    w.clear()
                    w.kill()
                    state.failure(
                        idx, attempt, "TaskHang",
                        f"task {state.keys[idx]!r} exceeded task_timeout="
                        f"{task_timeout:.1f}s; worker killed",
                        pending, now,
                    )
                    if not respawn(i):
                        return fail_over_to_serial()
        return []
    finally:
        for w in workers:
            if w.busy or not w.proc.is_alive():
                w.kill()
                continue
            try:
                w.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for w in workers:
            w.proc.join(2.0)
            if w.proc.is_alive():
                w.kill()
            try:
                w.conn.close()
            except OSError:  # pragma: no cover
                pass


# ------------------------------------------------------------ entry point


def run_session(
    tasks: Sequence[ExperimentTask],
    jobs: int = 1,
    *,
    session_dir=None,
    retries: int = 2,
    backoff_base: float = 0.25,
    task_timeout: float | None = None,
    task_fn: Callable | None = None,
    validate_corpus: bool = False,
    threads: int | None = None,
) -> SessionOutcome:
    """Run ``tasks`` fault-tolerantly; merge deterministically.

    ``jobs <= 1`` runs everything inline in this process (the serial
    reference path); larger values fan out over supervised workers
    forked after the corpus is loaded, so they inherit it.  Results come
    back in caller task order, byte-identical at any ``jobs``, with the
    journal/resume, retry/quarantine, and degradation machinery described
    in the module docstring.  Task keys must be unique (``ValueError``
    otherwise).  ``session_dir`` enables the journal; passing the same
    directory again resumes.  Quarantined tasks appear in
    ``outcome.failed`` (and ``summary["failed"]``) instead of raising.
    ``task_fn`` replaces the harness run of one task (a picklable
    ``task -> envelope`` callable).

    ``threads`` is the intra-run tile-thread budget
    (:mod:`repro.parallel.tiles`): the serial path installs the engine
    in-process, the pool path installs a per-worker engine clamped so
    ``jobs x threads <= cores``.  Results are bitwise identical at any
    value; ``None`` leaves whatever engine is already installed.
    """
    from . import tiles
    tasks = list(tasks)
    _check_unique(tasks)
    keys = [t.key() for t in tasks]
    t_start = time.perf_counter()

    journal = None
    if session_dir is not None:
        journal = SessionJournal(session_dir)
    state = _SessionState(
        tasks, keys, retries=retries, backoff_base=backoff_base,
        journal=journal,
    )

    if journal is not None:
        fp = fingerprint_payload({"schema": JOURNAL_SCHEMA, "keys": keys})
        records, valid = SessionJournal.scan(journal.path)
        if journal.path.is_file() and journal.path.stat().st_size > valid:
            warnings.warn(
                f"journal at {journal.path}: record {len(records)} is torn, out "
                "of sequence or fails its digest; it and every later record "
                "are dropped, and any task they finished runs again",
                RuntimeWarning,
                stacklevel=2,
            )
        if records:
            head = records[0]
            if head.get("type") != "session" or head.get("tasks_fp") != fp:
                raise SessionMismatch(
                    f"journal at {journal.path} was written by a different "
                    f"task set (fingerprint {head.get('tasks_fp')!r} != {fp!r})"
                )
            journal.open(truncate_to=valid, seq=len(records))
            key_set = set(keys)
            for rec in records[1:]:
                if rec.get("type") != "done":
                    continue
                key, row = rec.get("key"), rec.get("row")
                if key not in key_set or not isinstance(row, dict):
                    continue
                if key not in state.by_key:
                    state.resumed += 1
                state.by_key[key] = row
        else:
            journal.open(truncate_to=0)
            journal.append(
                {"type": "session", "schema": JOURNAL_SCHEMA, "tasks_fp": fp,
                 "n_tasks": len(tasks)}
            )
            atomic_write_bytes(
                journal.dir / "session.json",
                json.dumps(
                    {"schema": JOURNAL_SCHEMA, "tasks_fp": fp, "keys": keys,
                     "jobs": jobs, "retries": retries},
                    indent=1, sort_keys=True,
                ).encode(),
            )

    remaining = [i for i, k in enumerate(keys) if k not in state.by_key]

    eff_jobs = max(1, jobs)
    worker_threads = (
        None if threads is None else tiles.clamp_threads(threads, eff_jobs)
    )
    sizes: dict = {}
    _WORKER_GRAPHS.clear()
    try:
        # the pool's workers inherit these graphs through fork; the
        # serial path loads each one when its first task runs
        if task_fn is None and (eff_jobs > 1 or validate_corpus):
            from ..generators import corpus

            for name, seed in dict.fromkeys(
                (tasks[i].graph, tasks[i].seed) for i in remaining
            ):
                try:
                    g, spec = corpus.load(name, seed)
                except Exception:  # noqa: BLE001
                    # left out: each of its tasks raises this again inside
                    # the retry machinery and is quarantined, as serially
                    continue
                if validate_corpus:
                    g.validate()
                sizes[(name, seed)] = g.size_measure
                _WORKER_GRAPHS[(name, seed)] = (g, spec)
        if remaining and eff_jobs > 1:
            # LPT: biggest graph first (tier-aware), task order tie-break
            order = sorted(
                remaining,
                key=lambda i: (
                    -task_weight(tasks[i].graph, tasks[i].seed, sizes), i
                ),
            )
            pending = [
                (0.0, pos, idx, 0) for pos, idx in enumerate(order)
            ]
            heapq.heapify(pending)
            state._order = len(pending)
            leftover = _pool_drain(
                state, pending, jobs=eff_jobs, task_fn=task_fn,
                task_timeout=task_timeout, threads=worker_threads,
            )
            if leftover:
                # degraded to serial: the corpus is already in this process
                _worker_init(worker_threads)
                _serial_drain(state, leftover, task_fn)
        elif remaining:
            _worker_init(worker_threads)
            pending = [(0.0, pos, idx, 0) for pos, idx in enumerate(remaining)]
            heapq.heapify(pending)
            state._order = len(pending)
            _serial_drain(state, pending, task_fn)
    except BaseException:
        if journal is not None:
            journal.append({"type": "abort"})
            journal.close()
        raise
    finally:
        _WORKER_GRAPHS.clear()

    wall = time.perf_counter() - t_start
    results = [state.by_key[k] for k in keys if k in state.by_key]
    failed = [state.quarantined[i] for i in sorted(state.quarantined)]
    summary = {
        "jobs": eff_jobs,
        "tasks": len(tasks),
        "wall_s": wall,
        "busy_s": state.busy_s,
        "utilization": state.busy_s / (eff_jobs * wall) if wall > 0 else 0.0,
        "overhead_s": max(0.0, wall - state.busy_s / eff_jobs),
        "workers": {pid: dict(w) for pid, w in sorted(state.workers.items())},
        "retries": state.retried,
        "crashes": state.crashes,
        "hangs": state.hangs,
        "quarantined": len(failed),
        "resumed": state.resumed,
        "degradations": list(state.degradations),
        "failed": failed,
    }
    if worker_threads is not None:
        summary["threads"] = worker_threads
    eng = tiles.current()
    if eff_jobs == 1 and eng is not None:
        summary["tiles"] = eng.snapshot()
    if journal is not None:
        journal.append(
            {"type": "end", "completed": len(results),
             "quarantined": len(failed), "retries": state.retried,
             "crashes": state.crashes, "hangs": state.hangs,
             "resumed": state.resumed}
        )
        summary["journal"] = str(journal.path)
        summary["journal_disabled"] = journal.disabled
        journal.close()
    return SessionOutcome(results=results, summary=summary, failed=failed)
