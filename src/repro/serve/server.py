"""The daemon: accept loop, admission control, dispatcher, clean death.

Thread layout (all daemon threads except the caller of
``serve_forever``):

* one **acceptor** (the ``serve_forever`` caller, or a background
  thread via ``start()``) polls the unix listening socket;
* one **reader per connection** parses frames, answers ``ping`` /
  ``status`` inline, and pushes everything else through admission;
* one **dispatcher** drains the bounded queue in batches of up to
  ``batch_max`` and executes them (``ServeExecutor.execute_batch``).

**Admission control** is the bounded queue: when it is full the reader
immediately sends the typed ``rejected`` response (reason
``queue-full``) instead of queueing unbounded work; during shutdown the
reason is ``shutting-down``.  A rejection is a first-class protocol
answer, never a dropped connection.

**Shutdown** (SIGTERM/SIGINT or ``stop()``) runs the full ladder with a
drain deadline: stop admitting, let the dispatcher finish what is
queued for up to ``drain_timeout`` seconds, reject whatever remains,
then close the journals and unlink the socket.  Tenants live only as
in-process arrays, so the daemon creates no shared-memory segment and
even a SIGKILL leaves none behind.
"""

from __future__ import annotations

import os
import queue
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..parallel.session import SessionJournal
from .executor import ServeExecutor, request_key
from .journal import ServeJournal, recover_executor
from .protocol import (
    FrameTimeout,
    ProtocolError,
    error_response,
    recv_msg,
    rejected_response,
    send_msg,
    validate_request,
)

__all__ = ["ServerConfig", "Server"]


@dataclass
class ServerConfig:
    socket_path: str = "repro-serve.sock"
    #: admission bound: queued (not yet dispatched) requests
    queue_max: int = 64
    #: dispatcher batch width
    batch_max: int = 8
    #: tile-parallel threads inside each run (repro.parallel.tiles)
    threads: int = 1
    #: resident graph tenants (LRU bound; updated tenants are pinned)
    max_graphs: int = 8
    #: resident hierarchies (LRU bound)
    max_hierarchies: int = 32
    #: seconds SIGTERM waits for queued work before rejecting the rest
    drain_timeout: float = 10.0
    #: directory for the append-only request journal (None = no journal)
    log_dir: str | None = None
    #: once a frame starts arriving it must complete within this many
    #: seconds or the connection fails with a typed FrameTimeout error
    #: (None = wait forever, the pre-hardening behaviour)
    frame_timeout: float | None = 30.0
    #: warm-restart from the state journal in ``log_dir`` before binding
    recover: bool = False
    #: executor crashes attributable to one request digest before it is
    #: quarantined with a typed PoisonQuarantined error
    poison_threshold: int = 2


class _Pending:
    """One admitted request awaiting its response."""

    __slots__ = ("request", "response", "event", "deadline")

    def __init__(self, request: dict, deadline: float | None = None):
        self.request = request
        self.response: dict | None = None
        self.event = threading.Event()
        #: monotonic instant from the request's ``deadline_ms``, stamped
        #: at admission — queue time counts against the budget
        self.deadline = deadline

    def resolve(self, response: dict) -> None:
        self.response = response
        self.event.set()


class Server:
    def __init__(self, config: ServerConfig | None = None, executor=None):
        self.config = config or ServerConfig()
        self.executor = executor if executor is not None else ServeExecutor(
            threads=self.config.threads,
        )
        self.executor.registry.max_graphs = self.config.max_graphs
        self.executor.hierarchies.max_entries = self.config.max_hierarchies
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_max)
        self._stopping = threading.Event()
        self._closing = threading.Event()
        self._drained = threading.Event()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: set = set()
        self._conns_lock = threading.Lock()
        self._journal: SessionJournal | None = None
        self._journal_lock = threading.Lock()
        self._state_journal: ServeJournal | None = None
        self.recovery: dict | None = None
        self.executor.poison.threshold = max(1, self.config.poison_threshold)
        self.counters = {
            "received": 0, "completed": 0, "rejected_full": 0,
            "rejected_shutdown": 0, "protocol_errors": 0, "connections": 0,
            "frame_timeouts": 0, "deadline_exceeded": 0,
        }
        self.started_at = time.monotonic()

    # ----------------------------------------------------------- lifecycle

    def _bind(self) -> None:
        path = Path(self.config.socket_path)
        # recovery runs BEFORE the socket exists: a client that can
        # connect must see fully recovered state, never a half-replay
        if self.config.log_dir is not None:
            state = ServeJournal(self.config.log_dir)
            if self.config.recover:
                self.recovery = recover_executor(
                    self.executor, self.config.log_dir
                )
                state.open(
                    truncate_to=self.recovery["valid_bytes"],
                    seq=self.recovery["next_seq"],
                )
            else:
                # no --recover: a fresh daemon means fresh state; stale
                # records must not resurrect on the *next* recovery
                state.open(truncate_to=0)
            self._state_journal = state
            self.executor.attach_state_journal(state)
            if self.config.recover:
                state.append({
                    "type": "recovered", "pid": os.getpid(),
                    "tenants": self.recovery["tenants"],
                    "hierarchies": self.recovery["hierarchies"],
                    "updates": self.recovery["updates"],
                    "mismatches": self.recovery["mismatches"],
                    "poison_strikes": self.recovery["poison_strikes"],
                })
        if path.exists():
            path.unlink()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(str(path))
        sock.listen(16)
        sock.settimeout(0.2)
        self._sock = sock
        if self.config.log_dir is not None:
            # journal without fsync-per-record: request logging must not
            # bottleneck the loadtest; a torn tail is detected on scan
            self._journal = SessionJournal(self.config.log_dir, durable=False)
            self._journal.open()
            self._journal.append(
                {"type": "serve-start", "pid": os.getpid(),
                 "socket": str(path),
                 "recovered": self.recovery is not None}
            )

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (only from the main thread)."""
        def _on_signal(signum, frame):
            self._stopping.set()
            self._closing.set()

        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, _on_signal)

    def start(self) -> "Server":
        """Run acceptor + dispatcher on background threads (tests)."""
        self._bind()
        for name, target in (("dispatcher", self._dispatch_loop),
                             ("acceptor", self._accept_loop)):
            t = threading.Thread(target=target, name=f"serve-{name}", daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def serve_forever(self, *, install_signals: bool = True) -> int:
        """Run the accept loop in this thread until a stop signal."""
        self._bind()
        if install_signals:
            self.install_signal_handlers()
        t = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        t.start()
        self._threads.append(t)
        self._accept_loop()
        self._shutdown()
        return 0

    def stop(self) -> None:
        """Graceful stop for ``start()``-mode servers."""
        self._stopping.set()
        # the shutdown ladder drains first, then sets _closing and closes
        # the listening socket — which is what wakes the acceptor, so the
        # joins afterwards are quick
        self._shutdown()
        for t in self._threads:
            t.join(5.0)

    # ------------------------------------------------------------- accept

    def _accept_loop(self) -> None:
        # runs until the socket actually closes, NOT until _stopping: a
        # merely *draining* daemon must still accept connections so their
        # requests get the typed shutting-down rejection — an acceptor
        # that bails early strands backlogged clients with no answer at
        # all until their own timeout
        while not self._closing.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self.counters["connections"] += 1
            with self._conns_lock:
                self._conns.add(conn)
            t = threading.Thread(
                target=self._reader, args=(conn,), name="serve-conn", daemon=True
            )
            t.start()

    def _reader(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    req = recv_msg(conn, frame_timeout=self.config.frame_timeout)
                except OSError:
                    # shutdown closes connections under their blocked
                    # readers; the EBADF/ECONNRESET is the close, not a bug
                    return
                except FrameTimeout as e:
                    # the stalled client loses its *connection*, not the
                    # daemon a reader thread — typed answer, then close
                    self.counters["frame_timeouts"] += 1
                    try:
                        send_msg(conn, error_response(str(e), kind="FrameTimeout"))
                    except OSError:
                        pass
                    return
                except ProtocolError as e:
                    self.counters["protocol_errors"] += 1
                    try:
                        send_msg(conn, error_response(str(e), kind="ProtocolError"))
                    except OSError:
                        pass
                    return
                if req is None:
                    return
                self.counters["received"] += 1
                try:
                    send_msg(conn, self._handle(req))
                except OSError:
                    return
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _handle(self, req: dict) -> dict:
        try:
            req = validate_request(req)
        except ProtocolError as e:
            self.counters["protocol_errors"] += 1
            return error_response(str(e), kind="ProtocolError")
        if req["op"] == "ping":
            return {"status": "ok", "pong": True, "pid": os.getpid()}
        if req["op"] == "status":
            return {"status": "ok", **self.stats()}
        if self._stopping.is_set():
            self.counters["rejected_shutdown"] += 1
            return rejected_response("shutting-down")
        deadline = None
        if req.get("deadline_ms") is not None:
            deadline = time.monotonic() + req["deadline_ms"] / 1000.0
        pending = _Pending(req, deadline)
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            self.counters["rejected_full"] += 1
            return rejected_response("queue-full", queued=self._queue.qsize())
        pending.event.wait()
        return pending.response

    # ---------------------------------------------------------- dispatch

    def _dispatch_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._stopping.is_set():
                    break
                continue
            batch = [first]
            while len(batch) < self.config.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            with self._inflight_lock:
                self._inflight += len(batch)
            try:
                responses = self.executor.execute_batch(
                    [p.request for p in batch],
                    deadlines=[p.deadline for p in batch],
                )
            except Exception as e:  # noqa: BLE001 - keep the daemon alive
                responses = [
                    error_response(str(e) or type(e).__name__, kind=type(e).__name__)
                    for _ in batch
                ]
            for pending, response in zip(batch, responses):
                if response.get("kind") == "DeadlineExceeded":
                    self.counters["deadline_exceeded"] += 1
                self._log_served(pending.request, response)
                pending.resolve(response)
                self.counters["completed"] += 1
            with self._inflight_lock:
                self._inflight -= len(batch)
        self._drained.set()

    def _log_served(self, req: dict, response: dict) -> None:
        if self._journal is None:
            return
        record = {
            "type": "served", "op": req.get("op"),
            "status": response.get("status"),
        }
        if req.get("op") not in ("ping", "status"):
            record["key"] = request_key(req)
        with self._journal_lock:
            self._journal.append(record)

    # ---------------------------------------------------------- shutdown

    def _shutdown(self) -> None:
        """The cleanup ladder — every step runs even if one fails."""
        self._stopping.set()
        # 1. drain: give the dispatcher its deadline to finish the queue
        deadline = time.monotonic() + self.config.drain_timeout
        while time.monotonic() < deadline:
            with self._inflight_lock:
                busy = self._inflight
            if busy == 0 and self._queue.empty():
                break
            time.sleep(0.02)
        self._drained.wait(timeout=max(0.0, deadline - time.monotonic()) + 0.5)
        # 2. reject whatever is still queued — typed response, not a drop
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            self.counters["rejected_shutdown"] += 1
            pending.resolve(rejected_response("shutting-down"))
        # 3. close the listening socket and every live connection; only
        #    now does the acceptor stop (pending backlog entries get a
        #    reset, which a retrying client treats as retryable)
        self._closing.set()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        # 4. journals: final record, then close (state journal too — a
        #    clean SIGTERM exit leaves a scannable, digest-valid file)
        if self._journal is not None:
            with self._journal_lock:
                self._journal.append(
                    {"type": "serve-end", **{k: v for k, v in self.counters.items()}}
                )
                self._journal.close()
        if self._state_journal is not None:
            self._state_journal.close()
        # 5. the socket path itself
        try:
            Path(self.config.socket_path).unlink()
        except OSError:
            pass

    # ------------------------------------------------------------- status

    def stats(self) -> dict:
        return {
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - self.started_at,
            "queue_depth": self._queue.qsize(),
            "queue_max": self.config.queue_max,
            # one process; benchmark provenance stamps read the field
            "jobs": 1,
            "threads": self.config.threads,
            "counters": dict(self.counters),
            "hierarchy": self.executor.hierarchies.stats(),
            "graphs": self.executor.registry.resident(),
            "poison": self.executor.poison.stats(),
            "recovery": self.recovery,
        }
