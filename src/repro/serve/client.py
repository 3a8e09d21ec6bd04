"""Unix-socket client for the serving daemon, with optional retries.

The default client (``retries=0``) is the original strict one: one
connection, one request in flight, any transport failure raises.  With
``retries=N`` it becomes crash-tolerant:

* **reconnect-on-EOF** — a dead/absent socket or a connection the
  daemon dropped mid-response is reopened on the next attempt, which is
  what lets a client ride through a supervisor respawn;
* **deterministic capped exponential backoff** — the delay schedule is
  :func:`repro.parallel.session.backoff_delay`, a pure function of
  ``(request, attempt, seed)``: replaying the same failures produces
  the same schedule;
* **typed-rejection retries** — ``queue-full`` / ``shutting-down``
  rejections are backpressure, not failure, so they consume an attempt
  and back off instead of surfacing;
* **automatic idempotency keys** — a retried ``update_graph`` without
  an explicit ``idem`` gets a client-unique one, so every retry of one
  logical update lands on the same key and the daemon applies it
  exactly once (journal-backed, crash included);
* **deadline propagation** — a per-request budget is stamped into
  ``deadline_ms`` on every attempt with the *remaining* time, so the
  daemon never works on a request whose client has already given up.
"""

from __future__ import annotations

import os
import socket
import time

from ..parallel.session import backoff_delay
from .protocol import ProtocolError, recv_msg, send_msg

__all__ = ["ServeClient", "wait_for_server"]


class ServeClient:
    """One connection, one request in flight at a time.

    The protocol is strictly request/response per connection; a client
    wanting parallelism opens more clients (they are cheap).
    """

    def __init__(
        self,
        socket_path: str,
        *,
        timeout: float | None = 120.0,
        retries: int = 0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        deadline: float | None = None,
    ):
        self.socket_path = str(socket_path)
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: default per-request wall-clock budget in seconds (propagated
        #: to the daemon as ``deadline_ms``); None = no deadline
        self.deadline = deadline
        self._sock: socket.socket | None = None
        self._nonce = os.urandom(4).hex()
        self._seq = 0
        self.reconnects = 0
        self.retried = 0
        try:
            self._connect()
        except OSError:
            if self.retries == 0:
                raise
            # a retrying client tolerates an absent daemon at construction
            # (e.g. the supervisor is still respawning it)
            self._sock = None

    def _connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        self._sock = sock

    def _reset(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    def request(self, req: dict, *, deadline: float | None = None) -> dict:
        """Send one request; returns the response dict.

        ``deadline`` (seconds, overriding the client default) bounds the
        whole exchange including retries; when it expires a
        :class:`TimeoutError` is raised and the remaining budget was
        propagated to the daemon on every attempt.
        """
        budget = deadline if deadline is not None else self.deadline
        deadline_at = time.monotonic() + budget if budget is not None else None
        req = dict(req)
        if (
            self.retries
            and req.get("op") == "update_graph"
            and "idem" not in req
        ):
            # every retry of this logical update must share one key, so
            # the daemon can answer duplicates instead of re-applying
            self._seq += 1
            req["idem"] = f"c{os.getpid():x}-{self._nonce}-{self._seq}"
        key = f"{req.get('op', '')}:{req.get('graph', '')}:{self._seq}"
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.retried += 1
                delay = backoff_delay(
                    key, attempt - 1, base=self.backoff_base, cap=self.backoff_cap
                )
                if deadline_at is not None:
                    delay = min(delay, max(0.0, deadline_at - time.monotonic()))
                if delay > 0:
                    time.sleep(delay)
            if deadline_at is not None:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"client deadline exhausted after {attempt} attempt(s)"
                        + (f" (last error: {last})" if last else "")
                    )
                req["deadline_ms"] = max(1, int(remaining * 1000))
            try:
                if self._sock is None:
                    self.reconnects += 1
                    self._connect()
                send_msg(self._sock, req)
                resp = recv_msg(self._sock)
                if resp is None:
                    raise ProtocolError(
                        "server closed the connection without a response"
                    )
            except (OSError, ProtocolError) as e:
                # covers dead sockets, timeouts, EOF mid-response, and a
                # daemon that died holding our request — all retryable
                last = e
                self._reset()
                if attempt >= self.retries:
                    raise
                continue
            if resp.get("status") == "rejected" and attempt < self.retries:
                last = RuntimeError(
                    f"rejected: {resp.get('reason', 'unknown')}"
                )
                continue
            return resp
        raise last if last is not None else RuntimeError(
            "request loop exited without a response"
        )  # pragma: no cover - loop always returns or raises

    def close(self) -> None:
        self._reset()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def wait_for_server(socket_path: str, *, timeout: float = 30.0) -> None:
    """Block until the daemon at ``socket_path`` answers a ping."""
    deadline = time.monotonic() + timeout
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            with ServeClient(socket_path, timeout=5.0) as client:
                resp = client.request({"op": "ping"})
                if resp.get("status") == "ok":
                    return
        except (OSError, ProtocolError) as e:
            last = e
        time.sleep(0.05)
    raise TimeoutError(
        f"no server answered at {socket_path} within {timeout:.0f}s "
        f"(last error: {last})"
    )
