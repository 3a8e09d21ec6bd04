"""Wire protocol: length-prefixed JSON frames + request validation.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Both sides speak the same framing; there is no
streaming, no multiplexing — one request, one response, in order, per
connection (clients wanting concurrency open more connections, which is
exactly what the loadtest does).

Requests are plain objects::

    {"op": "partition", "graph": "ppa", "machine": "gpu",
     "coarsener": "hec", "constructor": "sort", "refinement": "fm",
     "k": 2, "seed": 0}

``"trace": true`` asks for the row's span trace (the ``trace`` key the
batch CLI writes to ``<key>.trace.json``); without it the row is
exactly the batch ``results.json`` row.

Responses carry ``status``: ``"ok"`` (with the harness row), ``"error"``
(with a message), or ``"rejected"`` — the typed admission-control
response, carrying the reason (``queue-full`` / ``shutting-down``) so a
client can tell backpressure from failure and retry accordingly.
"""

from __future__ import annotations

import json
import socket
import struct
import time

__all__ = [
    "MAX_FRAME",
    "MAX_IDEM_LEN",
    "MAX_UPDATE_EDGES",
    "OPS",
    "FrameTimeout",
    "ProtocolError",
    "send_msg",
    "recv_msg",
    "validate_request",
    "ok_response",
    "error_response",
    "rejected_response",
]

_LEN = struct.Struct(">I")

#: refuse frames beyond this — a corrupt length prefix must not convince
#: the daemon to allocate gigabytes
MAX_FRAME = 64 * 1024 * 1024

#: every operation the executor understands
OPS = ("coarsen", "partition", "cluster", "update_graph", "status", "ping")

#: refuse update batches beyond this many edges per list — a streaming
#: client should split larger updates into multiple batches anyway
MAX_UPDATE_EDGES = 1_000_000

#: idempotency keys are opaque client tokens, not payloads
MAX_IDEM_LEN = 200

#: request fields with their defaults (``None`` = required)
_FIELDS = {
    "machine": "gpu",
    "coarsener": "hec",
    "constructor": "sort",
    "refinement": "fm",
    "k": 2,
    "seed": 0,
    "oom": False,
    "assignment": False,
    "trace": False,
}


class ProtocolError(ValueError):
    """Malformed frame or invalid request object."""


class FrameTimeout(ProtocolError):
    """A frame started arriving but did not finish within the timeout.

    Distinct from :class:`ProtocolError` so the daemon can answer with a
    typed ``FrameTimeout`` error and count it separately: a stalled
    client is backpressure/network trouble, not a protocol violation.
    """


def _validate_edge_list(name: str, value, *, weighted: bool) -> list:
    """Normalize one ``update_graph`` edge list.

    Entries are ``[u, v]`` or (for additions) ``[u, v, w]`` with
    non-negative integer endpoints and a positive finite weight; the
    default weight is 1.  Endpoint *range* is checked by the executor
    against the actual tenant graph — the protocol layer has no n.
    """
    if value is None:
        return []
    if not isinstance(value, list):
        raise ProtocolError(f"field {name!r} must be a list of [u, v{', w' * weighted}]")
    if len(value) > MAX_UPDATE_EDGES:
        raise ProtocolError(
            f"field {name!r} holds {len(value)} edges; max {MAX_UPDATE_EDGES} per batch"
        )
    out = []
    for entry in value:
        if not isinstance(entry, (list, tuple)) or not 2 <= len(entry) <= (3 if weighted else 2):
            raise ProtocolError(
                f"each {name!r} entry must be [u, v{', w?' * weighted}], got {entry!r}"
            )
        u, v = entry[0], entry[1]
        if not isinstance(u, int) or not isinstance(v, int) or u < 0 or v < 0:
            raise ProtocolError(f"{name!r} endpoints must be non-negative ints, got {entry!r}")
        w = 1.0
        if weighted and len(entry) == 3:
            w = entry[2]
            if isinstance(w, bool) or not isinstance(w, (int, float)) or not w > 0 \
                    or w != w or w in (float("inf"), float("-inf")):
                raise ProtocolError(f"{name!r} weight must be a positive finite number, got {w!r}")
        out.append([u, v, float(w)] if weighted else [u, v])
    return out


def send_msg(sock: socket.socket, obj: dict) -> None:
    """Serialize ``obj`` and write one frame."""
    body = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    sock.sendall(_LEN.pack(len(body)) + body)


def _recv_exact(
    sock: socket.socket, n: int, *, deadline: float | None = None
) -> bytes | None:
    """Read exactly ``n`` bytes; None on a clean EOF at a frame boundary.

    With a ``deadline`` (a ``time.monotonic()`` instant) the remaining
    bytes must arrive before it: a stalled peer raises
    :class:`FrameTimeout` instead of wedging the reader thread forever.
    """
    chunks = []
    got = 0
    while got < n:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise FrameTimeout(
                    f"timed out mid-frame ({got}/{n} bytes arrived)"
                )
            sock.settimeout(remaining)
        try:
            chunk = sock.recv(min(n - got, 1 << 20))
        except socket.timeout:
            raise FrameTimeout(
                f"timed out mid-frame ({got}/{n} bytes arrived)"
            ) from None
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _restore_timeout(sock: socket.socket, prev: float | None) -> None:
    """Restore a saved socket timeout, tolerating a concurrently closed
    socket — shutdown closes connections under their blocked readers, and
    the resulting EBADF must surface from ``recv``, not from cleanup."""
    try:
        sock.settimeout(prev)
    except OSError:
        pass


def recv_msg(
    sock: socket.socket, *, frame_timeout: float | None = None
) -> dict | None:
    """Read one frame; None when the peer closed between frames.

    ``frame_timeout`` arms the partial-frame guard the daemon's per-
    connection readers rely on: waiting *between* frames blocks forever
    (an idle keep-alive connection is fine), but once the first byte of
    a length prefix arrives the whole frame must complete within
    ``frame_timeout`` seconds or :class:`FrameTimeout` is raised — so a
    client that stalls mid-frame fails its own connection with a typed
    error instead of pinning a reader thread.
    """
    if frame_timeout is None:
        header = _recv_exact(sock, _LEN.size)
        if header is None:
            return None
        deadline = None
    else:
        prev = sock.gettimeout()
        try:
            sock.settimeout(None)
            first = _recv_exact(sock, 1)
        finally:
            _restore_timeout(sock, prev)
        if first is None:
            return None
        deadline = time.monotonic() + frame_timeout
        prev = sock.gettimeout()
        try:
            rest = _recv_exact(sock, _LEN.size - 1, deadline=deadline)
        finally:
            _restore_timeout(sock, prev)
        if rest is None:
            raise ProtocolError("connection closed mid-frame (1/4 bytes)")
        header = first + rest
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"declared frame of {length} bytes exceeds MAX_FRAME")
    if deadline is None:
        body = _recv_exact(sock, length)
    else:
        prev = sock.gettimeout()
        try:
            body = _recv_exact(sock, length, deadline=deadline)
        finally:
            _restore_timeout(sock, prev)
    if body is None:
        raise ProtocolError("connection closed before the frame body")
    try:
        obj = json.loads(body)
    except ValueError as e:
        raise ProtocolError(f"frame is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("frame must be a JSON object")
    return obj


def validate_request(req: dict) -> dict:
    """Normalize a request: defaults applied, types checked.

    Returns a fresh dict; raises :class:`ProtocolError` on anything the
    executor would choke on, so bad input is rejected at the door with a
    message instead of surfacing as a worker traceback.
    """
    op = req.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; known: {OPS}")
    out = {"op": op}
    if op in ("status", "ping"):
        return out
    graph = req.get("graph")
    if not isinstance(graph, str) or not graph:
        raise ProtocolError(f"op {op!r} requires a graph name")
    out["graph"] = graph
    idem = req.get("idem")
    if idem is not None:
        if not isinstance(idem, str) or not idem or len(idem) > MAX_IDEM_LEN:
            raise ProtocolError(
                f"field 'idem' must be a non-empty string of at most "
                f"{MAX_IDEM_LEN} chars"
            )
        out["idem"] = idem
    deadline_ms = req.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, int) \
                or deadline_ms <= 0:
            raise ProtocolError("field 'deadline_ms' must be a positive int")
        out["deadline_ms"] = deadline_ms
    if op == "update_graph":
        seed = req.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ProtocolError(f"field 'seed' must be int, got {type(seed).__name__}")
        out["seed"] = seed
        out["add"] = _validate_edge_list("add", req.get("add"), weighted=True)
        out["remove"] = _validate_edge_list("remove", req.get("remove"), weighted=False)
        return out
    for name, default in _FIELDS.items():
        value = req.get(name, default)
        if not isinstance(value, type(default)):
            raise ProtocolError(
                f"field {name!r} must be {type(default).__name__}, "
                f"got {type(value).__name__}"
            )
        out[name] = value
    if out["machine"] not in ("gpu", "cpu"):
        raise ProtocolError(f"unknown machine {out['machine']!r}")
    from .. import available_coarseners, available_constructors

    for field, known in (("coarsener", available_coarseners()),
                         ("constructor", available_constructors())):
        if out[field] not in known:
            raise ProtocolError(f"unknown {field} {out[field]!r}; known: {known}")
    if out["refinement"] not in ("spectral", "fm"):
        raise ProtocolError(f"unknown refinement {out['refinement']!r}")
    if not 1 <= out["k"] <= 4096:
        raise ProtocolError(f"k={out['k']} out of range [1, 4096]")
    return out


def ok_response(row: dict, *, key: str | None = None, meta: dict | None = None) -> dict:
    out = {"status": "ok", "row": row}
    if key is not None:
        out["key"] = key
    if meta:
        out["meta"] = meta
    return out


def error_response(message: str, *, kind: str = "error") -> dict:
    return {"status": "error", "kind": kind, "error": message}


def rejected_response(reason: str, *, queued: int | None = None) -> dict:
    """The typed admission-control response (never a silent drop)."""
    out = {"status": "rejected", "reason": reason}
    if queued is not None:
        out["queued"] = queued
    return out
