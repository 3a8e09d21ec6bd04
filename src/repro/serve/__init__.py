"""Coarsening-as-a-service: the long-lived multi-tenant daemon.

The paper's economics — one coarsening hierarchy amortized over many
downstream analyses — only pay off if something keeps the hierarchy
alive between analyses.  This package is that something:

* :mod:`repro.serve.protocol` — length-prefixed JSON frames over a unix
  socket, request validation, typed ok/error/REJECTED responses;
* :mod:`repro.serve.registry` — the multi-tenant graph registry
  (in-process CSR arrays over the on-disk artifact cache) and the LRU
  hierarchy cache with its record/replay reuse handles;
* :mod:`repro.serve.executor` — request → harness run → response row,
  byte-identical to the batch CLI, every request in this process;
* :mod:`repro.serve.server` — the daemon: accept loop, bounded
  admission queue, dispatcher batching, graceful SIGTERM drain and the
  journal/socket cleanup ladder;
* :mod:`repro.serve.client` — a blocking client with optional retries
  (deterministic backoff, reconnect-on-EOF, deadline propagation);
* :mod:`repro.serve.journal` — the durable state journal + warm-restart
  recovery behind ``serve --recover DIR``;
* :mod:`repro.serve.loadtest` — the p50/p99 + hit-rate harness behind
  ``BENCH_serving.json``.

Entry points: ``python -m repro.serve --socket /tmp/repro.sock`` (the
daemon) and ``python -m repro.serve supervise`` (crash-respawning
supervisor).
"""

from .client import ServeClient, wait_for_server
from .journal import PoisonTracker, ServeJournal, recover_executor
from .protocol import FrameTimeout, ProtocolError, recv_msg, send_msg
from .registry import GraphRegistry, HierarchyCache
from .server import ServerConfig, Server

__all__ = [
    "FrameTimeout",
    "GraphRegistry",
    "HierarchyCache",
    "PoisonTracker",
    "ProtocolError",
    "recover_executor",
    "recv_msg",
    "send_msg",
    "Server",
    "ServerConfig",
    "ServeClient",
    "ServeJournal",
    "wait_for_server",
]
