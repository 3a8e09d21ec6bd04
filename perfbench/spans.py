"""Traced runs: host-time spans around calls into each layer.

Wrappers are installed from the benchmark's own code, at the name each
caller looks up (a module attribute or a class attribute), so the
program under test is unmodified.  Each span records its name, start,
end, parent, request id and labels; spans stay in memory and are dumped
once, at exit.  A span's self time is its duration minus its children's
(children run in the same thread, so they never overlap).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

#: span record field order in a dump
FIELDS = ("id", "name", "start", "end", "parent", "request", "labels")


class SpanLog:
    """In-memory span store with per-thread nesting."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, request_root: bool = False, **labels):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        if request_root:
            request = sid
        else:
            request = parent[5] if parent is not None else None
        rec = [sid, name, time.monotonic(), None, parent[0] if parent else None,
               request, labels]
        stack.append(rec)
        try:
            yield rec
        finally:
            rec[3] = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def last_label(self, key: str, default=None):
        """Most recent value of a per-thread label (see ``remember``)."""
        return getattr(self._tls, key, default)

    def remember(self, key: str, value) -> None:
        setattr(self._tls, key, value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


def load_spans(path) -> list[dict]:
    doc = json.loads(open(path).read())
    return [dict(zip(doc["fields"], rec)) for rec in doc["spans"]]


# --------------------------------------------------------------- wrappers


def wrap(log: SpanLog, owner, attr: str, name: str, *, after=None,
         labels=None, request_root: bool = False):
    """Replace ``owner.attr`` by a spanned wrapper; returns the undo."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        extra = labels(args, kwargs) if labels is not None else {}
        with log.span(name, request_root=request_root, **extra) as rec:
            out = orig(*args, **kwargs)
        if after is not None:
            after(rec, args, kwargs, out)
        return out

    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, orig)


def _wrap_lookup(log: SpanLog, module, attr: str, make) -> callable:
    """Wrap a registry lookup (``get_coarsener``/``get_constructor``) so
    every callable it hands out is spanned; one wrapper per name."""
    orig = getattr(module, attr)
    cache: dict = {}

    @functools.wraps(orig)
    def lookup(name):
        fn = orig(name)
        if name not in cache:
            cache[name] = make(name, fn)
        return cache[name]

    setattr(module, attr, lookup)
    return lambda: setattr(module, attr, orig)


def install_coarsening(log: SpanLog) -> list:
    """Spans for the coarsening layers (mapping, construction, driver,
    harness) and the graph cache.  Returns undo callables."""
    from repro.bench import harness
    from repro.coarsen import multilevel
    from repro.construct import base as construct_base
    from repro.generators import corpus

    def make_coarsener(name, fn):
        @functools.wraps(fn)
        def mapping(g, space):
            log.remember("coarsener", name)
            with log.span("coarsen.mapping", coarsener=name) as rec:
                out = fn(g, space)
            rec[6]["passes"] = int(out.stats.get("passes", 0))
            return out
        return mapping

    def make_constructor(name, fn):
        @functools.wraps(fn)
        def construction(g, mapping, space):
            with log.span("construct.construction",
                          coarsener=log.last_label("coarsener", "?"),
                          entries=int(g.m_directed)):
                return fn(g, mapping, space)
        return construction

    undo = [
        _wrap_lookup(log, multilevel, "get_coarsener", make_coarsener),
        _wrap_lookup(log, construct_base, "get_constructor", make_constructor),
        wrap(log, harness, "coarsen_multilevel", "coarsen.driver"),
        wrap(log, harness, "run_coarsening", "harness.run_coarsening",
             labels=lambda a, kw: {"coarsener": kw.get("coarsener", "hec")}),
        wrap(log, corpus, "load", "cache.load"),
    ]
    return undo


def install_serving(log: SpanLog) -> list:
    """Spans for every layer a served request crosses: executor,
    partition refinement, tape replay, trace serialization, framing,
    updates and the state journal (plus the coarsening layers)."""
    from repro.coarsen import incremental
    from repro.csr import update
    from repro.partition import kway, multilevel as pml
    from repro.serve import executor, journal, server
    from repro.trace import core, tape

    undo = install_coarsening(log)
    undo += [
        wrap(log, executor.ServeExecutor, "execute_batch", "serve.execute_batch",
             labels=lambda a, kw: {"size": len(a[1])}),
        wrap(log, executor.ServeExecutor, "execute", "serve.execute",
             request_root=True,
             labels=lambda a, kw: {"op": a[1].get("op")}),
        wrap(log, kway, "greedy_kway_refine", "partition.kway_refine"),
        wrap(log, kway, "spectral_vector", "partition.spectral"),
        wrap(log, pml, "spectral_vector", "partition.spectral"),
        wrap(log, pml, "fm_refine", "partition.fm"),
        wrap(log, tape.Tape, "replay", "trace.replay",
             labels=lambda a, kw: {"events": len(a[0].events)}),
        wrap(log, core.Tracer, "to_dict", "trace.to_dict"),
        wrap(log, update, "apply_edges", "update.apply_edges"),
        wrap(log, incremental, "patch_hierarchy", "update.patch"),
        wrap(log, journal.ServeJournal, "append", "journal.append"),
        _wrap_send(log, server),
    ]
    return undo


def _wrap_send(log: SpanLog, server_module):
    """``send_msg`` at the server's import site; the frame size is taken
    after the span closes so sizing never counts as encode time."""
    def after(rec, args, kwargs, out):
        rec[6]["bytes"] = len(json.dumps(
            args[1], sort_keys=True, separators=(",", ":")).encode())
    return wrap(log, server_module, "send_msg", "serve.send_msg", after=after)


# ---------------------------------------------------------------- rollups


def in_windows(span: dict, windows) -> bool:
    return any(t0 <= span["start"] < t1 for t0, t1 in windows)


def durations(spans) -> dict:
    """Per-span duration and self time, keyed by id."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"],
                      s["end"] - s["start"] - child.get(s["id"], 0.0))
            for s in spans}


def total(spans, name: str, *, self_time: bool = False, dur=None, **match) -> float:
    """Summed duration (or self time) of spans named ``name`` whose
    labels match ``match``."""
    dur = dur if dur is not None else durations(spans)
    out = 0.0
    for s in spans:
        if s["name"] != name:
            continue
        if any(s["labels"].get(k) != v for k, v in match.items()):
            continue
        out += dur[s["id"]][1 if self_time else 0]
    return out


def count(spans, name: str, **match) -> int:
    return sum(
        1 for s in spans if s["name"] == name
        and all(s["labels"].get(k) == v for k, v in match.items())
    )


def label_sum(spans, name: str, label: str, **match) -> float:
    return sum(
        s["labels"].get(label, 0) for s in spans if s["name"] == name
        and all(s["labels"].get(k) == v for k, v in match.items())
    )


def _per(x: float, n: float) -> float:
    return x / n if n else 0.0


def layer_metrics(spans, dur, *, reads: float, writes: float) -> dict:
    """Span-derived per-layer metrics over ``spans`` (already restricted
    to the timed windows).  Layer times are per request (``reads`` +
    ``writes``), partition and trace layers per read, update layers per
    write; corpus-coarsen passes 1/1 so every figure is per pass."""
    req = reads + writes
    m = {}
    for c in ("hec", "hem"):
        m[f"coarsen.{c}.mapping_s"] = _per(
            total(spans, "coarsen.mapping", dur=dur, coarsener=c), req)
        m[f"coarsen.{c}.passes"] = _per(
            label_sum(spans, "coarsen.mapping", "passes", coarsener=c), req)
        m[f"construct.{c}.construction_s"] = _per(
            total(spans, "construct.construction", dur=dur, coarsener=c), req)
    m["coarsen.hem.us_per_pass"] = 1e6 * _per(
        m["coarsen.hem.mapping_s"], m["coarsen.hem.passes"])
    m["coarsen.levels"] = _per(count(spans, "coarsen.mapping"), req)
    m["construct.ns_per_entry"] = 1e9 * _per(
        total(spans, "construct.construction", dur=dur),
        label_sum(spans, "construct.construction", "entries"))
    m["coarsen.driver_self_s"] = _per(
        total(spans, "coarsen.driver", self_time=True, dur=dur), req)
    m["harness.self_s"] = _per(
        total(spans, "harness.run_coarsening", self_time=True, dur=dur), req)
    m["partition.kway_refine_s"] = _per(
        total(spans, "partition.kway_refine", dur=dur), reads)
    m["partition.spectral_s"] = _per(
        total(spans, "partition.spectral", dur=dur), reads)
    m["partition.fm_s"] = _per(total(spans, "partition.fm", dur=dur), reads)
    m["trace.replay_ms"] = 1e3 * _per(total(spans, "trace.replay", dur=dur), reads)
    m["trace.replay_events"] = _per(
        label_sum(spans, "trace.replay", "events"), count(spans, "trace.replay"))
    m["trace.to_dict_ms"] = 1e3 * _per(total(spans, "trace.to_dict", dur=dur), reads)
    batched = label_sum(spans, "serve.execute_batch", "size")
    m["serve.exec_ms"] = 1e3 * _per(
        total(spans, "serve.execute_batch", dur=dur), batched)
    m["serve.batch_mean"] = _per(batched, count(spans, "serve.execute_batch"))
    sends = count(spans, "serve.send_msg")
    m["serve.encode_ms"] = 1e3 * _per(total(spans, "serve.send_msg", dur=dur), sends)
    m["serve.response_bytes"] = _per(label_sum(spans, "serve.send_msg", "bytes"), sends)
    m["update.apply_edges_ms"] = 1e3 * _per(
        total(spans, "update.apply_edges", dur=dur), writes)
    m["update.patch_ms"] = 1e3 * _per(total(spans, "update.patch", dur=dur), writes)
    m["journal.append_ms"] = 1e3 * _per(total(spans, "journal.append", dur=dur), req)
    m["journal.records"] = _per(count(spans, "journal.append"), req)
    return m
