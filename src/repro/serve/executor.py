"""Request execution: one request → one harness run → one response row.

The invariant everything here protects: **a served row is byte-identical
to the batch CLI's row for the same configuration.**  The executor
therefore runs the *same* harness functions with the *same* argument
plumbing as :func:`repro.parallel.pool._execute` and builds the row with
the same :func:`repro.parallel.pool.row_from_result`; the only additions
are the hierarchy-reuse handle (whose tape replay is bitwise neutral,
see :mod:`repro.trace.tape`) and response metadata that never enters
the row.  Every request runs in this process, in dispatcher order, so
every hierarchy it builds enters the cache that the next request hits.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from .. import faultinject
from ..bench.harness import (
    run_cluster,
    run_coarsening,
    run_partition,
    run_partition_kway,
)
from ..parallel.memory import SimulatedOOM
from ..parallel.pool import ExperimentTask, row_from_result
from .journal import PoisonTracker, request_digest, tape_digest
from .protocol import error_response, ok_response
from .registry import GraphRegistry, HierarchyCache

__all__ = ["ServeExecutor"]

#: bound on the in-memory idempotency table (journal-backed entries are
#: reloaded on recovery, so the bound only limits live-process dedup)
MAX_IDEM_ENTRIES = 1024


def request_key(req: dict) -> str:
    """The batch task key a request corresponds to, where one exists."""
    if req["op"] == "update_graph":
        return f"update_graph:{req['graph']}:s{req['seed']}"
    if req["op"] == "coarsen":
        return ExperimentTask(
            kind="coarsen", graph=req["graph"], machine=req["machine"],
            coarsener=req["coarsener"], constructor=req["constructor"],
            seed=req["seed"], oom=req["oom"],
        ).key()
    if req["op"] == "partition" and req["k"] == 2:
        return ExperimentTask(
            kind="partition", graph=req["graph"], machine=req["machine"],
            coarsener=req["coarsener"], constructor=req["constructor"],
            refinement=req["refinement"], seed=req["seed"], oom=req["oom"],
        ).key()
    parts = [req["op"], req["machine"], req["coarsener"], req["constructor"]]
    if req["op"] == "partition":
        parts.append(f"greedy-k{req['k']}")
    parts += [req["graph"], f"s{req['seed']}"]
    return ":".join(parts)


class ServeExecutor:
    """Executes validated requests against the registry's residents."""

    def __init__(
        self,
        registry: GraphRegistry | None = None,
        hierarchies: HierarchyCache | None = None,
        *,
        threads: int = 1,
    ):
        self.registry = registry if registry is not None else GraphRegistry()
        self.hierarchies = (
            hierarchies if hierarchies is not None else HierarchyCache()
        )
        self.threads = max(1, threads)
        if self.threads > 1:
            # requests run tile-parallel; the process-global engine is
            # visible from the dispatcher thread
            from ..parallel import tiles

            tiles.configure(self.threads)
        self.executed = 0
        self.errors = 0
        #: crash-safety state (wired by the server when a log dir is set)
        self.state_journal = None
        self.poison = PoisonTracker()
        self.recovering = False
        self._idem: OrderedDict[str, dict] = OrderedDict()
        self._idem_lock = threading.Lock()

    # ------------------------------------------------------- crash safety

    def attach_state_journal(self, journal) -> None:
        """Arm durable state journaling: registry and hierarchy-cache
        transitions flow into ``journal`` from here on.  Called after
        recovery replay, so recovered state is never re-journaled."""
        self.state_journal = journal
        self.registry.on_load = lambda name, seed: self._journal_state(
            {"type": "tenant", "graph": name, "seed": seed}
        )
        self.registry.on_drop = lambda name, seed: self._journal_state(
            {"type": "tenant-drop", "graph": name, "seed": seed}
        )
        self.hierarchies.on_put = self._journal_hierarchy
        self.hierarchies.on_evict = lambda key: self._journal_state(
            {"type": "hierarchy-drop", "key": list(key)}
        )

    def _journal_state(self, record: dict) -> None:
        if self.state_journal is None or self.recovering:
            return
        self.state_journal.append(record)

    def _journal_hierarchy(self, key: tuple, hierarchy, tape) -> None:
        # an incomplete tape (simulated OOM mid-build) can never replay,
        # so it is not recoverable state either
        if tape is None or not getattr(tape, "complete", False):
            return
        self._journal_state(
            {"type": "hierarchy", "key": list(key), "tape_sha": tape_digest(tape)}
        )

    def remember_idempotent(self, idem: str, response: dict) -> None:
        with self._idem_lock:
            self._idem[idem] = response
            self._idem.move_to_end(idem)
            while len(self._idem) > MAX_IDEM_ENTRIES:
                self._idem.popitem(last=False)

    def _idem_lookup(self, idem: str | None) -> dict | None:
        if idem is None:
            return None
        with self._idem_lock:
            return self._idem.get(idem)

    # ------------------------------------------------------------ single

    def execute(self, req: dict, *, deadline: float | None = None) -> dict:
        """Run one request in-process; always returns a response dict.

        ``deadline`` is a ``time.monotonic()`` instant set at admission
        from the request's ``deadline_ms``; a request that expired while
        queued gets the typed ``DeadlineExceeded`` answer instead of
        burning executor time on a response nobody is waiting for.
        """
        op = req.get("op", "")
        if deadline is not None:
            faultinject.fire("serve.deadline", op=op)
            if time.monotonic() > deadline:
                self.errors += 1
                return error_response(
                    f"deadline exceeded before {op} executed",
                    kind="DeadlineExceeded",
                )
        digest = request_digest(req)
        if self.poison.quarantined(digest) and not self.recovering:
            self.errors += 1
            return error_response(
                f"request {digest} is quarantined after "
                f"{self.poison.strikes.get(digest, 0)} executor crash(es)",
                kind="PoisonQuarantined",
            )
        # the poison bracket: a dangling exec-begin in the state journal
        # attributes a daemon death to exactly this request on recovery
        bracket = self.state_journal is not None and not self.recovering
        if bracket:
            self.state_journal.append(
                {"type": "exec-begin", "digest": digest, "op": op}
            )
        try:
            try:
                if not self.recovering:
                    faultinject.fire("serve.exec", op=op, graph=req.get("graph", ""))
                return self._dispatch(req)
            except SimulatedOOM as e:
                # harness runners convert OOM to a row themselves;
                # reaching here means a non-row path blew up
                self.errors += 1
                return error_response(str(e), kind="SimulatedOOM")
            except Exception as e:  # noqa: BLE001 - marshalled to the client
                self.errors += 1
                return error_response(
                    str(e) or type(e).__name__, kind=type(e).__name__
                )
        finally:
            # reached on success and on *handled* failure — a crash or
            # kill never gets here, which is exactly the point
            if bracket:
                self.state_journal.append({"type": "exec-end", "digest": digest})

    def _dispatch(self, req: dict) -> dict:
        if req["op"] == "update_graph":
            return self._update_graph(req)
        reuse = self.hierarchies.handle(req)
        cached_before = self.hierarchies.peek(reuse.key)
        g, spec = self.registry.graph(req["graph"], req["seed"])
        common = dict(
            machine=req["machine"], coarsener=req["coarsener"],
            constructor=req["constructor"], seed=req["seed"], oom=req["oom"],
            reuse=reuse,
        )
        if req["op"] == "coarsen":
            result = run_coarsening(g, spec, **common)
        elif req["op"] == "partition" and req["k"] == 2:
            result = run_partition(g, spec, refinement=req["refinement"], **common)
        elif req["op"] == "partition":
            result = run_partition_kway(g, spec, k=req["k"], **common)
        elif req["op"] == "cluster":
            result = run_cluster(g, spec, **common)
        else:  # pragma: no cover - validate_request guards this
            return error_response(f"unknown op {req['op']!r}")

        row = row_from_result(result)
        meta = {"hierarchy": "hit" if cached_before else "build"}
        if result.get("oom"):
            meta["hierarchy"] = "oom"
        if req.get("assignment"):
            if "part" in result:
                meta["assignment"] = [int(v) for v in result["part"]]
            elif result.get("result") is not None:
                meta["assignment"] = [int(v) for v in result["result"].part]
            elif "labels" in result:
                meta["assignment"] = [int(v) for v in result["labels"]]
        self.executed += 1
        return ok_response(row, key=request_key(req), meta=meta)

    # ----------------------------------------------------------- updates

    def _update_graph(self, req: dict) -> dict:
        """Apply a streaming edge batch to a resident tenant.

        The tenant's CSR is rebuilt through
        :func:`repro.csr.update.apply_edges` (byte-deterministic) and
        swapped into the registry; every cached hierarchy built on the
        tenant is then incrementally patched through
        :func:`repro.coarsen.incremental.patch_hierarchy` — frontier
        re-matching only — with its replay tape extended, so later
        requests keep hitting the cache instead of re-coarsening.
        Hierarchies whose coarsener has no delta mode are evicted, never
        served stale.
        """
        from ..csr.update import apply_edges

        idem = req.get("idem")
        replayed = self._idem_lookup(idem)
        if replayed is not None:
            # a client retry of an already-applied batch: answer with the
            # stored response, byte-identical to the first one — the
            # exactly-once half of the idempotency contract
            return replayed
        name, seed = req["graph"], req["seed"]
        g, _spec = self.registry.graph(name, seed)
        add = remove = None
        if req["add"]:
            au, av, aw = zip(*req["add"])
            add = (list(au), list(av), list(aw))
        if req["remove"]:
            ru, rv = zip(*req["remove"])
            remove = (list(ru), list(rv))
        g_new, delta = apply_edges(g, add=add, remove=remove)
        patched = evicted = 0
        if g_new is not g:
            self.registry.replace_graph(name, seed, g_new)
            patched, evicted = self._patch_hierarchies(name, seed, g_new, delta)
        row = {
            "graph": name, "seed": seed, "n": g_new.n, "m": g_new.m,
            **delta.summary(),
            "hierarchies_patched": patched, "hierarchies_evicted": evicted,
        }
        self.executed += 1
        response = ok_response(row, key=request_key(req))
        # write-behind: the applied delta is durable *before* the client
        # sees an ack, so a crash either loses an unacked update (the
        # retry re-applies it) or recovers an acked one (the retry is
        # answered from the idempotency table) — never both, never neither
        self._journal_state(
            {"type": "update", "graph": name, "seed": seed,
             "add": req["add"], "remove": req["remove"],
             "idem": idem, "row": row}
        )
        if idem is not None:
            self.remember_idempotent(idem, response)
        return response

    def _patch_hierarchies(self, name, seed, g_new, delta) -> tuple[int, int]:
        """Patch (or evict) every cached hierarchy of one tenant.

        Each patch records onto a fresh tape whose space resumes from
        the base tape's post-build RNG state; the stored entry then
        carries the *composed* tape (base events + patch events, patch
        RNG state), so a later cache hit replays the whole lineage —
        charges, spans, tracker calls — exactly as recorded.
        """
        from ..bench.harness import space_for
        from ..coarsen.incremental import patch_hierarchy
        from ..trace.tape import Tape

        patched = evicted = 0
        for key in self.hierarchies.keys_for(name, seed):
            cached = self.hierarchies.entry(key)
            if cached is None:
                continue
            hierarchy, tape = cached
            machine = key[2]
            if (
                hierarchy.stats.get("coarsener") not in ("hec", "hec_delta")
                or tape is None or not tape.complete
            ):
                self.hierarchies.evict(key)
                evicted += 1
                continue
            space = space_for(machine, seed)
            if tape.rng_state is not None:
                space.rng.bit_generator.state = tape.rng_state
            patch_tape = Tape()
            try:
                new_h = patch_hierarchy(
                    hierarchy, g_new, delta, space, tape=patch_tape
                )
            except Exception:  # noqa: BLE001 - stale beats crashed
                self.hierarchies.evict(key)
                evicted += 1
                continue
            composed = Tape()
            composed.machine = tape.machine
            composed.events = list(tape.events) + list(patch_tape.events)
            composed.rng_state = patch_tape.rng_state
            composed.complete = True
            self.hierarchies.replace(key, new_h, composed)
            patched += 1
        return patched, evicted

    # ------------------------------------------------------------- batch

    def execute_batch(
        self, requests: list[dict], deadlines: list[float | None] | None = None
    ) -> list[dict]:
        """Execute a dispatcher batch in order; responses in request order."""
        if deadlines is None:
            deadlines = [None] * len(requests)
        return [
            self.execute(req, deadline=deadline)
            for req, deadline in zip(requests, deadlines)
        ]
