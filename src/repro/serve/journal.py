"""Durable serving-state journal + crash recovery for the daemon.

The request journal (:class:`repro.parallel.session.SessionJournal`,
``journal.jsonl``) is an *observability* log: non-durable, torn-tail
tolerant, useful for forensics.  This module adds the **state** journal
(``state.jsonl``) — the record of everything the daemon would otherwise
lose to a SIGKILL:

* ``tenant`` / ``tenant-drop`` — registry residency (a tenant is a
  ``(graph, seed)`` pair; the cold tier — the PR-1 artifact cache —
  still holds the pristine graph, so residency is all that must be
  remembered);
* ``hierarchy`` / ``hierarchy-drop`` — hierarchy-cache keys with the
  sha of their recorded effect tape.  Hierarchies are deterministic
  artifacts: recovery *rebuilds* them from the artifact-cache graph and
  verifies the rebuilt tape's digest against the journaled one, which
  is what makes "bitwise hierarchy recovery" a checked claim instead of
  an assumption;
* ``update`` — one applied ``apply_edges`` batch, with its idempotency
  key and response row.  Updates are journaled *after* a successful
  apply and *before* the response leaves the daemon (write-behind): a
  crash before the record means the client never saw an ack and its
  retry applies the batch once; a crash after it means recovery replays
  the batch and the retry is answered from the idempotency table —
  either way, exactly-once;
* ``exec-begin`` / ``exec-end`` — the poison bracket.  A request that
  kills its executor leaves a dangling ``exec-begin``; recovery counts
  it as a strike against the request's digest, and repeat offenders are
  quarantined (typed error, tenant stays live).

Every record is one JSONL line carrying its own sha256 digest, written
+ flushed + fsynced before the daemon acts on it; :meth:`ServeJournal.scan`
verifies digests and truncates the torn tail exactly like the session
journal.  ``serve --recover DIR`` replays the valid prefix in order
through :func:`recover_executor` and continues appending to the same
file, so recovery is idempotent across any number of crashes.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path

from .. import faultinject
from ..cache.atomic import fsync_dir

__all__ = [
    "STATE_NAME",
    "PoisonTracker",
    "ServeJournal",
    "record_digest",
    "recover_executor",
    "request_digest",
    "tape_digest",
]

STATE_NAME = "state.jsonl"
STATE_SCHEMA = 1


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def record_digest(record: dict) -> str:
    """16-hex sha256 of a record (excluding its own ``sha`` field)."""
    body = {k: v for k, v in record.items() if k != "sha"}
    return hashlib.sha256(_canonical(body).encode()).hexdigest()[:16]


def request_digest(req: dict) -> str:
    """Identity of a request for poison tracking.

    Idempotency keys and deadlines are delivery metadata, not request
    identity: a retry of a crashing request must land on the same
    digest, or repeat offenders would never accumulate strikes.
    """
    core = {k: v for k, v in req.items() if k not in ("idem", "deadline_ms")}
    return hashlib.sha256(_canonical(core).encode()).hexdigest()[:16]


def tape_digest(tape) -> str:
    """Canonical 16-hex digest of an effect tape's recorded streams.

    Covers every stream replay covers — machine, event list (charges
    with their exact float values, span opens/closes, tracker calls)
    and the post-build RNG state — so two tapes with equal digests
    replay bitwise identically.
    """
    events = []
    for ev in tape.events:
        if ev[0] == "charge":
            events.append(["charge", ev[1], ev[2].as_dict()])
        else:
            events.append(list(ev))
    doc = {
        "machine": tape.machine,
        "events": events,
        "rng": tape.rng_state,
        "complete": bool(tape.complete),
    }
    return hashlib.sha256(_canonical(doc).encode()).hexdigest()[:16]


class ServeJournal:
    """Append-only, digest-verified, per-record-fsynced state journal.

    Unlike the request journal every record here is durable: the daemon
    never acts on (or acks) state it could not recover.  A write failure
    (disk full) disarms the journal and is warned about — the daemon
    keeps serving, it just loses crash coverage, the same degradation
    contract as the session journal.
    """

    def __init__(self, directory):
        self.dir = Path(directory)
        self.path = self.dir / STATE_NAME
        self._fh = None
        self.seq = 0
        self.disabled = False
        self.write_failures = 0

    @staticmethod
    def scan(path) -> tuple[list[dict], int]:
        """Parse a state journal: ``(records, valid_byte_length)``.

        Stops at the first torn line (no trailing newline), unparsable
        line, or digest mismatch — everything before it was fsynced
        before the next record was written, so the valid prefix is the
        exact pre-crash state.
        """
        try:
            blob = Path(path).read_bytes()
        except (FileNotFoundError, OSError):
            return [], 0
        records: list[dict] = []
        valid = 0
        for raw in blob.splitlines(keepends=True):
            if not raw.endswith(b"\n"):
                break
            try:
                rec = json.loads(raw)
            except ValueError:
                break
            if not isinstance(rec, dict) or rec.get("sha") != record_digest(rec):
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
            faultinject.fire(
                "serve.journal", type=record.get("type", ""), seq=self.seq
            )
            record["sha"] = record_digest(record)
            self._fh.write((_canonical(record) + "\n").encode())
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as e:
            self.disabled = True
            self.write_failures += 1
            warnings.warn(
                f"state journal write failed ({e}); the daemon keeps serving "
                "but this run can no longer be crash-recovered",
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


class PoisonTracker:
    """Strike counter + quarantine set keyed by request digest.

    A strike is an executor-level death attributable to one request: a
    dangling ``exec-begin`` found at recovery (the in-process executor
    *is* the daemon, so the request took the whole process down) or a
    journaled ``poison`` record.  At ``threshold`` strikes the digest is
    quarantined: the request gets a typed ``PoisonQuarantined`` error
    and never reaches an executor again, while its tenant stays live.
    """

    def __init__(self, threshold: int = 2):
        self.threshold = max(1, threshold)
        self.strikes: dict[str, int] = {}

    def strike(self, digest: str) -> int:
        self.strikes[digest] = self.strikes.get(digest, 0) + 1
        return self.strikes[digest]

    def quarantined(self, digest: str) -> bool:
        return self.strikes.get(digest, 0) >= self.threshold

    def stats(self) -> dict:
        quarantined = sorted(
            d for d, n in self.strikes.items() if n >= self.threshold
        )
        return {
            "strikes": dict(sorted(self.strikes.items())),
            "quarantined": quarantined,
            "threshold": self.threshold,
        }


def recover_executor(executor, directory, *, strict: bool = False) -> dict:
    """Warm-restart ``executor`` from the state journal in ``directory``.

    Replays the journal's valid prefix **in order**: tenants reload
    through the registry from the artifact cache, hierarchies
    are deterministically rebuilt in-process and their tapes verified
    against the journaled digest (a mismatch evicts the entry and is
    reported — never served), updates re-apply through the same
    ``apply_edges``/patch path the live daemon used, and idempotency
    keys are reloaded with their journaled responses.  Dangling
    ``exec-begin`` brackets become poison strikes.

    Returns a summary dict including ``valid_bytes`` (for truncating
    the torn tail) and ``next_seq`` (to continue the sequence).
    """
    from .executor import request_key
    from .protocol import ok_response

    records, valid = ServeJournal.scan(Path(directory) / STATE_NAME)
    summary = {
        "records": len(records), "valid_bytes": valid, "next_seq": 0,
        "tenants": 0, "hierarchies": 0, "updates": 0,
        "skipped": 0, "mismatches": [], "poison_strikes": [],
    }
    if records:
        summary["next_seq"] = records[-1].get("seq", len(records) - 1) + 1
    # liveness pre-pass: a hierarchy that was later dropped and never
    # rebuilt costs a full coarsen to recover and influences nothing —
    # skip it (survivor LRU order is insertion order either way)
    live: dict[tuple, bool] = {}
    for rec in records:
        if rec.get("type") == "hierarchy":
            live[tuple(rec["key"])] = True
        elif rec.get("type") == "hierarchy-drop":
            live[tuple(rec["key"])] = False
    open_exec: dict[str, dict] = {}
    executor.recovering = True
    try:
        for rec in records:
            rtype = rec.get("type")
            faultinject.fire("serve.recover", type=rtype, seq=rec.get("seq", -1))
            if rtype == "tenant":
                executor.registry.graph(rec["graph"], rec["seed"])
                summary["tenants"] += 1
            elif rtype == "tenant-drop":
                executor.registry.drop(rec["graph"], rec["seed"])
                summary["tenants"] -= 1
            elif rtype == "hierarchy":
                key = tuple(rec["key"])
                if not live.get(key):
                    summary["skipped"] += 1
                    continue
                req = {
                    "op": "coarsen", "graph": key[0], "seed": key[1],
                    "machine": key[2], "coarsener": key[3],
                    "constructor": key[4], "oom": key[5],
                    "refinement": "fm", "k": 2, "assignment": False,
                }
                resp = executor.execute(req)
                entry = executor.hierarchies.entry(key)
                ok = resp.get("status") == "ok" and entry is not None
                if ok and rec.get("tape_sha"):
                    ok = entry[1] is not None and \
                        tape_digest(entry[1]) == rec["tape_sha"]
                if not ok:
                    executor.hierarchies.evict(key)
                    summary["mismatches"].append(list(key))
                    if strict:
                        raise RuntimeError(
                            f"hierarchy {key!r} rebuilt with a different "
                            f"tape digest than journaled"
                        )
                else:
                    summary["hierarchies"] += 1
            elif rtype == "hierarchy-drop":
                executor.hierarchies.evict(tuple(rec["key"]))
            elif rtype == "update":
                req = {
                    "op": "update_graph", "graph": rec["graph"],
                    "seed": rec["seed"], "add": rec.get("add") or [],
                    "remove": rec.get("remove") or [],
                }
                executor.execute(req)
                if rec.get("idem") and rec.get("row") is not None:
                    executor.remember_idempotent(
                        rec["idem"], ok_response(rec["row"], key=request_key(req))
                    )
                summary["updates"] += 1
            elif rtype == "exec-begin":
                # counted, not keyed: the same request crashing the
                # daemon in several generations leaves several dangling
                # brackets, and each one must strike or a repeat
                # offender never reaches the quarantine threshold
                open_exec[rec["digest"]] = open_exec.get(rec["digest"], 0) + 1
            elif rtype == "exec-end":
                digest = rec.get("digest")
                if open_exec.get(digest, 0) <= 1:
                    open_exec.pop(digest, None)
                else:
                    open_exec[digest] -= 1
            elif rtype == "poison":
                executor.poison.strike(rec["digest"])
                summary["poison_strikes"].append(rec["digest"])
    finally:
        executor.recovering = False
    for digest, count in open_exec.items():
        # the request was executing when the daemon died: that is what
        # killed it (or at minimum what it never survived) — one strike
        # per death
        for _ in range(count):
            executor.poison.strike(digest)
            summary["poison_strikes"].append(digest)
    return summary
