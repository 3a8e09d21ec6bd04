"""Deterministic fault injection for chaos-testing the experiment stack.

Long sweeps are only trustworthy if every recovery path has been walked
on purpose.  This module provides *scoped injection points*: named call
sites threaded through the pool worker and its spawn, the artifact-cache
store, the session journal and the serving daemon, each a one-line
``fire("site", **labels)`` that is a no-op unless a matching rule is
armed.  Rules come from a compact spec string (the ``REPRO_FAULTS``
environment variable or ``--faults`` on the bench CLI), so CI can run a
whole chaos matrix without patching code.

Spec grammar (rules separated by ``;``)::

    rule   := site ":" kind [":" param ("," param)*]
    param  := name "=" value | name "<" value

    kinds  := crash    -- os._exit(70): a worker dying mid-task
              kill     -- SIGKILL the current process (no cleanup at all)
              hang     -- sleep `sleep` seconds (default 3600)
              oserror  -- raise OSError(`errno`, ...), default ENOSPC
              error    -- raise FaultInjected (a generic exception)

A rule must name a site in :data:`SITES`; a stale or misspelt site is
rejected when the spec is parsed rather than armed to never fire.
Reserved params steer firing; anything else is matched against the
labels the call site passes:

    after=N   skip the first N matching hits (per process)
    times=M   fire at most M times (per process; default unlimited)
    sleep=S   hang duration in seconds
    errno=E   errno name for oserror (ENOSPC, EIO, ...)

Examples::

    pool.worker:oserror:graph=ppa,attempt<2   # first two attempts fail
    cache.store:oserror                       # disk full on a cache write
    journal.write:kill:after=3                # die after 3 journal records
    pool.worker:hang:graph=kron21,attempt=0,sleep=600

Everything is deterministic: a rule fires as a pure function of the
(site, labels) call sequence — no wall-clock, no randomness — so a
chaos run either reproduces exactly or proves a scheduling bug.
"""

from __future__ import annotations

import errno as _errno
import os
import signal
import time

__all__ = [
    "FaultInjected",
    "FaultRule",
    "FaultPlan",
    "KINDS",
    "SITES",
    "install",
    "clear",
    "reset",
    "active",
    "fire",
]

ENV_VAR = "REPRO_FAULTS"

KINDS = ("crash", "kill", "hang", "oserror", "error")

#: the injection-point registry: every ``fire()`` call site in the tree
SITES = {
    "pool.worker": "worker side, before a task executes (labels: key, graph, attempt)",
    "pool.create": "parent, before worker processes spawn (labels: jobs)",
    "cache.store": "any process, before an artifact-cache entry is written (labels: key)",
    "journal.write": "parent, before one journal record is appended (labels: type, seq)",
    "serve.exec": "serving daemon, before one request executes (labels: op, graph)",
    "serve.journal": "serving daemon, before one state-journal record is appended (labels: type, seq)",
    "serve.recover": "serving daemon, before one journal record is replayed on --recover (labels: type, seq)",
    "serve.deadline": "serving daemon, at a per-request deadline check (labels: op)",
}

#: exit status used by the ``crash`` kind (BSD EX_SOFTWARE)
CRASH_EXIT_CODE = 70

_RESERVED = ("after", "times", "sleep", "errno")


class FaultInjected(RuntimeError):
    """The generic exception raised by the ``error`` fault kind."""


class FaultRule:
    """One armed fault: a site, a kind, matchers, and firing counters."""

    def __init__(self, site: str, kind: str, params: dict[str, tuple[str, str]]):
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; known: {KINDS}")
        self.site = site
        self.kind = kind
        self.after = 0
        self.times: int | None = None
        self.sleep = 3600.0
        self.errno_name = "ENOSPC"
        self.matchers: list[tuple[str, str, str]] = []  # (label, op, value)
        for name, (op, value) in params.items():
            if name == "after":
                self.after = int(value)
            elif name == "times":
                self.times = int(value)
            elif name == "sleep":
                self.sleep = float(value)
            elif name == "errno":
                self.errno_name = value
            else:
                self.matchers.append((name, op, value))
        self.hits = 0
        self.fired = 0

    def matches(self, site: str, labels: dict) -> bool:
        if site != self.site:
            return False
        for name, op, value in self.matchers:
            if name not in labels:
                return False
            actual = labels[name]
            if op == "<":
                try:
                    if not float(actual) < float(value):
                        return False
                except (TypeError, ValueError):
                    return False
            elif str(actual) != value:
                return False
        return True

    def should_fire(self) -> bool:
        """Advance this rule's hit counter; True when the fault triggers."""
        self.hits += 1
        if self.hits <= self.after:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        self.fired += 1
        return True

    def execute(self, site: str, labels: dict) -> None:
        detail = f"injected {self.kind} at {site} {labels!r}"
        if self.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        elif self.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)  # pragma: no cover - signal delivery race
        elif self.kind == "hang":
            time.sleep(self.sleep)
        elif self.kind == "oserror":
            code = getattr(_errno, self.errno_name, _errno.ENOSPC)
            raise OSError(code, detail)
        else:  # "error"
            raise FaultInjected(detail)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultRule {self.site}:{self.kind} hits={self.hits} fired={self.fired}>"


class FaultPlan:
    """A parsed spec: the ordered rule list one process evaluates."""

    def __init__(self, rules: list[FaultRule], spec: str = ""):
        self.rules = rules
        self.spec = spec

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        rules = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) < 2:
                raise ValueError(
                    f"malformed fault rule {chunk!r} (want site:kind[:params])"
                )
            site, kind = parts[0].strip(), parts[1].strip()
            if site not in SITES:
                raise ValueError(
                    f"unknown fault site {site!r}; known: {sorted(SITES)}"
                )
            params: dict[str, tuple[str, str]] = {}
            for param in ":".join(parts[2:]).split(","):
                param = param.strip()
                if not param:
                    continue
                if "<" in param and ("=" not in param or param.index("<") < param.index("=")):
                    name, value = param.split("<", 1)
                    params[name.strip()] = ("<", value.strip())
                elif "=" in param:
                    name, value = param.split("=", 1)
                    params[name.strip()] = ("=", value.strip())
                else:
                    raise ValueError(f"malformed fault param {param!r} in {chunk!r}")
            rules.append(FaultRule(site, kind, params))
        return cls(rules, spec)

    def fire(self, site: str, labels: dict) -> None:
        for rule in self.rules:
            if rule.matches(site, labels) and rule.should_fire():
                rule.execute(site, labels)


#: sentinel: the environment has not been consulted yet
_UNLOADED = object()
_PLAN: FaultPlan | None | object = _UNLOADED


def install(spec: str | None, *, export_env: bool = True) -> FaultPlan | None:
    """Arm a fault spec for this process (and, via env, its children).

    ``None`` / empty disarms.  With ``export_env`` the spec is mirrored
    into ``REPRO_FAULTS`` so spawned (not just forked) workers inherit
    it; rule counters themselves are always per-process.
    """
    global _PLAN
    if not spec:
        _PLAN = None
        if export_env:
            os.environ.pop(ENV_VAR, None)
        return None
    plan = FaultPlan.parse(spec)
    _PLAN = plan
    if export_env:
        os.environ[ENV_VAR] = spec
    return plan


def clear() -> None:
    """Disarm all faults and forget the cached environment spec."""
    global _PLAN
    _PLAN = _UNLOADED
    os.environ.pop(ENV_VAR, None)


def reset() -> None:
    """Zero every armed rule's counters (test isolation helper)."""
    plan = _current()
    if plan is not None:
        for rule in plan.rules:
            rule.hits = rule.fired = 0


def _current() -> FaultPlan | None:
    global _PLAN
    if _PLAN is _UNLOADED:
        spec = os.environ.get(ENV_VAR, "")
        _PLAN = FaultPlan.parse(spec) if spec else None
    return _PLAN  # type: ignore[return-value]


def active() -> bool:
    """True when at least one fault rule is armed in this process."""
    plan = _current()
    return plan is not None and bool(plan.rules)


def fire(site: str, **labels) -> None:
    """Injection point: trigger any armed fault matching ``site``/labels.

    The fast path — no plan armed — is a dict lookup and a comparison;
    cheap enough to leave in production code paths permanently.
    """
    plan = _current()
    if plan is None:
        return
    plan.fire(site, labels)
