"""Hierarchical span tracing: the Kokkos-Tools substitute.

Real Kokkos exposes profiling hooks (``pushRegion``/``popRegion``,
``beginParallelFor``) so external tools can attribute kernel time to
user-named regions without editing the kernels.  This module is that
interface for the simulated substrate: a :class:`Tracer` attaches to an
:class:`~repro.parallel.execspace.ExecSpace` by subscribing to its
:class:`~repro.parallel.cost.CostLedger`, and every
:class:`~repro.parallel.cost.KernelCost` charged while a span is open is
attributed to the *innermost* open span.  Kernels keep charging the
ledger exactly as before — the drivers only thread named spans
(``with space.span("mapping", level=3): ...``) around the calls.

The simulated clock is the running sum of priced charges, so span
begin/end timestamps form a consistent sequential timeline: a span's
duration is the inclusive simulated time of everything charged while it
was open.  Two accounting invariants hold by construction:

* per-phase totals are accumulated charge-by-charge in the *same order*
  as the ledger's own accumulation, so :meth:`Tracer.phase_seconds`
  equals ``machine.phase_seconds(ledger, phase)`` bitwise — rollups can
  be checked against the ledger *exactly*;
* every charge lands in exactly one span (the root catches charges made
  outside any explicit span), so the root's inclusive time equals the
  ledger total up to float re-association.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from ..parallel.cost import KernelCost

__all__ = ["Span", "Tracer", "load_trace", "TRACE_FORMAT"]

#: format tag written into every serialized trace file
TRACE_FORMAT = "repro-trace/1"

#: root labels composing the config key, in order (missing ones skipped)
_KEY_FIELDS = ("kind", "machine", "coarsener", "constructor", "refinement", "graph", "seed")


@dataclass
class Span:
    """One named region of the simulated execution.

    ``phase_costs`` holds only the charges attributed *directly* to this
    span (the exclusive cost); children carry their own.  Timestamps are
    simulated seconds on the tracer's clock.
    """

    sid: int
    name: str
    labels: dict
    parent: "Span | None" = None
    begin_s: float = 0.0
    end_s: float | None = None
    children: list = field(default_factory=list)
    phase_costs: "OrderedDict[str, KernelCost]" = field(default_factory=OrderedDict)
    charges: int = 0

    def charge(self, phase: str, cost: KernelCost) -> None:
        if phase not in self.phase_costs:
            self.phase_costs[phase] = KernelCost()
        self.phase_costs[phase] += cost
        self.charges += 1

    def exclusive_cost(self) -> KernelCost:
        """Sum of costs attributed directly to this span."""
        out = KernelCost()
        for cost in self.phase_costs.values():
            out += cost
        return out

    def inclusive_cost(self) -> KernelCost:
        """Exclusive cost plus all descendants' (the hierarchy rollup)."""
        out = self.exclusive_cost()
        for child in self.children:
            out += child.inclusive_cost()
        return out

    @property
    def label_name(self) -> str:
        """Display name, disambiguated by hierarchy level when labelled."""
        level = self.labels.get("level")
        return self.name if level is None else f"{self.name}[{level}]"

    @property
    def path(self) -> str:
        """Root-to-here identifier, e.g. ``coarsen/level[3]/mapping[3]``."""
        parts = []
        span: Span | None = self
        while span is not None:
            parts.append(span.label_name)
            span = span.parent
        return "/".join(reversed(parts))


class Tracer:
    """Attributes ledger charges to a stack of nested spans.

    Usage::

        space = gpu_space(seed=0)
        tracer = Tracer("coarsen", labels={"kind": "coarsen", ...}).attach(space)
        coarsen_multilevel(g, space)       # drivers open spans internally
        tracer.close()
        tracer.save("run.trace.json")

    ``attach`` subscribes to the space's ledger *and* sets
    ``space.tracer`` so ``space.span(...)`` opens spans here; ``close``
    unwinds any spans left open (exception paths), stamps the root's end
    time and detaches.
    """

    def __init__(self, name: str = "trace", labels: dict | None = None):
        self.machine = None
        self._next_sid = 0
        self.root = self._new_span(name, dict(labels or {}), None)
        self._stack: list[Span] = [self.root]
        self._phase_totals: OrderedDict[str, KernelCost] = OrderedDict()
        self._clock = 0.0
        self._spaces: list = []

    # ------------------------------------------------------------ wiring

    def attach(self, space) -> "Tracer":
        """Subscribe to ``space``'s ledger and become its span sink."""
        if self.machine is None:
            self.machine = space.machine
        elif self.machine is not space.machine:
            raise ValueError(
                f"tracer priced for {self.machine.name} cannot attach to "
                f"a {space.machine.name} space"
            )
        space.ledger.add_listener(self._on_charge)
        space.tracer = self
        self._spaces.append(space)
        return self

    def detach(self) -> None:
        """Unsubscribe from every attached space's ledger."""
        for space in self._spaces:
            space.ledger.remove_listener(self._on_charge)
            if space.tracer is self:
                space.tracer = None
        self._spaces.clear()

    def close(self) -> "Tracer":
        """Unwind open spans, stamp the root's end time, and detach."""
        while len(self._stack) > 1:
            self._stack.pop().end_s = self._clock
        self.root.end_s = self._clock
        self.detach()
        return self

    # ------------------------------------------------------- attribution

    def _new_span(self, name: str, labels: dict, parent: Span | None) -> Span:
        span = Span(self._next_sid, name, labels, parent)
        self._next_sid += 1
        return span

    def _on_charge(self, phase: str, cost: KernelCost) -> None:
        self._clock += self.machine.seconds(cost)
        self._stack[-1].charge(phase, cost)
        if phase not in self._phase_totals:
            self._phase_totals[phase] = KernelCost()
        self._phase_totals[phase] += cost

    @contextmanager
    def span(self, name: str, **labels):
        """Open a child span of the innermost open span."""
        span = self._new_span(name, labels, self._stack[-1])
        span.begin_s = self._clock
        self._stack[-1].children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_s = self._clock
            self._stack.pop()

    # ----------------------------------------------------------- queries

    def phases(self) -> list[str]:
        return list(self._phase_totals)

    def phase_seconds(self, phase: str) -> float:
        """Simulated seconds attributed to ``phase`` across all spans.

        Accumulated in ledger charge order, so this equals
        ``machine.phase_seconds(ledger, phase)`` bitwise.
        """
        return self.machine.seconds(self._phase_totals.get(phase, KernelCost()))

    def total_seconds(self) -> float:
        """Simulated seconds over all phases (equals ``space.seconds()``)."""
        total = KernelCost()
        for cost in self._phase_totals.values():
            total += cost
        return self.machine.seconds(total)

    def seconds(self, span: Span, *, inclusive: bool = True) -> float:
        cost = span.inclusive_cost() if inclusive else span.exclusive_cost()
        return self.machine.seconds(cost)

    def spans(self):
        """All spans, pre-order (root first)."""
        stack = [self.root]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def config_key(self) -> str:
        """Stable identifier of the traced configuration (baseline key)."""
        parts = [str(self.root.labels[k]) for k in _KEY_FIELDS if k in self.root.labels]
        return ":".join(parts) if parts else self.root.name

    # ----------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Serializable trace: flat span list with rollups + phase totals."""
        spans = []
        for span in self.spans():
            exclusive = span.exclusive_cost()
            spans.append(
                {
                    "id": span.sid,
                    "parent": span.parent.sid if span.parent is not None else None,
                    "name": span.name,
                    "labels": dict(span.labels),
                    "path": span.path,
                    "begin_s": span.begin_s,
                    "end_s": span.end_s if span.end_s is not None else self._clock,
                    "charges": span.charges,
                    "exclusive_s": self.machine.seconds(exclusive),
                    "inclusive_s": self.machine.seconds(span.inclusive_cost()),
                    "phase_s": {
                        p: self.machine.seconds(c) for p, c in span.phase_costs.items()
                    },
                    "counters": exclusive.as_dict(),
                }
            )
        return {
            "format": TRACE_FORMAT,
            "machine": self.machine.name if self.machine is not None else None,
            "key": self.config_key(),
            "labels": dict(self.root.labels),
            "total_s": self.total_seconds(),
            "phases": {
                p: {"seconds": self.phase_seconds(p), "counters": c.as_dict()}
                for p, c in self._phase_totals.items()
            },
            "spans": spans,
        }

    def save(self, path) -> Path:
        """Write the trace as JSON (parents mkdir'd, atomic replace)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))
        tmp.replace(path)
        return path


def load_trace(path) -> dict:
    """Load a serialized trace, validating the format tag."""
    data = json.loads(Path(path).read_text())
    fmt = data.get("format")
    if fmt != TRACE_FORMAT:
        raise ValueError(f"{path}: not a {TRACE_FORMAT} file (format={fmt!r})")
    return data
