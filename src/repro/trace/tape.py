"""Coarsening tapes: record a run's observable effects, replay them later.

The serving daemon (:mod:`repro.serve`) keeps coarsening hierarchies
resident and reuses them across requests, but served responses must stay
**byte-identical** to the equivalent batch run — including the simulated
phase seconds, the span trace, the projected memory peak, and every RNG
draw the downstream refinement makes.  All of those are functions of
what coarsening *did to its context*, not of the hierarchy object alone:

* charges accumulated on the :class:`~repro.parallel.cost.CostLedger`
  (float order matters — re-associating the sum changes the last ulp);
* spans opened/closed on the attached tracer (attribution + timestamps);
* :class:`~repro.parallel.memory.MemoryTracker` ``hold_level`` /
  ``transient`` calls (the ``peak_mem`` a result row reports);
* the position of the execution space's RNG stream (refinement draws
  from the same generator coarsening advanced).

A :class:`Tape` records those four effect streams during one coarsening
and :meth:`~Tape.replay`\\ s them into a fresh space/tracker in the same
order with the same float values — so a request that reuses a cached
hierarchy produces bitwise the same row and trace as one that re-ran
the kernels, without paying for them.

Recording is non-invasive: the hooks (an extra ledger listener, a span
proxy, a tracker proxy) observe without perturbing any float, so a
recorded run is itself byte-identical to an unrecorded one.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..parallel.cost import KernelCost

__all__ = ["Tape", "TapeIncomplete"]


class TapeIncomplete(RuntimeError):
    """Replay was asked of a tape whose recording never finished."""


class _RecordingTracer:
    """Span sink installed on the space while a tape records.

    Forwards every span to the real tracer (when one is attached) so the
    recorded run traces exactly like an unrecorded one, and logs the
    open/close sequence for replay.
    """

    def __init__(self, inner, events: list):
        self.inner = inner
        self.events = events

    @contextmanager
    def span(self, name: str, **labels):
        self.events.append(("open", name, dict(labels)))
        try:
            if self.inner is not None:
                with self.inner.span(name, **labels) as span:
                    yield span
            else:
                yield None
        finally:
            self.events.append(("close",))


class _RecordingTracker:
    """Memory-tracker proxy: logs the calls, delegates the accounting."""

    def __init__(self, inner, events: list):
        self.inner = inner
        self.events = events

    def hold_level(self, n, m) -> None:
        self.events.append(("hold", n, m))
        self.inner.hold_level(n, m)

    def transient(self, workspace_bytes) -> None:
        self.events.append(("transient", workspace_bytes))
        self.inner.transient(workspace_bytes)

    @property
    def peak(self):
        return self.inner.peak


class Tape:
    """One coarsening's effect streams, recordable once, replayable many."""

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.rng_state: dict | None = None
        self.machine: str | None = None
        self.complete = False

    @contextmanager
    def record(self, space):
        """Arm the recording hooks on ``space`` for the enclosed block.

        On clean exit the RNG state is captured and the tape is marked
        complete; an exception (e.g. a simulated OOM) leaves the tape
        incomplete and unreplayable.  The hooks are always removed.
        """
        if self.complete:
            raise ValueError("tape already holds a completed recording")
        self.machine = space.machine.name
        events = self.events

        def _on_charge(phase: str, cost: KernelCost) -> None:
            events.append(("charge", phase, KernelCost(**cost.as_dict())))

        inner_tracer = space.tracer
        space.tracer = _RecordingTracer(inner_tracer, events)
        space.ledger.add_listener(_on_charge)
        try:
            yield self
            self.rng_state = space.rng.bit_generator.state
            self.complete = True
        finally:
            space.ledger.remove_listener(_on_charge)
            space.tracer = inner_tracer

    def wrap_tracker(self, tracker):
        """Recording proxy for the memory tracker used inside the block."""
        return _RecordingTracker(tracker, self.events)

    def replay(self, space, tracker=None) -> None:
        """Re-apply every recorded effect to ``space`` (and ``tracker``).

        Charges hit the ledger in the original order with the original
        float values; spans open/close through ``space.span`` so an
        attached tracer attributes them exactly as the recorded run's
        tracer did; tracker calls rebuild the same projected peak; and
        the RNG is left in the recorded post-coarsening state.
        """
        if not self.complete:
            raise TapeIncomplete("cannot replay a tape that never finished recording")
        if space.machine.name != self.machine:
            raise ValueError(
                f"tape recorded on {self.machine!r} cannot replay on "
                f"{space.machine.name!r}: charges price differently"
            )
        stack: list = []
        try:
            for ev in self.events:
                kind = ev[0]
                if kind == "charge":
                    space.ledger.charge(ev[1], ev[2])
                elif kind == "open":
                    ctx = space.span(ev[1], **ev[2])
                    ctx.__enter__()
                    stack.append(ctx)
                elif kind == "close":
                    stack.pop().__exit__(None, None, None)
                elif kind == "hold":
                    if tracker is not None:
                        tracker.hold_level(ev[1], ev[2])
                elif kind == "transient":
                    if tracker is not None:
                        tracker.transient(ev[1])
        finally:
            while stack:  # pragma: no cover - only on a malformed tape
                stack.pop().__exit__(None, None, None)
        if self.rng_state is not None:
            space.rng.bit_generator.state = self.rng_state
