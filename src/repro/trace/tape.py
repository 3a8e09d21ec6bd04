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
recorded run is itself byte-identical to an unrecorded one.  The span
proxy logs every span whether or not a tracer sits under it, so a tape
recorded by an untraced run replays into a traced one bitwise.

A completed tape also keeps its charges *folded* (:func:`fold`): each
phase's running sum in recorded order.  An untraced replay into phases
the ledger does not hold yet installs those sums instead of re-adding
every charge, which is bitwise the same ledger at a cost that follows
the number of phases rather than of charges.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..parallel.cost import KernelCost

__all__ = ["Tape", "TapeIncomplete", "fold"]


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


def fold(events, base=None) -> tuple[dict[str, KernelCost], list[tuple]]:
    """Per-phase charge totals and tracker calls of an event list.

    Returns ``(totals, tracked)``.  ``totals`` maps each charged phase,
    in first-charge order, to its charges added one by one in recorded
    order onto a zero :class:`KernelCost` -- the very float additions
    :meth:`CostLedger.charge <repro.parallel.cost.CostLedger.charge>`
    makes on a phase it creates.  ``tracked`` lists the ``hold`` and
    ``transient`` events in order.  With ``base`` (an earlier fold) the
    sums continue from copies of its totals and the calls follow its
    calls, so folding a tape's events onto the fold of the events
    before them equals folding them all.
    """
    totals = {} if base is None else {p: c.copy() for p, c in base[0].items()}
    tracked = [] if base is None else list(base[1])
    for ev in events:
        kind = ev[0]
        if kind == "charge":
            total = totals.get(ev[1])
            if total is None:
                total = totals[ev[1]] = KernelCost()
            total += ev[2]
        elif kind == "hold" or kind == "transient":
            tracked.append(ev)
    return totals, tracked


class Tape:
    """One coarsening's effect streams, recordable once, replayable many."""

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.rng_state: dict | None = None
        self.machine: str | None = None
        self.complete = False
        #: :func:`fold` of ``events``, built when the recording completes
        self.fold: tuple[dict[str, KernelCost], list[tuple]] | None = None

    @contextmanager
    def record(self, space):
        """Arm the recording hooks on ``space`` for the enclosed block.

        On clean exit the RNG state is captured, the events are folded
        and the tape is marked complete; an exception (e.g. a simulated
        OOM) leaves the tape incomplete and unreplayable.  The hooks are
        always removed.
        """
        if self.complete:
            raise ValueError("tape already holds a completed recording")
        self.machine = space.machine.name
        events = self.events

        def _on_charge(phase: str, cost: KernelCost) -> None:
            events.append(("charge", phase, cost.copy()))

        inner_tracer = space.tracer
        space.tracer = _RecordingTracer(inner_tracer, events)
        space.ledger.add_listener(_on_charge)
        try:
            yield self
            self.rng_state = space.rng.bit_generator.state
            self.fold = fold(events)
            self.complete = True
        finally:
            space.ledger.remove_listener(_on_charge)
            space.tracer = inner_tracer

    def wrap_tracker(self, tracker):
        """Recording proxy for the memory tracker used inside the block."""
        return _RecordingTracker(tracker, self.events)

    def composed(self, patch: "Tape") -> "Tape":
        """This tape's lineage extended by ``patch``, recorded after it.

        The result holds this tape's events, then ``patch``'s except its
        ``hold`` calls, and ends in ``patch``'s RNG state: a patched
        level is copy-on-write of a level this tape's run already holds
        (:func:`repro.coarsen.incremental.patch_hierarchy`).  The fold is
        carried forward by folding only the appended events onto this
        tape's fold, so it equals the fold of the composed events.
        """
        if not (self.complete and patch.complete):
            raise TapeIncomplete("cannot compose a tape that never finished recording")
        tail = [ev for ev in patch.events if ev[0] != "hold"]
        out = Tape()
        out.machine = self.machine
        out.events = self.events + tail
        out.rng_state = patch.rng_state
        if self.fold is not None:
            out.fold = fold(tail, self.fold)
        out.complete = True
        return out

    def replay(self, space, tracker=None) -> None:
        """Re-apply every recorded effect to ``space`` (and ``tracker``).

        Charges hit the ledger in the original order with the original
        float values; spans open/close through ``space.span`` so an
        attached tracer attributes them exactly as the recorded run's
        tracer did; tracker calls rebuild the same projected peak; and
        the RNG is left in the recorded post-coarsening state.  With no
        tracer on ``space`` the span events are skipped, since
        ``space.span`` would do nothing with them.

        Untraced, the ledger takes the folded phase totals instead
        (:meth:`~repro.parallel.cost.CostLedger.install_totals`) and
        only the tracker calls are replayed.  The ledger declines when
        a listener must see each charge (a recording around this
        replay) or a phase already holds charges; then, and whenever a
        tracer is attached, every event is replayed in order.
        """
        if not self.complete:
            raise TapeIncomplete("cannot replay a tape that never finished recording")
        if space.machine.name != self.machine:
            raise ValueError(
                f"tape recorded on {self.machine!r} cannot replay on "
                f"{space.machine.name!r}: charges price differently"
            )
        if (
            space.tracer is None and self.fold is not None
            and space.ledger.install_totals(self.fold[0])
        ):
            if tracker is not None:
                for ev in self.fold[1]:
                    if ev[0] == "hold":
                        tracker.hold_level(ev[1], ev[2])
                    else:
                        tracker.transient(ev[1])
        else:
            self._replay_events(space, tracker)
        if self.rng_state is not None:
            space.rng.bit_generator.state = self.rng_state

    def _replay_events(self, space, tracker) -> None:
        """Replay every event in recorded order (see :meth:`replay`)."""
        traced = space.tracer is not None
        stack: list = []
        try:
            for ev in self.events:
                kind = ev[0]
                if kind == "charge":
                    space.ledger.charge(ev[1], ev[2])
                elif kind == "open":
                    if traced:
                        ctx = space.span(ev[1], **ev[2])
                        ctx.__enter__()
                        stack.append(ctx)
                elif kind == "close":
                    if traced:
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
