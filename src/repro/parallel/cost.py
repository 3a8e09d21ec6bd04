"""Kernel cost accounting.

The paper's performance results are bandwidth-bound kernel costs on two
machines.  We cannot run CUDA here, so every kernel in this library
*charges* an operation-count record (:class:`KernelCost`) to a
:class:`CostLedger`; a :class:`~repro.parallel.machine.MachineModel`
converts ledgers into simulated seconds.  Costs are pure functions of the
algorithm and input, so simulated times are bit-reproducible.

Counter semantics
-----------------
``stream_bytes``
    Bytes moved by coalesced/sequential traversal (CSR sweeps, packed
    writes, scans).  Priced against the machine's streaming bandwidth.
``random_bytes``
    Bytes moved by data-dependent gathers/scatters (``M[adj[e]]``, hash
    probes).  Priced against the (much lower) random-access bandwidth.
``atomic_ops``
    Atomic CAS / fetch-add operations.
``sort_key_ops``
    Key movements performed by sorting, i.e. ``Σ k_i · ceil(log2 k_i)``
    over sorted runs.  Each op streams one (key, value) pair.
``hash_ops``
    Hash-table insert/probe operations; each is a random access plus
    bookkeeping.
``spill_ops``
    Accumulator operations that overflow team-local (shared) memory and
    spill to device memory.  A GPU-side pathology: the CPU's caches
    absorb large accumulators, so the CPU model prices these near zero.
``launches``
    Kernel launches / parallel-region entries.
``flops``
    Arithmetic work (SpMV multiplies, weight accumulation).
``transfer_bytes``
    Host-device transfers (charged only by the GPU model; Fig. 3 center
    excludes these per the paper).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, fields

__all__ = ["KernelCost", "CostLedger"]

_COUNTERS = (
    "stream_bytes",
    "random_bytes",
    "atomic_ops",
    "sort_key_ops",
    "hash_ops",
    "spill_ops",
    "launches",
    "flops",
    "transfer_bytes",
)


@dataclass
class KernelCost:
    """Operation counts for one kernel invocation (or an aggregate)."""

    stream_bytes: float = 0.0
    random_bytes: float = 0.0
    atomic_ops: float = 0.0
    sort_key_ops: float = 0.0
    hash_ops: float = 0.0
    spill_ops: float = 0.0
    launches: float = 0.0
    flops: float = 0.0
    transfer_bytes: float = 0.0

    def __add__(self, other: "KernelCost") -> "KernelCost":
        return KernelCost(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )

    def __iadd__(self, other: "KernelCost") -> "KernelCost":
        # unrolled: this runs once per charge on every kernel hot path
        self.stream_bytes += other.stream_bytes
        self.random_bytes += other.random_bytes
        self.atomic_ops += other.atomic_ops
        self.sort_key_ops += other.sort_key_ops
        self.hash_ops += other.hash_ops
        self.spill_ops += other.spill_ops
        self.launches += other.launches
        self.flops += other.flops
        self.transfer_bytes += other.transfer_bytes
        return self

    def copy(self) -> "KernelCost":
        """An independent copy: a later ``+=`` on either leaves the other alone."""
        return KernelCost(
            self.stream_bytes, self.random_bytes, self.atomic_ops,
            self.sort_key_ops, self.hash_ops, self.spill_ops, self.launches,
            self.flops, self.transfer_bytes,
        )

    def scaled(self, factor: float) -> "KernelCost":
        """All counters multiplied by ``factor`` (paper-scale projection)."""
        return KernelCost(**{f: getattr(self, f) * factor for f in _COUNTERS})

    def as_dict(self) -> dict[str, float]:
        return {f: getattr(self, f) for f in _COUNTERS}


class CostLedger:
    """Accumulates named kernel costs grouped into phases.

    A phase is a string like ``"mapping"``, ``"construction"``,
    ``"transfer"``, ``"initial"`` or ``"refinement"``; the experiment
    harness reports per-phase simulated time (e.g. Table II's %GrCo is
    the construction share of coarsening time).

    Observers (:meth:`add_listener`) see every individual charge in
    order — this is the Kokkos-Tools-style profiling hook the span
    tracer (:mod:`repro.trace`) plugs into: kernels keep charging the
    ledger exactly as before, and attribution happens out-of-band.
    """

    def __init__(self) -> None:
        self._phases: OrderedDict[str, KernelCost] = OrderedDict()
        self._listeners: list = []

    def add_listener(self, fn) -> None:
        """Register ``fn(phase, cost)`` to observe every future charge."""
        if fn not in self._listeners:
            self._listeners.append(fn)

    def remove_listener(self, fn) -> None:
        """Unregister a charge observer (no-op if absent)."""
        try:
            self._listeners.remove(fn)
        except ValueError:
            pass

    def charge(self, phase: str, cost: KernelCost) -> None:
        """Add ``cost`` to ``phase`` (created on first use)."""
        if phase not in self._phases:
            self._phases[phase] = KernelCost()
        self._phases[phase] += cost
        for fn in self._listeners:
            fn(phase, cost)

    def install_totals(self, totals: dict[str, KernelCost]) -> bool:
        """Take each of ``totals``' phases as a copy of its cost, if allowed.

        The bulk form of charging a run of costs whose per-phase sums
        were taken ahead (:meth:`repro.trace.tape.Tape.replay`): a sum
        started from zero and added to in charge order is bitwise what
        :meth:`charge` leaves on a phase it creates.  So this declines,
        changing nothing and returning False, when a listener is
        attached (it must see every charge) or when any of the phases
        was already charged (adding a sum is not adding its terms one
        by one).  New phases follow the existing ones in ``totals``'
        order, as :meth:`charge` would create them.
        """
        if self._listeners or any(p in self._phases for p in totals):
            return False
        for phase, cost in totals.items():
            self._phases[phase] = cost.copy()
        return True

    def phase(self, phase: str) -> KernelCost:
        """Total cost charged to ``phase`` (zero cost if never charged)."""
        return self._phases.get(phase, KernelCost())

    def phases(self) -> list[str]:
        return list(self._phases)

    def total(self, *, exclude: tuple[str, ...] = ()) -> KernelCost:
        """Sum of all phases, optionally excluding some (e.g. transfer)."""
        out = KernelCost()
        for name, cost in self._phases.items():
            if name not in exclude:
                out += cost
        return out

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's phases into this one."""
        for name, cost in other._phases.items():
            self.charge(name, cost)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CostLedger phases={list(self._phases)}>"
