"""Thread-local resident-memory budget for chunked kernels.

A :class:`MemoryBudget` bounds the *transient per-kernel working set*:
the edge-volume temporaries a hot kernel materialises while it runs
(mapped pairs, sort keys, keep masks, gathers).  O(n) state — mappings,
row pointers, coarse outputs — and the hierarchy levels a run *returns*
are deliberately exempt: they are the product, not the scratch.

The row-window driver (:func:`repro.parallel.tiles.row_window_map`)
consults :func:`current` and, when :meth:`MemoryBudget.engages` says a
kernel's in-memory temporaries would exceed the budget, runs the
kernel's window body over row-aligned edge windows sized by
:meth:`MemoryBudget.window_entries`; ``construct_sort`` additionally
spills its dedup keys to disk.  Windowed and in-memory runs are
byte-identical in results, ledger charges, and trace spans — the
budget only changes *how*, never *what*.

The active budget is thread-local (the serve daemon dispatches requests
on worker threads) and installed with the :func:`limit` context
manager::

    with budget.limit(MemoryBudget(64 << 20)):
        run_coarsening(...)

``budget.peak_planned`` records the largest planned per-window working
set — observability only; it never enters a result row.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["MemoryBudget", "current", "limit", "parse_budget"]


@dataclass
class MemoryBudget:
    """A resident-bytes ceiling for kernel transients.

    Parameters
    ----------
    resident_bytes:
        The ceiling.  Kernels whose estimated in-memory transient bytes
        exceed it switch to chunked execution.
    window_fraction:
        Fraction of the budget one window's live temporaries may occupy
        (several arrays are alive per window entry, plus merge scratch).
    min_window:
        Windows never shrink below this many entries — tiny windows cost
        per-window overhead without reducing the O(n) floor.
    """

    resident_bytes: int
    window_fraction: float = 0.125
    min_window: int = 1 << 12
    #: high-water mark of planned per-window transient bytes (telemetry;
    #: asserted in tests, never reported in result rows)
    peak_planned: int = field(default=0, compare=False)
    #: how many driver calls ran budget windows
    engaged: int = field(default=0, compare=False)

    def engages(self, transient_bytes: int) -> bool:
        """True when a kernel with this transient estimate must chunk."""
        return transient_bytes > self.resident_bytes

    def window_entries(self, bytes_per_entry: int) -> int:
        """Entries per window so live temporaries fit the window slice."""
        budgeted = int(self.resident_bytes * self.window_fraction)
        return max(self.min_window, budgeted // max(bytes_per_entry, 1))

    def note_window(self, entries: int, bytes_per_entry: int) -> None:
        """Record one engaged window's planned working set."""
        planned = entries * bytes_per_entry
        if planned > self.peak_planned:
            self.peak_planned = planned

    def note_engaged(self) -> None:
        self.engaged += 1


_ACTIVE = threading.local()


def current() -> MemoryBudget | None:
    """The budget installed on this thread, or None (unbudgeted)."""
    return getattr(_ACTIVE, "budget", None)


@contextmanager
def limit(budget: MemoryBudget | int | None):
    """Install ``budget`` for the duration of the block (thread-local).

    Accepts a :class:`MemoryBudget`, a plain byte count, or None (no-op,
    so callers can pass an optional budget straight through).
    """
    if budget is None:
        yield None
        return
    if isinstance(budget, int):
        budget = MemoryBudget(budget)
    prev = getattr(_ACTIVE, "budget", None)
    _ACTIVE.budget = budget
    try:
        yield budget
    finally:
        _ACTIVE.budget = prev


_SUFFIX = {
    "": 1,
    "b": 1,
    "k": 1 << 10, "kb": 1 << 10, "kib": 1 << 10,
    "m": 1 << 20, "mb": 1 << 20, "mib": 1 << 20,
    "g": 1 << 30, "gb": 1 << 30, "gib": 1 << 30,
}


def parse_budget(text: str) -> int:
    """Parse ``"64MiB"``/``"0.5g"``/``"1048576"`` into bytes."""
    m = re.fullmatch(r"\s*([0-9]*\.?[0-9]+)\s*([a-zA-Z]*)\s*", str(text))
    if not m or m.group(2).lower() not in _SUFFIX:
        raise ValueError(f"unparseable memory budget {text!r}")
    return int(float(m.group(1)) * _SUFFIX[m.group(2).lower()])
