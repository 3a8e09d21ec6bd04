"""Deterministic tile-parallel kernel engine (intra-graph multicore).

All parallelism before this module was *inter*-experiment: the PR-4/5
process pools fan whole graphs out over workers, so a single graph still
runs every kernel on one core.  This engine parallelises *inside* one
run, the way the paper's execution spaces do, while preserving the
repo-wide byte-determinism contract:

* **Tile boundaries depend only on the graph and a tile-size constant**
  (:data:`DEFAULT_TILE_ENTRIES`) — never on the thread count.  Edge-
  volume kernels tile with :meth:`TileEngine.row_tiles`, the same
  row-aligned decomposition the memory-budget windows use
  (:func:`repro.storage.chunked.row_windows`), so every CSR row lies
  wholly inside one tile and segmented reductions associate exactly as
  the global ``np.add.reduceat`` call.
* **Window bodies return per-tile fragments that are reduced in tile
  order** (:meth:`TileEngine.map_tiles` returns results in submission
  order regardless of completion order); the sort runs of
  :func:`parallel_sort` write disjoint slices.
* **Ledger charges and trace spans are issued outside the tile loop**,
  with the same formulas in the same order as the serial path — tile
  passes never charge, exactly like budget windows.

Together these make output, ledger totals, and trace rollups
byte-identical to serial at any ``--threads N``.  The worker pool is a
shared :class:`~concurrent.futures.ThreadPoolExecutor`; NumPy releases
the GIL on the large array ops the tile kernels consist of, which is
where the speedup comes from.

:func:`row_window_map` is the one place a row-windowed kernel's
execution policy is chosen.  Kernels write one window body; the driver
runs it as budget-sized serial windows when a
:mod:`repro.storage.budget` engages (the resident-memory ceiling is the
binding constraint, and concurrent windows would multiply the in-flight
transient by the thread count), as this engine's fixed row tiles when a
:class:`TileEngine` engages, and otherwise as one window over the whole
edge space.  A tile *is* a window with a constant size; the
decompositions are shared, only the driver arm differs.

The active engine is thread-local (the serve daemon dispatches requests
on worker threads) with a process-global default installed by
:func:`configure` (the CLI / pool-worker path)::

    tiles.configure(threads)            # process-wide, e.g. --threads 4
    with tiles.limit(TileEngine(4)):    # scoped, e.g. tests
        run_coarsening(...)

Inside a tile worker thread :func:`current` returns ``None``, so a
kernel invoked from tile code can never re-enter the pool (nested
tiling would deadlock a saturated executor).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from ..storage import budget as _budget
from ..storage import chunked as _chunked
from ..storage import mapped as _mapped

__all__ = [
    "DEFAULT_TILE_ENTRIES",
    "TileEngine",
    "clamp_threads",
    "configure",
    "current",
    "limit",
    "parallel_sort",
    "resolve_threads",
    "row_window_map",
    "stitch",
    "usable_cores",
]

#: adjacency entries per tile.  A graph-shape constant: 64Ki entries of
#: 8-byte temporaries keep a tile's working set L2-sized, and boundaries
#: computed from it depend only on the graph — never on the thread
#: count, which is what makes the decomposition deterministic.
DEFAULT_TILE_ENTRIES = 1 << 16

#: below this many entries a kernel runs serial even when an engine is
#: installed: dispatch overhead would exceed the array work.
_ENGAGE_ENTRIES = DEFAULT_TILE_ENTRIES


class TileEngine:
    """A fixed-boundary tile decomposer plus a shared worker pool.

    ``threads`` is the pool width; ``tile_entries`` the boundary
    constant.  The engine is reusable across kernels and runs — the
    executor is created lazily and survives until :meth:`close`.
    Telemetry (``kernels``/``tiles`` counters) is mutated only on the
    submitting thread, so no locks guard it.
    """

    def __init__(self, threads: int, tile_entries: int = DEFAULT_TILE_ENTRIES):
        self.threads = max(1, int(threads))
        self.tile_entries = max(1, int(tile_entries))
        #: kernels that actually ran tiled
        self.kernels = 0
        #: tiles executed across those kernels
        self.tiles = 0
        self._pool: ThreadPoolExecutor | None = None
        self._pool_pid: int | None = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------ decomposition

    def engaged(self, entries: int) -> bool:
        """True when a kernel over ``entries`` should run tiled."""
        return self.threads > 1 and entries > max(self.tile_entries, _ENGAGE_ENTRIES)

    def row_tiles(self, xadj) -> list:
        """Row-aligned ``(r0, r1, e0, e1)`` tiles of a CSR edge space.

        Identical decomposition function to the budget windows; the
        boundaries are a pure function of ``xadj`` and ``tile_entries``.
        """
        return list(_chunked.row_windows(xadj, self.tile_entries))

    # ---------------------------------------------------------- execution

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            # fork safety: a forked worker inherits the parent's engine
            # object, but the executor's threads do not survive fork —
            # submitting to the stale pool would enqueue forever.  A
            # pool is only ever used in the process that created it.
            if self._pool is None or self._pool_pid != os.getpid():
                self._pool = ThreadPoolExecutor(
                    max_workers=self.threads, thread_name_prefix="repro-tile"
                )
                self._pool_pid = os.getpid()
            return self._pool

    def map_tiles(self, fn, tiles) -> list:
        """Run ``fn(*tile)`` for every tile; results in **tile order**.

        Tiles execute concurrently on the shared pool but the returned
        list is ordered by submission, so reductions over it are
        deterministic regardless of completion interleave.
        """
        tiles = list(tiles)
        self.kernels += 1
        self.tiles += len(tiles)
        if self.threads <= 1 or len(tiles) <= 1:
            return [fn(*t) for t in tiles]
        ex = self._executor()
        futures = [ex.submit(_tile_call, fn, t) for t in tiles]
        return [f.result() for f in futures]

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    # ---------------------------------------------------------- telemetry

    def snapshot(self) -> dict:
        return {
            "threads": self.threads,
            "tile_entries": self.tile_entries,
            "tiled_kernels": self.kernels,
            "tiles_run": self.tiles,
        }


def _tile_call(fn, tile):
    """Execute one tile on a worker thread with re-entrancy guarded."""
    _ACTIVE.in_tile = True
    try:
        return fn(*tile)
    finally:
        _ACTIVE.in_tile = False


# ------------------------------------------------------------ installation

_ACTIVE = threading.local()
_GLOBAL: TileEngine | None = None


def current() -> TileEngine | None:
    """The engine visible to this thread, or None (serial kernels).

    Thread-local installs (``limit``) win over the process-global one
    (``configure``); tile worker threads always see None.
    """
    if getattr(_ACTIVE, "in_tile", False):
        return None
    eng = getattr(_ACTIVE, "engine", None)
    return eng if eng is not None else _GLOBAL


def configure(threads: int, tile_entries: int = DEFAULT_TILE_ENTRIES) -> TileEngine | None:
    """Install (or clear, for ``threads <= 1``) the process-global engine."""
    global _GLOBAL
    old, _GLOBAL = _GLOBAL, None
    if old is not None:
        old.close()
    if threads > 1:
        _GLOBAL = TileEngine(threads, tile_entries)
    return _GLOBAL


@contextmanager
def limit(engine: TileEngine | int | None):
    """Install ``engine`` for the duration of the block (thread-local).

    Accepts a :class:`TileEngine`, a plain thread count (engine created
    and closed here), or None (no-op pass-through).
    """
    if engine is None:
        yield None
        return
    owned = None
    if isinstance(engine, int):
        engine = owned = TileEngine(engine)
    prev = getattr(_ACTIVE, "engine", None)
    _ACTIVE.engine = engine
    try:
        yield engine
    finally:
        _ACTIVE.engine = prev
        if owned is not None:
            owned.close()


# ------------------------------------------------------- row-window driver

def row_window_map(xadj, bytes_per_entry: int, body, g=None):
    """Run ``body(r0, r1, e0, e1)`` over row-aligned windows of ``xadj``.

    The one place a row-windowed kernel's execution policy is chosen:

    * an installed :class:`~repro.storage.budget.MemoryBudget` that
      engages on ``bytes_per_entry`` transient bytes per entry: serial
      budget-sized windows, each noted on the budget, with ``g``'s
      mapped pages dropped after every window.  Results are yielded
      lazily, so a caller that spills each one keeps one window's
      output resident;
    * an engaged :class:`TileEngine`: the engine's fixed row tiles, run
      concurrently through :meth:`TileEngine.map_tiles`;
    * otherwise one ``body(0, n, 0, m)`` call over the whole edge space.

    Every arm returns body results in window (row) order.  Rows never
    straddle windows, so a body whose per-row reductions associate
    left to right produces the same bytes under every arm.
    """
    n = len(xadj) - 1
    m = int(xadj[n])
    b = _budget.current()
    if b is not None and b.engages(bytes_per_entry * m):
        b.note_engaged()
        return _budget_windows(b, xadj, bytes_per_entry, body, g)
    eng = current()
    if eng is not None and eng.engaged(m):
        return eng.map_tiles(body, eng.row_tiles(xadj))
    return [body(0, n, 0, m)]


def _budget_windows(b, xadj, bytes_per_entry, body, g):
    for r0, r1, e0, e1 in _chunked.row_windows(xadj, b.window_entries(bytes_per_entry)):
        b.note_window(e1 - e0, bytes_per_entry)
        out = body(r0, r1, e0, e1)
        if g is not None:
            _mapped.advise_dontneed(g)
        yield out


def stitch(parts) -> np.ndarray:
    """Concatenate per-window fragments in window order.

    A lone fragment (the single-window arm) is returned uncopied.
    """
    parts = list(parts)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# ---------------------------------------------------------- thread counts

def usable_cores() -> int:
    """Cores this process may run on (affinity-aware).

    The ``--threads 0`` / ``--jobs 0`` resolution and the cap that keeps
    ``jobs x threads`` within the cpuset, which can be smaller than the
    host's ``os.cpu_count()``.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_threads(requested: int | None, *, env: dict | None = None) -> int:
    """``--threads`` resolution: None = ``REPRO_THREADS`` or 1; 0 = all cores."""
    if env is None:
        env = os.environ
    if requested is None:
        try:
            requested = int(env.get("REPRO_THREADS", "") or 1)
        except ValueError:
            requested = 1
    if requested == 0:
        return usable_cores()
    return max(1, requested)


def clamp_threads(threads: int, jobs: int) -> int:
    """Per-worker thread budget so ``jobs x threads <= cores``.

    The oversubscription guard for ``--jobs N --threads M``: each of the
    ``jobs`` worker processes gets at most ``cores // jobs`` tile
    threads (never below 1).
    """
    if jobs <= 1:
        return max(1, threads)
    return max(1, min(threads, usable_cores() // max(1, jobs)))


# ------------------------------------------------------- parallel sorting

def parallel_sort(a: np.ndarray, eng: TileEngine) -> np.ndarray:
    """Sort ``a`` in place with tiled runs + pairwise merges.

    Produces exactly what ``a.sort()`` would: callers sort either bare
    keys (equal values are interchangeable, so any sorted arrangement is
    the same bytes) or packed ``(key << idx_bits) + index`` words (all
    unique) — the same canonicality argument
    :func:`repro.storage.chunked.external_sort` relies on.  Run
    boundaries are fixed multiples of ``tile_entries``; merge passes
    pair runs left to right, each pair merged by one pool task via
    ``searchsorted`` placement.
    """
    n = len(a)
    step = eng.tile_entries
    if eng.threads <= 1 or n <= 2 * step:
        a.sort()
        return a
    bounds = list(range(0, n, step)) + [n]
    runs = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    def sort_run(lo, hi):
        a[lo:hi].sort()

    eng.map_tiles(sort_run, runs)

    def merge_pair(s, d, lo, mid, hi):
        if mid >= hi:  # lone tail run: copy through
            d[lo:hi] = s[lo:hi]
            return
        left, right = s[lo:mid], s[mid:hi]
        out = d[lo:hi]
        # ties place left entries first: stable, and byte-identical for
        # the canonical key families described above either way
        out[np.arange(len(left)) + np.searchsorted(right, left, side="left")] = left
        out[np.arange(len(right)) + np.searchsorted(left, right, side="right")] = right

    src, dst = a, np.empty_like(a)
    while len(runs) > 1:
        pairs = []
        merged = []
        for i in range(0, len(runs), 2):
            lo = runs[i][0]
            if i + 1 < len(runs):
                mid, hi = runs[i][1], runs[i + 1][1]
            else:
                mid = hi = runs[i][1]
            pairs.append((src, dst, lo, mid, hi))
            merged.append((lo, hi))
        eng.map_tiles(merge_pair, pairs)
        runs = merged
        src, dst = dst, src

    if src is not a:
        a[:] = src
    return a
