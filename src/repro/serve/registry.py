"""Multi-tenant graph registry and the resident hierarchy cache.

A served graph lives in two places:

* **Resident** — the CSR arrays live in this process, loaded once per
  (graph, seed) tenant and LRU-bounded by ``max_graphs``.  A tenant
  that took an ``update_graph`` exists only here, so it is pinned: the
  bound is exceeded rather than an update lost.
* **Cold** — the artifact cache on disk.  A registry miss loads
  through :func:`repro.generators.corpus.load`, whose per-entry file
  lock single-flights concurrent generation; eviction from the
  registry only drops memory, the cold tier still has the artifact.

Beside the graphs sits the :class:`HierarchyCache`: (config → built
hierarchy + its recorded :class:`~repro.trace.tape.Tape`).  A request
that shares a hierarchy config takes a :class:`ReuseHandle` into the
harness; partitioning one graph at k ∈ {2..64} coarsens exactly once.
Both caches are LRU-bounded and thread-safe (the dispatcher and the
inline status path touch them concurrently).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..generators import corpus

__all__ = ["GraphRegistry", "HierarchyCache", "ReuseHandle", "hierarchy_key"]


def hierarchy_key(req: dict) -> tuple:
    """The coarsening identity a hierarchy is cached under.

    Everything that influences the build: graph, seed, machine (charges
    price differently), coarsener, constructor, and whether the OOM
    simulation is armed.  ``refinement`` and ``k`` are deliberately
    absent — they only affect what happens *after* coarsening, which is
    the whole point of the reuse.
    """
    return (
        req["graph"],
        req["seed"],
        req["machine"],
        req["coarsener"],
        req["constructor"],
        req["oom"],
    )


class GraphRegistry:
    """Resident (graph, seed) tenants under an LRU bound."""

    def __init__(self, max_graphs: int = 8):
        self.max_graphs = max_graphs
        self._lock = threading.Lock()
        #: (name, seed) -> {"graph", "spec"}
        self._entries: OrderedDict[tuple, dict] = OrderedDict()
        #: tenants whose resident graph diverged from the cold tier via
        #: ``update_graph`` — pinned against LRU eviction, because a
        #: reload through the artifact cache would silently resurrect
        #: the pre-update edges
        self._mutated: set[tuple] = set()
        self.loads = 0
        self.evictions = 0
        self.mutations = 0
        #: observers for the serve state journal: called with
        #: ``(name, seed)`` after a tenant becomes resident / is dropped
        self.on_load = None
        self.on_drop = None

    def graph(self, name: str, seed: int):
        """Resolve a tenant's graph, loading it on first touch."""
        key = (name, seed)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry["graph"], entry["spec"]
        # load outside the lock: generation can take a while and the
        # artifact cache's own file lock already single-flights it
        g, spec = corpus.load(name, seed)
        with self._lock:
            raced = self._entries.get(key)
            if raced is not None:  # another thread won the load
                return raced["graph"], raced["spec"]
            self._entries[key] = {"graph": g, "spec": spec}
            self.loads += 1
            victims = self._evict_over_bound(key)
        self._notify_load(key, victims)
        return g, spec

    def _notify_load(self, key: tuple, victims: list[tuple]) -> None:
        """Fire the journal observers outside the registry lock."""
        if self.on_load is not None:
            self.on_load(*key)
        if self.on_drop is not None:
            for victim in victims:
                self.on_drop(*victim)

    def _evict_over_bound(self, loading: tuple) -> list[tuple]:
        """LRU-evict past ``max_graphs``, skipping mutated (pinned)
        tenants — they exist only in this process — and ``loading``,
        the tenant just inserted, which its caller is about to use (an
        ``update_graph`` swaps its graph right after the load).  Caller
        holds the lock; the evicted keys are returned so observers run
        unlocked.  When nothing else can go the bound is exceeded
        rather than losing an update."""
        victims: list[tuple] = []
        while len(self._entries) > self.max_graphs:
            victim = next(
                (k for k in self._entries
                 if k not in self._mutated and k != loading), None
            )
            if victim is None:
                break
            del self._entries[victim]
            self.evictions += 1
            victims.append(victim)
        return victims

    def drop(self, name: str, seed: int) -> bool:
        """Explicitly evict one tenant (recovery replay of a drop record)."""
        key = (name, seed)
        with self._lock:
            if self._entries.pop(key, None) is None:
                return False
            self._mutated.discard(key)
            self.evictions += 1
        if self.on_drop is not None:
            self.on_drop(name, seed)
        return True

    def replace_graph(self, name: str, seed: int, g) -> None:
        """Swap a resident tenant's graph for its post-update CSR.

        The tenant is marked mutated: pinned in the LRU, because the
        cold tier still holds the pre-update artifact.
        """
        key = (name, seed)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                raise KeyError(f"tenant {key!r} is not resident")
            entry["graph"] = g
            self._entries.move_to_end(key)
            self._mutated.add(key)
            self.mutations += 1

    def is_mutated(self, name: str, seed: int) -> bool:
        """True when this tenant's resident graph diverged from disk."""
        with self._lock:
            return (name, seed) in self._mutated

    def resident(self) -> list[dict]:
        with self._lock:
            return [
                {"graph": name, "seed": seed, "n": e["graph"].n,
                 "m": e["graph"].m}
                for (name, seed), e in self._entries.items()
            ]

    def close(self) -> None:
        """Drop every resident tenant."""
        with self._lock:
            self._entries.clear()
            self._mutated.clear()


class ReuseHandle:
    """One config's view of the hierarchy cache — the harness protocol.

    ``get()`` returns ``(hierarchy, tape)`` or None; ``put`` stores a
    fresh build.  Counters land on the owning cache.
    """

    def __init__(self, cache: "HierarchyCache", key: tuple):
        self.cache = cache
        self.key = key

    def get(self):
        return self.cache.get(self.key)

    def put(self, hierarchy, tape) -> None:
        self.cache.put(self.key, hierarchy, tape)


class HierarchyCache:
    """LRU of built hierarchies + their replay tapes, with counters."""

    def __init__(self, max_entries: int = 32):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.builds = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.patches = 0
        #: observers for the serve state journal: ``on_put(key,
        #: hierarchy, tape)`` after a fresh build is cached,
        #: ``on_evict(key)`` after an entry is dropped (LRU or explicit)
        self.on_put = None
        self.on_evict = None

    def handle(self, req: dict) -> ReuseHandle:
        return ReuseHandle(self, hierarchy_key(req))

    def peek(self, key: tuple) -> bool:
        """Presence check that moves no LRU position and no counter."""
        with self._lock:
            return key in self._entries

    def get(self, key: tuple):
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return cached

    def put(self, key: tuple, hierarchy, tape) -> None:
        victims = []
        with self._lock:
            self._entries[key] = (hierarchy, tape)
            self.builds += 1
            while len(self._entries) > self.max_entries:
                victim, _ = self._entries.popitem(last=False)
                victims.append(victim)
                self.evictions += 1
        if self.on_put is not None:
            self.on_put(key, hierarchy, tape)
        if self.on_evict is not None:
            for victim in victims:
                self.on_evict(victim)

    def keys_for(self, graph: str, seed: int) -> list[tuple]:
        """Every cached config built on this (graph, seed) tenant."""
        with self._lock:
            return [k for k in self._entries if k[0] == graph and k[1] == seed]

    def entry(self, key: tuple):
        """Counter-neutral fetch (no hit/miss, no LRU move) — the
        update path inspects entries without skewing the hit rate."""
        with self._lock:
            return self._entries.get(key)

    def replace(self, key: tuple, hierarchy, tape) -> None:
        """Swap an entry for its patched successor (counts as a patch,
        not a build; LRU position and bound are untouched)."""
        with self._lock:
            if key in self._entries:
                self._entries[key] = (hierarchy, tape)
                self.patches += 1

    def evict(self, key: tuple) -> None:
        """Drop one entry (an update made it stale and unpatchable)."""
        with self._lock:
            dropped = self._entries.pop(key, None) is not None
            if dropped:
                self.evictions += 1
        if dropped and self.on_evict is not None:
            self.on_evict(key)

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "builds": self.builds,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "patches": self.patches,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }
