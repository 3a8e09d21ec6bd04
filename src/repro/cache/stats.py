"""Persistent per-cache counters shared across processes.

Counters live in ``stats.json`` inside the cache directory and are
updated read-modify-write under the cache's stats lock, so every
process touching one cache directory accumulates into the same ledger
— that is what lets ``python -m repro.cache status`` (a fresh process)
report the hits/misses/regenerations of a pytest run that already
exited, and lets tests assert "exactly one generation ran" across
forked workers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .atomic import atomic_write_bytes
from .lock import FileLock

__all__ = ["CacheStats", "StatsFile"]


@dataclass
class CacheStats:
    """One cache directory's lifetime counters."""

    hits: int = 0  #: entry present, checksum + fingerprint verified, loaded
    misses: int = 0  #: no usable entry existed; artifact was generated
    regenerations: int = 0  #: subset of misses where a bad entry was replaced
    corruptions: int = 0  #: unreadable / checksum-mismatched entries detected
    stale: int = 0  #: readable entries whose fingerprint no longer matches
    quarantines: int = 0  #: entries moved into quarantine/
    evictions: int = 0  #: entries removed by gc size capping
    store_failures: int = 0  #: entry writes that failed (run degraded on)
    bytes_written: int = 0
    bytes_read: int = 0
    generation_seconds: float = 0.0
    load_seconds: float = 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        out = CacheStats()
        for f in fields(CacheStats):
            setattr(out, f.name, getattr(self, f.name) + getattr(other, f.name))
        return out

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CacheStats":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass
class StatsFile:
    """The on-disk ledger: ``stats.json`` guarded by ``stats.lock``."""

    path: Path
    lock_path: Path = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.path = Path(self.path)
        if self.lock_path is None:
            self.lock_path = self.path.with_suffix(".lock")

    def read(self) -> CacheStats:
        try:
            return CacheStats.from_dict(json.loads(self.path.read_text()))
        except (OSError, ValueError, TypeError):
            return CacheStats()

    def add(self, delta: CacheStats) -> CacheStats:
        """Atomically fold ``delta`` into the ledger; returns the new total."""
        with FileLock(self.lock_path):
            total = self.read().merge(delta)
            atomic_write_bytes(
                self.path,
                json.dumps(total.as_dict(), indent=1, sort_keys=True).encode(),
                durable=False,  # counters are best-effort; artifacts are not
            )
        return total

    def reset(self) -> None:
        with FileLock(self.lock_path):
            try:
                self.path.unlink()
            except FileNotFoundError:
                pass
