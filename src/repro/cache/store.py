"""Self-healing artifact cache: fingerprinted, checksummed, lock-guarded.

One :class:`ArtifactCache` manages a directory of expensive-to-build
artifacts (corpus graphs today; any checkpoint-shaped blob tomorrow).
Every entry is a data file plus a ``<key>.meta.json`` sidecar recording
the content checksum and the *fingerprint* of the parameters that built
it.  A load succeeds only if the sidecar parses, the checksum matches,
and the fingerprint equals what the caller expects; anything else —
truncated zip, bit-flip, stale generator parameters, missing sidecar —
is moved into ``quarantine/`` and the artifact is transparently rebuilt
under a per-entry inter-process lock.  No failure mode requires a human
to delete the cache directory.

Layout of one cache root::

    <root>/<key>.npz            artifact (written atomically)
    <root>/<key>.meta.json      {fingerprint, sha256, size, ...}
    <root>/quarantine/          corrupt/stale entries, moved aside
    <root>/.locks/<key>.lock    per-entry flock files
    <root>/stats.json           cross-process counters (see stats.py)
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import time
import warnings
import zipfile
from pathlib import Path
from typing import Callable

from .. import faultinject

from .atomic import TMP_MARKER, atomic_write_bytes, is_temp_file
from .lock import FileLock
from .stats import CacheStats, StatsFile

__all__ = ["ArtifactCache", "CacheEntryError", "fingerprint_payload"]

#: bump when the on-disk entry layout (sidecar schema) changes
CACHE_SCHEMA = 1

META_SUFFIX = ".meta.json"
STATS_NAME = "stats.json"
QUARANTINE_DIR = "quarantine"
LOCKS_DIR = ".locks"

#: exceptions a corrupt artifact may raise out of a loader
LOAD_ERRORS = (
    zipfile.BadZipFile,
    EOFError,
    KeyError,
    OSError,
    ValueError,
)


class CacheEntryError(Exception):
    """An entry failed validation; carries the reason for observability."""


#: per-process quarantine sequence: combined with the pid it makes every
#: quarantine destination unique even across processes acting in the
#: same millisecond (a bare ms stamp collides and ``os.replace`` would
#: then silently destroy earlier evidence)
_QUARANTINE_SEQ = itertools.count()


def _move_no_clobber(src: Path, dest: Path) -> bool:
    """Move ``src`` to ``dest`` without ever overwriting ``dest``.

    A hard-link + unlink pair is atomic and fails with ``EEXIST`` when
    the destination already exists; filesystems without hard links fall
    back to an exists-check + ``os.rename`` (still never ``os.replace``).
    Returns False when ``dest`` is already taken.
    """
    try:
        os.link(src, dest)
    except FileExistsError:
        return False
    except OSError:
        if dest.exists():
            return False
        os.rename(src, dest)
        return True
    os.unlink(src)
    return True


def fingerprint_payload(payload: dict) -> str:
    """Stable 16-hex fingerprint of a JSON-serialisable parameter dict."""
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _sha256(path: Path, chunk: int = 1 << 20) -> tuple[str, int]:
    """Checksum + size of a file, or of a whole *directory artifact*.

    Directory entries (mapped graphs) hash every file's relative path
    and contents in sorted order, so any added, removed, renamed, or
    altered file changes the digest.
    """
    h = hashlib.sha256()
    size = 0
    path = Path(path)
    if path.is_dir():
        for f in sorted(p for p in path.rglob("*") if p.is_file()):
            h.update(f.relative_to(path).as_posix().encode())
            h.update(b"\0")
            with open(f, "rb") as fh:
                while True:
                    buf = fh.read(chunk)
                    if not buf:
                        break
                    h.update(buf)
                    size += len(buf)
        return h.hexdigest(), size
    with open(path, "rb") as f:
        while True:
            buf = f.read(chunk)
            if not buf:
                break
            h.update(buf)
            size += len(buf)
    return h.hexdigest(), size


def _delete_path(path: Path) -> None:
    """Remove a cache entry path: file or directory artifact alike."""
    try:
        if path.is_dir() and not path.is_symlink():
            shutil.rmtree(path)
        else:
            path.unlink()
    except FileNotFoundError:
        pass


class ArtifactCache:
    """A directory of integrity-checked artifacts with shared counters."""

    def __init__(self, root):
        self.root = Path(root)
        self._stats = StatsFile(self.root / STATS_NAME)

    # ---------------------------------------------------------------- paths
    def data_path(self, key: str, ext: str = ".npz") -> Path:
        return self.root / f"{key}{ext}"

    def meta_path(self, key: str) -> Path:
        return self.root / f"{key}{META_SUFFIX}"

    def lock_path(self, key: str) -> Path:
        safe = key.replace(os.sep, "_")
        return self.root / LOCKS_DIR / f"{safe}.lock"

    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    # ---------------------------------------------------------- validation
    def _read_meta(self, key: str) -> dict:
        try:
            meta = json.loads(self.meta_path(key).read_text())
        except FileNotFoundError:
            raise CacheEntryError("missing sidecar")
        except (OSError, ValueError):
            raise CacheEntryError("unreadable sidecar")
        if not isinstance(meta, dict):
            raise CacheEntryError("malformed sidecar")
        return meta

    def validate(self, key: str, fingerprint: str | None = None, ext: str = ".npz") -> dict:
        """Raise :class:`CacheEntryError` unless entry ``key`` is sound.

        Checks, in order: sidecar parses, schema matches, fingerprint
        matches (when given), data file exists, checksum matches, and —
        for ``.npz`` artifacts — the file is a structurally valid zip.
        Returns the sidecar dict on success.
        """
        meta = self._read_meta(key)
        if meta.get("schema") != CACHE_SCHEMA:
            raise CacheEntryError(f"schema {meta.get('schema')!r} != {CACHE_SCHEMA}")
        if fingerprint is not None and meta.get("fingerprint") != fingerprint:
            raise CacheEntryError(
                f"stale: fingerprint {meta.get('fingerprint')!r} != {fingerprint!r}"
            )
        data = self.data_path(key, ext)
        if not data.exists():
            raise CacheEntryError("missing data file")
        digest, size = _sha256(data)
        if digest != meta.get("sha256"):
            raise CacheEntryError("checksum mismatch")
        if ext == ".npz" and not zipfile.is_zipfile(data):
            raise CacheEntryError("not a valid zip")
        return meta

    # ---------------------------------------------------------- quarantine
    def quarantine(self, *paths) -> list[Path]:
        """Move files aside into ``quarantine/`` (never delete evidence).

        Destinations are stamped ``<ms>-p<pid>-<seq>`` — pid plus a
        monotonic per-process counter — so two processes quarantining
        the same entry in the same millisecond cannot collide.  Should a
        destination exist anyway, the move fails closed: a fresh name is
        tried rather than overwriting the earlier evidence, and after
        exhausting the attempts the quarantine raises instead of
        clobbering.
        """
        qdir = self.quarantine_dir()
        qdir.mkdir(parents=True, exist_ok=True)
        moved = []
        for p in paths:
            p = Path(p)
            if not p.exists():
                continue
            for _ in range(1000):
                stamp = f"{int(time.time() * 1000)}-p{os.getpid()}-{next(_QUARANTINE_SEQ)}"
                dest = qdir / f"{p.name}.{stamp}.quarantined"
                if _move_no_clobber(p, dest):
                    moved.append(dest)
                    break
            else:  # pragma: no cover - requires 1000 live collisions
                raise CacheEntryError(
                    f"could not quarantine {p}: every destination name "
                    "collided with existing evidence"
                )
        return moved

    # ------------------------------------------------------------- core API
    def get_or_create(
        self,
        key: str,
        fingerprint: str,
        generate: Callable[[], object],
        save: Callable[[object, Path], None],
        load: Callable[[Path], object],
        *,
        ext: str = ".npz",
    ):
        """Return the cached artifact for ``key``, healing as needed.

        Fast path: validate + load without locking.  On any defect the
        slow path runs under the entry's exclusive inter-process lock:
        re-validate (another worker may have rebuilt the entry while we
        waited), quarantine whatever is broken or stale, and only then
        pay ``generate()``.  ``save`` must write atomically (see
        :func:`repro.cache.atomic.atomic_write`); the sidecar is written
        after the data file so a crash between the two self-heals as a
        "missing sidecar" on the next read.

        A failing store (e.g. disk full) degrades instead of killing the
        caller: the freshly generated object is returned, the failure is
        counted (``store_failures``), and the next load regenerates.
        """
        delta = CacheStats()
        obj = self._try_load(key, fingerprint, load, ext, delta)
        if obj is not None:
            self._stats.add(delta)
            return obj

        delta = CacheStats()
        with FileLock(self.lock_path(key)):
            obj = self._try_load(key, fingerprint, load, ext, delta)
            if obj is not None:
                self._stats.add(delta)
                return obj

            had_entry = self._quarantine_bad_entry(key, fingerprint, ext, delta)
            t0 = time.perf_counter()
            obj = generate()
            delta.generation_seconds += time.perf_counter() - t0
            try:
                self._store(key, fingerprint, obj, save, ext, delta)
            except OSError as e:
                delta.store_failures += 1
                warnings.warn(
                    f"cache store of {key!r} failed ({e}); continuing uncached",
                    RuntimeWarning,
                    stacklevel=2,
                )
            delta.misses += 1
            if had_entry:
                delta.regenerations += 1
        self._stats.add(delta)
        return obj

    def get_or_create_path(
        self,
        key: str,
        fingerprint: str,
        build: Callable[[Path], None],
        load: Callable[[Path], object],
        *,
        ext: str,
    ):
        """Like :meth:`get_or_create`, but materialised straight on disk.

        ``build(tmp_path)`` creates the artifact — a file **or a whole
        directory** — at a temp path inside the cache root; on success
        it is renamed atomically over the entry path and the sidecar is
        written with a directory-aware checksum.  The artifact never
        takes an in-memory detour, which is the point: a mapped x100
        tier is streamed to disk shard by shard.

        Unlike :meth:`get_or_create` there is no uncached degradation on
        store failure — the on-disk entry *is* the object — so build or
        rename errors propagate after the temp path is cleaned up.
        """
        delta = CacheStats()
        obj = self._try_load(key, fingerprint, load, ext, delta)
        if obj is not None:
            self._stats.add(delta)
            return obj

        delta = CacheStats()
        with FileLock(self.lock_path(key)):
            obj = self._try_load(key, fingerprint, load, ext, delta)
            if obj is not None:
                self._stats.add(delta)
                return obj

            had_entry = self._quarantine_bad_entry(key, fingerprint, ext, delta)
            faultinject.fire("cache.store", key=key)
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self.root / f"{key}{TMP_MARKER}p{os.getpid()}{ext}"
            _delete_path(tmp)  # stale leftover from a killed builder
            t0 = time.perf_counter()
            try:
                build(tmp)
                os.replace(tmp, self.data_path(key, ext))
            except BaseException:
                _delete_path(tmp)
                raise
            delta.generation_seconds += time.perf_counter() - t0
            meta = self._write_sidecar(key, fingerprint, ext)
            delta.bytes_written += meta["size"]
            delta.misses += 1
            if had_entry:
                delta.regenerations += 1
            obj = load(self.data_path(key, ext))
        self._stats.add(delta)
        return obj

    def _try_load(self, key, fingerprint, load, ext, delta: CacheStats):
        try:
            self.validate(key, fingerprint, ext)
            t0 = time.perf_counter()
            obj = load(self.data_path(key, ext))
        except CacheEntryError:
            return None
        except LOAD_ERRORS:
            return None
        delta.hits += 1
        delta.load_seconds += time.perf_counter() - t0
        delta.bytes_read += self.data_path(key, ext).stat().st_size
        return obj

    def _quarantine_bad_entry(self, key, fingerprint, ext, delta: CacheStats) -> bool:
        """Under lock: classify and quarantine a defective entry, if any."""
        data, meta = self.data_path(key, ext), self.meta_path(key)
        if not data.exists() and not meta.exists():
            return False
        try:
            self.validate(key, fingerprint, ext)
            # validates but the loader still failed on the fast path:
            # treat as corrupt content (e.g. arrays missing from the zip)
            delta.corruptions += 1
        except CacheEntryError as e:
            if str(e).startswith("stale"):
                delta.stale += 1
            else:
                delta.corruptions += 1
        delta.quarantines += len(self.quarantine(data, meta))
        return True

    def _store(self, key, fingerprint, obj, save, ext, delta: CacheStats) -> None:
        faultinject.fire("cache.store", key=key)
        data = self.data_path(key, ext)
        self.root.mkdir(parents=True, exist_ok=True)
        save(obj, data)
        delta.bytes_written += data.stat().st_size
        self._write_sidecar(key, fingerprint, ext)

    def _write_sidecar(self, key, fingerprint, ext) -> dict:
        digest, size = _sha256(self.data_path(key, ext))
        meta = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "ext": ext,
            "fingerprint": fingerprint,
            "sha256": digest,
            "size": size,
            "created": time.time(),
        }
        atomic_write_bytes(
            self.meta_path(key),
            json.dumps(meta, indent=1, sort_keys=True).encode(),
        )
        return meta

    # ------------------------------------------------------- observability
    def stats(self) -> CacheStats:
        return self._stats.read()

    def entries(self) -> list[dict]:
        """Sidecar dicts of every recorded entry, oldest first."""
        out = []
        for meta_file in sorted(self.root.glob(f"*{META_SUFFIX}")):
            key = meta_file.name[: -len(META_SUFFIX)]
            try:
                out.append(self._read_meta(key))
            except CacheEntryError:
                out.append({"key": key, "schema": None})
        out.sort(key=lambda m: m.get("created", 0.0))
        return out

    def scan(self) -> dict:
        """Classify every file in the cache root (quarantine excluded)."""
        report = {"entries": [], "legacy": [], "temp": [], "orphan_meta": []}
        seen_keys = set()
        for meta_file in self.root.glob(f"*{META_SUFFIX}"):
            key = meta_file.name[: -len(META_SUFFIX)]
            seen_keys.add(key)
            try:
                meta = self._read_meta(key)
                ext = meta.get("ext", ".npz")
                self.validate(key, None, ext)
                report["entries"].append({"key": key, "ok": True, "size": meta["size"]})
            except CacheEntryError as e:
                report["entries"].append({"key": key, "ok": False, "reason": str(e)})
        for p in self.root.iterdir():
            if p.name in (STATS_NAME, QUARANTINE_DIR, LOCKS_DIR) or p.suffix == ".lock":
                continue
            if p.name.endswith(META_SUFFIX) or p.name.endswith(".lock"):
                continue
            if is_temp_file(p):
                report["temp"].append(p.name)
                continue
            if p.is_dir() and p.stem in seen_keys:
                continue  # directory artifact with its sidecar
            if p.stem not in seen_keys:
                report["legacy"].append(p.name)
        return report

    def status(self) -> dict:
        """Counters plus a live scan — the payload behind ``cache status``."""
        scan = self.scan()
        ok = [e for e in scan["entries"] if e.get("ok")]
        bad = [e for e in scan["entries"] if not e.get("ok")]
        qdir = self.quarantine_dir()
        quarantined = list(qdir.iterdir()) if qdir.is_dir() else []
        return {
            "root": str(self.root),
            "entries": len(ok),
            "invalid_entries": len(bad),
            "legacy_files": len(scan["legacy"]),
            "temp_files": len(scan["temp"]),
            "quarantined_files": len(quarantined),
            "bytes": sum(e.get("size", 0) for e in ok),
            "quarantine_bytes": sum(p.stat().st_size for p in quarantined if p.is_file()),
            "counters": self.stats().as_dict(),
        }

    # ---------------------------------------------------------- management
    def verify(self, expected: dict[str, str] | None = None) -> list[dict]:
        """Deep-check every entry; returns one report dict per finding.

        ``expected`` maps key -> fingerprint for callers (like the corpus
        CLI) that know what parameters *should* have built each entry,
        enabling staleness detection on top of integrity checking.
        """
        findings = []
        scan = self.scan()
        for e in scan["entries"]:
            if not e.get("ok"):
                findings.append({"key": e["key"], "state": "corrupt", "reason": e["reason"]})
                continue
            if expected and e["key"] in expected:
                try:
                    self.validate(e["key"], expected[e["key"]])
                except CacheEntryError as err:
                    findings.append({"key": e["key"], "state": "stale", "reason": str(err)})
                    continue
            findings.append({"key": e["key"], "state": "ok", "size": e.get("size", 0)})
        for name in scan["legacy"]:
            findings.append({"key": name, "state": "legacy", "reason": "no sidecar"})
        for name in scan["temp"]:
            findings.append({"key": name, "state": "temp", "reason": "orphaned in-flight write"})
        return findings

    def heal(self, expected: dict[str, str] | None = None) -> int:
        """Quarantine everything verify() flags; returns files moved/removed."""
        moved = 0
        for f in self.verify(expected):
            if f["state"] == "ok":
                continue
            if f["state"] == "temp":
                try:
                    _delete_path(self.root / f["key"])
                    moved += 1
                except OSError:
                    pass
            elif f["state"] == "legacy":
                moved += len(self.quarantine(self.root / f["key"]))
            else:  # corrupt or stale entry: move both halves aside
                key = f["key"]
                try:
                    ext = self._read_meta(key).get("ext", ".npz")
                except CacheEntryError:
                    ext = ".npz"
                moved += len(self.quarantine(self.data_path(key, ext), self.meta_path(key)))
        if moved:
            self._stats.add(CacheStats(quarantines=moved))
        return moved

    def clear(self, *, include_quarantine: bool = False) -> int:
        """Delete all entries (and optionally the quarantine); returns count."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for p in list(self.root.iterdir()):
            if p.name in (QUARANTINE_DIR, LOCKS_DIR, STATS_NAME) or p.suffix == ".lock":
                continue
            _delete_path(p)  # directory artifacts (.csrdir) delete whole
            removed += 1
        for sub in (LOCKS_DIR,):
            d = self.root / sub
            if d.is_dir():
                for p in d.iterdir():
                    p.unlink()
        if include_quarantine and self.quarantine_dir().is_dir():
            for p in self.quarantine_dir().iterdir():
                _delete_path(p)
                removed += 1
        self._stats.reset()
        return removed

    def gc(self, max_bytes: int) -> list[str]:
        """Evict oldest entries until the cache fits ``max_bytes``.

        Also sweeps orphaned temp files.  Eviction is oldest-created
        first; evicted keys are deleted (not quarantined — they are
        valid, just over budget) and regenerate on next demand.
        """
        evicted = []
        for p in list(self.root.iterdir()):
            if is_temp_file(p) and p.name not in (QUARANTINE_DIR, LOCKS_DIR):
                _delete_path(p)  # orphaned in-flight file or directory
        entries = [m for m in self.entries() if m.get("key")]
        total = sum(m.get("size", 0) for m in entries)
        delta = CacheStats()
        for meta in entries:  # oldest first (entries() sorts by created)
            if total <= max_bytes:
                break
            key, ext = meta["key"], meta.get("ext", ".npz")
            _delete_path(self.data_path(key, ext))
            _delete_path(self.meta_path(key))
            total -= meta.get("size", 0)
            delta.evictions += 1
            evicted.append(key)
        if delta.evictions:
            self._stats.add(delta)
        return evicted
