"""Shared-memory segment lifecycle: naming, cleanup, stale-segment sweep.

``multiprocessing.shared_memory`` segments survive the processes that
created them: a SIGKILL'd session parent leaks its corpus blocks in
``/dev/shm`` until something unlinks them.  This module makes those
leaks recognisable and collectable:

* **Owned names.**  Every segment a session publishes is named
  ``repro-<pid>-<seq>``, so the owning process is recoverable from the
  name alone.
* **Live registry + atexit/signal cleanup.**  The publishing process
  registers each handle; an ``atexit`` hook (and, for CLI sessions, a
  chained SIGTERM/SIGINT handler) unlinks whatever is still registered
  on any exit path short of SIGKILL.
* **Stale sweep.**  ``sweep_stale()`` (exposed as ``python -m
  repro.bench gc-shm``) scans for ``repro-*`` segments whose owner pid
  is dead and unlinks them — the collector for the SIGKILL case.
"""

from __future__ import annotations

import atexit
import itertools
import os
import signal
from pathlib import Path

__all__ = [
    "SHM_PREFIX",
    "segment_names",
    "owner_pid",
    "pid_alive",
    "register",
    "unregister",
    "destroy",
    "release_all",
    "install_signal_cleanup",
    "sweep_stale",
    "list_segments",
]

SHM_PREFIX = "repro-"

#: where POSIX shared memory is visible as files (Linux); the sweep is a
#: no-op on platforms that do not expose segments here
_SHM_DIR = Path("/dev/shm")

#: name -> SharedMemory handles owned by this process, pending unlink
_LIVE: dict[str, object] = {}
_ATEXIT_INSTALLED = False
_seq = itertools.count()

#: sig -> the chained cleanup handler this module installed, so repeat
#: installs are idempotent instead of stacking a new wrapper per call
_CLEANUP_HANDLERS: dict[int, object] = {}


def segment_names():
    """Candidate segment names for this process: ``repro-<pid>-<seq>``.

    An infinite generator — the publisher retries on the (rare)
    ``FileExistsError`` left by a dead pid-reusing predecessor.
    """
    pid = os.getpid()
    while True:
        yield f"{SHM_PREFIX}{pid}-{next(_seq)}"


def owner_pid(name: str) -> int | None:
    """Parse the owning pid out of a ``repro-<pid>-<seq>`` segment name."""
    if not name.startswith(SHM_PREFIX):
        return None
    rest = name[len(SHM_PREFIX):]
    pid_part = rest.split("-", 1)[0]
    return int(pid_part) if pid_part.isdigit() else None


def pid_alive(pid: int) -> bool:
    """True when ``pid`` exists (even if owned by another user)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's process
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return True
    return True


def _untrack(shm) -> None:
    """Exempt an owned segment from the stdlib resource tracker.

    This module owns the whole lifecycle of ``repro-*`` segments: clean
    exits unlink via :func:`release_all`, and crashed owners are
    reclaimed by :func:`sweep_stale` (``repro.bench gc-shm``).  Left
    registered, the tracker process — which survives a SIGKILL of its
    parent — unlinks the segments on its own schedule, racing the sweep
    and making post-crash state nondeterministic.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(getattr(shm, "_name", shm.name), "shared_memory")
    except Exception:  # pragma: no cover - tracker absent or never spawned
        pass


def _retrack(shm) -> None:
    """Re-register with the stdlib tracker right before an owned unlink.

    ``SharedMemory.unlink`` unconditionally unregisters from the
    tracker; since :func:`register` untracked the segment, the books
    must be balanced first or the tracker process logs a spurious
    ``KeyError`` on every clean shutdown.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register(getattr(shm, "_name", shm.name), "shared_memory")
    except Exception:  # pragma: no cover - tracker absent
        pass


def register(shm) -> None:
    """Track a live segment for cleanup on parent exit."""
    global _ATEXIT_INSTALLED
    _LIVE[shm.name] = shm
    _untrack(shm)
    if not _ATEXIT_INSTALLED:
        atexit.register(release_all)
        _ATEXIT_INSTALLED = True


def unregister(shm) -> None:
    _LIVE.pop(shm.name, None)


def destroy(shm) -> None:
    """Close + unlink an owned segment and drop it from the live table.

    Idempotent and exception-safe — the one sanctioned way to dispose of
    a segment that went through :func:`register`.
    """
    _retrack(shm)
    for op in (shm.close, shm.unlink):
        try:
            op()
        except (OSError, ValueError):  # already gone / already closed
            pass
    _LIVE.pop(shm.name, None)


def release_all() -> int:
    """Close + unlink every still-registered segment; returns the count.

    Idempotent and exception-safe: callable from atexit, signal
    handlers, and normal teardown in any order.
    """
    released = 0
    for name in list(_LIVE):
        destroy(_LIVE[name])
        released += 1
    return released


def install_signal_cleanup(signals=(signal.SIGTERM, signal.SIGINT)) -> None:
    """Chain a cleanup step in front of the current signal disposition.

    The previous handler still runs, so a ctrl-C'd session both unlinks
    its segments and dies with the usual status.  ``SIG_IGN`` is
    honoured: a signal the process deliberately ignores stays non-fatal
    (segments are still released, in case the ignore is temporary).
    ``SIG_DFL`` is re-raised with the default disposition.  Installing
    twice is idempotent — a signal already chained through our handler
    is left alone rather than wrapped again.  Used by CLI entry points;
    library callers rely on atexit.
    """
    for sig in signals:
        previous = signal.getsignal(sig)
        if previous is not None and previous is _CLEANUP_HANDLERS.get(sig):
            continue  # our chain is already in front; don't stack another

        def _handler(signum, frame, _previous=previous):
            release_all()
            if _previous is signal.SIG_IGN:
                return  # intentionally ignored: cleanup only, stay alive
            if callable(_previous):
                _previous(signum, frame)
            else:  # SIG_DFL (or unrecorded): die with the default status
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)

        try:
            signal.signal(sig, _handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            continue
        _CLEANUP_HANDLERS[sig] = _handler


def list_segments() -> list[dict]:
    """All visible ``repro-*`` segments with owner liveness."""
    if not _SHM_DIR.is_dir():
        return []
    out = []
    for p in sorted(_SHM_DIR.glob(f"{SHM_PREFIX}*")):
        pid = owner_pid(p.name)
        try:
            size = p.stat().st_size
        except OSError:
            continue
        out.append(
            {
                "name": p.name,
                "bytes": size,
                "pid": pid,
                "alive": pid_alive(pid) if pid is not None else None,
            }
        )
    return out


def sweep_stale(*, include_pids: set[int] | None = None) -> list[str]:
    """Unlink ``repro-*`` segments whose owning process is dead.

    Segments owned by live processes (or with unparsable names) are left
    alone.  ``include_pids`` forces specific owners to be treated as
    dead — used by tests and by callers that just reaped a child.
    Returns the names removed.
    """
    removed = []
    for seg in list_segments():
        pid = seg["pid"]
        if pid is None:
            continue
        forced = include_pids is not None and pid in include_pids
        if not forced and seg["alive"]:
            continue
        try:
            os.unlink(_SHM_DIR / seg["name"])
        except FileNotFoundError:
            continue
        except OSError:  # pragma: no cover - permissions
            continue
        removed.append(seg["name"])
    return removed
