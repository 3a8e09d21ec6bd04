"""Leak audit for ``repro-*`` POSIX shared-memory segments.

No code path creates a shared-memory segment: batch workers inherit the
corpus through ``fork`` and the daemon keeps its tenants in its own
memory.  :func:`list_segments` lets tests and the serving benchmark
assert that this stays true, even right after a SIGKILL.  A
``repro-<pid>-<seq>`` name carries its creator's pid, so an audit can
pick out the segments of one process.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["SHM_PREFIX", "owner_pid", "list_segments"]

SHM_PREFIX = "repro-"

#: where POSIX shared memory is visible as files (Linux); the audit finds
#: nothing on platforms that do not expose segments here
_SHM_DIR = Path("/dev/shm")


def owner_pid(name: str) -> int | None:
    """Parse the owning pid out of a ``repro-<pid>-<seq>`` segment name."""
    if not name.startswith(SHM_PREFIX):
        return None
    pid_part = name[len(SHM_PREFIX):].split("-", 1)[0]
    return int(pid_part) if pid_part.isdigit() else None


def list_segments() -> list[dict]:
    """Every visible ``repro-*`` segment as ``{"name", "pid"}``."""
    if not _SHM_DIR.is_dir():
        return []
    return [
        {"name": p.name, "pid": owner_pid(p.name)}
        for p in sorted(_SHM_DIR.glob(f"{SHM_PREFIX}*"))
    ]
