"""Shared plumbing of the repository benchmark: paths, percentiles, stamps.

Everything the benchmark writes at run time lives under ``STATE`` inside
the checkout (graph cache, daemon sockets and journals, span dumps,
result records); nothing is written outside it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench_state"
#: benchmark-owned graph cache, filled before any timed step
CACHE = STATE / "graph_cache"
EXPECTED = HERE / "expected.json"

#: every reported percentile needs this many samples beyond its rank
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q/100 * n)``-th smallest value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n`` samples."""
    return min(n, max(1, math.ceil(q / 100.0 * n)))


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile."""
    return n - rank(n, q) if n else 0


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q``-th percentile has ``MIN_BEYOND``
    samples beyond it."""
    n = 1
    while beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def pct_entry(values, q: float, scale: float = 1.0) -> dict:
    """``{"value", "n", "beyond", "ok"}`` for one reported percentile;
    ``ok`` is the 10-beyond rule."""
    n = len(values)
    return {
        "value": percentile(values, q) * scale if n else float("nan"),
        "n": n,
        "beyond": beyond(n, q),
        "ok": beyond(n, q) >= MIN_BEYOND,
    }


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of an empty sample")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def child_env() -> dict:
    """Environment for the program's processes: this checkout's ``src``
    and the benchmark-owned graph cache.  ``--jobs``/``--threads``
    knobs (``REPRO_THREADS``) are left alone so defaults are measured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_GRAPH_CACHE"] = str(CACHE)
    return env


def use_program() -> None:
    """Make ``import repro`` resolve to this checkout with the benchmark
    cache; call before the first ``repro`` import in a process."""
    os.environ["REPRO_GRAPH_CACHE"] = str(CACHE)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_identity() -> str:
    """The commit when the checkout is a git repository, else a digest of
    every file under ``src`` (the checkout may be a plain tree)."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def stamp(*, workload: str, seed: int, trace: bool, jobs, threads,
          samples: dict) -> dict:
    """Provenance recorded beside every result."""
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": source_identity(),
        "nproc": affinity,
        "jobs": jobs,
        "threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "samples": samples,
    }


def reap(proc, timeout: float) -> tuple[int | None, float]:
    """Wait for ``proc`` (killing it past ``timeout``); returns its exit
    code and peak RSS in MB from ``wait4``."""
    import time

    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        except ChildProcessError:  # already reaped through the Popen
            return proc.returncode, 0.0
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            deadline = time.monotonic() + 10.0
        time.sleep(0.02)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def close_enough(got, want, rel: float = 1e-9) -> bool:
    """Exact for ints/None/strings, relative ``rel`` for floats."""
    if isinstance(want, float) or isinstance(got, float):
        if got is None or want is None:
            return got is want
        return math.isclose(float(got), float(want), rel_tol=rel, abs_tol=1e-12)
    return got == want


def mismatches(row: dict, want: dict) -> list[str]:
    """Field names of ``want`` that ``row`` does not reproduce."""
    return [k for k, v in want.items() if not close_enough(row.get(k), v)]
