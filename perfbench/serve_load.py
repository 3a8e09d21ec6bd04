"""serve-sweep and serve-update: daemon lifecycle and closed-loop clients.

The daemon runs in its own process at its default configuration
(``python -m repro.serve``; ``perfbench/launcher.py`` for traced runs),
listening on a socket under the checkout's ``.perfbench_state``.  The
socket path is relative to the checkout root, which is every process's
working directory, so deep checkouts stay under the unix-socket path
limit.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
import gen

#: client-side wait for one response; a slower answer counts as failed
REQUEST_TIMEOUT = 120.0


class Daemon:
    """One daemon process: launch, readiness, SIGTERM, exit audit."""

    def __init__(self, workdir: Path, *, journal: bool, spans_out: Path | None):
        self.workdir = workdir
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.socket = str(workdir.relative_to(common.ROOT) / "d.sock")
        args = ["--socket", self.socket]
        if journal:
            args += ["--log-dir", str(workdir.relative_to(common.ROOT) / "log")]
        if spans_out is not None:
            cmd = [sys.executable, str(common.HERE / "launcher.py"),
                   str(spans_out), *args]
        else:
            cmd = [sys.executable, "-m", "repro.serve", *args]
        self.launched = time.monotonic()
        self._out = open(workdir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=common.ROOT, env=common.child_env(),
            stdout=self._out, stderr=subprocess.STDOUT,
        )

    def wait_ready(self) -> None:
        from repro.serve.client import wait_for_server

        wait_for_server(self.socket, timeout=60.0)

    def status(self) -> dict:
        from repro.serve.client import ServeClient

        with ServeClient(self.socket, timeout=30.0) as c:
            return c.request({"op": "status"})

    def stop(self, timeout: float = 60.0) -> dict:
        """SIGTERM, reap, and audit: exit code, peak RSS, leaked shm."""
        from repro.parallel import shm

        self.proc.send_signal(signal.SIGTERM)
        rc, rss_mb = common.reap(self.proc, timeout)
        self._out.close()
        leaked = [s["name"] for s in shm.list_segments()
                  if s["pid"] == self.proc.pid]
        return {"rc": rc, "rss_mb": rss_mb, "leaked": leaked}


def call(client, req: dict) -> tuple[dict, float, float]:
    """One closed-loop exchange: ``(response, send_t, done_t)``; a
    transport failure becomes an error response."""
    from repro.serve.protocol import ProtocolError

    t0 = time.monotonic()
    try:
        resp = client.request(req)
    except (OSError, ProtocolError) as e:
        resp = {"status": "error", "kind": type(e).__name__, "error": str(e)}
    return resp, t0, time.monotonic()


def verdict(resp: dict, want: dict | None) -> str | None:
    """None when the response is correct, else why not."""
    if resp.get("status") != "ok":
        return f"{resp.get('status')}:{resp.get('kind') or resp.get('reason')}"
    if want is None:
        return "no expected value"
    bad = common.mismatches(resp.get("row", {}), want)
    return f"mismatch:{','.join(bad)}" if bad else None


# ------------------------------------------------------------ serve-sweep


def sweep_warmup(daemon: Daemon, expected: dict) -> list[str]:
    """Untimed warm-up: the cold hierarchy build of every sweep graph,
    plus one k-way request each so first-touch code paths are warm."""
    from repro.serve.client import ServeClient

    errors = []
    with ServeClient(daemon.socket, timeout=REQUEST_TIMEOUT) as c:
        for g in gen.SWEEP_GRAPHS:
            for t in ({"op": "coarsen"}, {"op": "partition", "k": 4}):
                req = {**t, "graph": g, "seed": gen.CORPUS_SEED}
                resp, _, _ = call(c, req)
                why = verdict(resp, expected.get(gen.request_key(req)))
                if why:
                    errors.append(why)
    return errors


def sweep_loop(daemon: Daemon, seed: int, seconds: float, min_reads: int,
               expected: dict) -> dict:
    """Closed loop from ``SWEEP_CONNECTIONS`` connections, whole request
    cycles until ``seconds`` have passed and ``min_reads`` reads
    completed (``3 * seconds`` caps it)."""
    from repro.serve.client import ServeClient

    cap = 3.0 * seconds
    lock = threading.Lock()
    samples, errors = [], []
    #: whole cycles every connection completes, fixed by the first
    #: connection to finish a cycle past the time and sample floor, so
    #: each request type is sampled equally often
    state = {"cycles": None}
    t_start = time.monotonic()

    def worker() -> None:
        with ServeClient(daemon.socket, timeout=REQUEST_TIMEOUT) as client:
            completed = 0
            while True:
                with lock:
                    target = state["cycles"]
                if target is not None and completed >= target:
                    return
                if time.monotonic() - t_start >= cap:
                    return
                for req in gen.sweep_cycle(seed):
                    resp, t0, t1 = call(client, req)
                    why = verdict(resp, expected.get(gen.request_key(req)))
                    with lock:
                        samples.append({"t0": t0, "t1": t1, "ok": why is None,
                                        "meta": resp.get("meta", {})})
                        if why:
                            errors.append(why)
                completed += 1
                with lock:
                    if (state["cycles"] is None and len(samples) >= min_reads
                            and time.monotonic() - t_start >= seconds):
                        state["cycles"] = completed

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(gen.SWEEP_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(cap + 2 * REQUEST_TIMEOUT)
    t_end = max([s["t1"] for s in samples], default=time.monotonic())
    return {"reads": samples, "writes": [], "errors": errors,
            "windows": [(t_start, t_end)], "wall": t_end - t_start,
            "hung": any(t.is_alive() for t in threads)}


# ----------------------------------------------------------- serve-update


def _pristine(tenant: int):
    from repro.generators import corpus

    g, _spec = corpus.load(gen.UPDATE_GRAPH, tenant)
    return g


def update_warm(client, tenant: int, expected: dict) -> str | None:
    req = gen.warm_request(tenant)
    resp, _, _ = call(client, req)
    return verdict(resp, expected[str(tenant)]["warm"])


def update_loop(client, seed: int, seconds: float, episodes: int,
                expected: dict) -> dict:
    """The first ``episodes`` episodes of the seed's order, each on a
    fresh tenant, stopping early only past ``3 * seconds`` of timed
    episode time.  The first episode's tenant was warmed during set-up;
    later ones are warmed untimed between episodes."""
    cap = 3.0 * seconds
    reads, writes, errors, windows = [], [], [], []
    timed = 0.0
    for idx, tenant in enumerate(gen.episode_order(seed)[:episodes]):
        if idx:
            why = update_warm(client, tenant, expected)
            if why:
                errors.append(why)
        want = expected[str(tenant)]["steps"]
        reqs = gen.episode_requests(_pristine(tenant), tenant)
        t_ep = time.monotonic()
        for req, w in zip(reqs, want):
            resp, t0, t1 = call(client, req)
            why = verdict(resp, w)
            rec = {"t0": t0, "t1": t1, "ok": why is None,
                   "meta": resp.get("meta", {}),
                   "evicted": resp.get("row", {}).get("hierarchies_evicted", 0)}
            (writes if req["op"] == "update_graph" else reads).append(rec)
            if why:
                errors.append(why)
        t_done = time.monotonic()
        windows.append((t_ep, t_done))
        timed += t_done - t_ep
        if timed >= cap:
            break
    return {"reads": reads, "writes": writes, "errors": errors, "windows": windows, "wall": timed,
            "hung": False}
