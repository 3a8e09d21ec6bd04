"""Load-test harness: mixed request replay, p50/p99, hit-rate, CI gate.

Replays a deterministic mixed request set (coarsen / partition at
several k / cluster over small corpus graphs) against a running daemon
from ``--clients`` concurrent connections, then reports wall-clock
latency percentiles per op and the hierarchy hit-rate read from the
daemon's ``status`` op.  ``--out`` merges the numbers into the
committed ``BENCH_serving.json``; ``--compare`` gates p50/p99 (and the
hit-rate floor) against it, which is the CI contract.

The request *set* is a pure function of ``(--requests, --graphs)``;
only the thread interleave varies between runs — and the byte-parity
tests, not this harness, pin response content.
"""

from __future__ import annotations

import json
import math
import threading
import time
from pathlib import Path

from .client import ServeClient, wait_for_server

__all__ = ["build_mix", "run_loadtest", "percentile", "main"]

BENCH_SCHEMA = 1

#: per-graph op template replayed round-robin; k=2 is the byte-parity
#: bisection, the k-sweep and cluster ride the same cached hierarchy
_TEMPLATE = (
    {"op": "partition", "k": 2, "refinement": "fm"},
    {"op": "coarsen"},
    {"op": "partition", "k": 4},
    {"op": "partition", "k": 8},
    {"op": "cluster"},
    {"op": "partition", "k": 16},
    {"op": "partition", "k": 32},
    {"op": "partition", "k": 64},
)


def build_mix(n: int, graphs: list[str], *, seed: int = 0) -> list[dict]:
    """The deterministic request mix: ``n`` requests over ``graphs``."""
    mix = []
    templates = [
        {**t, "graph": g, "seed": seed} for g in graphs for t in _TEMPLATE
    ]
    for i in range(n):
        mix.append(dict(templates[i % len(templates)]))
    return mix


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list.

    ``rank = ceil(q/100 * n)`` clamped into ``[1, n]`` — well-defined
    for any sample count, including the tiny ones (n < 100) where the
    old round-based rank could drift past either end.  For n < 100/(100-q)
    the answer is simply the max; callers see ``n`` reported beside the
    percentiles so they can judge how much that means.
    """
    if not values:
        return float("nan")
    ordered = sorted(values)
    n = len(ordered)
    rank = min(n, max(1, math.ceil(q / 100.0 * n)))
    return ordered[rank - 1]


def _op_label(req: dict) -> str:
    if req["op"] == "partition":
        return f"partition-k{req.get('k', 2)}"
    return req["op"]


def run_loadtest(
    socket_path: str, requests: list[dict], *, clients: int = 4,
    retries: int = 0,
) -> dict:
    """Replay ``requests`` from ``clients`` threads; return the report.

    ``retries`` arms the retrying client: each worker rides transport
    failures and typed rejections with deterministic backoff, which is
    what lets a loadtest span a daemon crash + supervisor respawn.
    """
    latencies: dict[str, list[float]] = {}
    outcomes = {"ok": 0, "rejected": 0, "error": 0}
    error_kinds: dict[str, int] = {}
    lock = threading.Lock()
    next_index = [0]

    def worker() -> None:
        with ServeClient(socket_path, timeout=600.0, retries=retries) as client:
            while True:
                with lock:
                    i = next_index[0]
                    if i >= len(requests):
                        return
                    next_index[0] = i + 1
                req = requests[i]
                t0 = time.perf_counter()
                resp = client.request(req)
                dt = time.perf_counter() - t0
                with lock:
                    status = resp.get("status", "error")
                    outcomes[status] = outcomes.get(status, 0) + 1
                    if status == "ok":
                        latencies.setdefault(_op_label(req), []).append(dt)
                    elif status == "error":
                        kind = resp.get("kind", "error")
                        error_kinds[kind] = error_kinds.get(kind, 0) + 1

    with ServeClient(socket_path) as probe:
        before = probe.request({"op": "status"})
    t_start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, name=f"loadtest-{i}", daemon=True)
        for i in range(max(1, clients))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    with ServeClient(socket_path) as probe:
        after = probe.request({"op": "status"})

    def stats(vals: list[float]) -> dict:
        # "n" rides beside every percentile: a p99 over 7 samples is the
        # max, and the reader deserves to know that at a glance
        return {
            "count": len(vals),
            "n": len(vals),
            "p50_ms": round(percentile(vals, 50) * 1e3, 3),
            "p90_ms": round(percentile(vals, 90) * 1e3, 3),
            "p99_ms": round(percentile(vals, 99) * 1e3, 3),
        }

    all_lat = [v for vals in latencies.values() for v in vals]
    h0, h1 = before.get("hierarchy", {}), after.get("hierarchy", {})
    builds = h1.get("builds", 0) - h0.get("builds", 0)
    hits = h1.get("hits", 0) - h0.get("hits", 0)
    lookups = builds + hits
    return {
        "requests": len(requests),
        "clients": max(1, clients),
        "wall_s": round(wall, 3),
        "throughput_rps": round(len(requests) / wall, 2) if wall > 0 else None,
        "outcomes": outcomes,
        "error_kinds": error_kinds,
        "overall": stats(all_lat),
        "ops": {op: stats(vals) for op, vals in sorted(latencies.items())},
        "hierarchy": {
            "builds": builds,
            "hits": hits,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        },
    }


# ------------------------------------------------------------ gate + CLI


def merge_bench_file(path: Path, key: str, entry: dict) -> None:
    doc = {"schema": BENCH_SCHEMA, "configs": {}}
    if path.exists():
        try:
            old = json.loads(path.read_text())
        except ValueError:
            old = {}
        if isinstance(old.get("configs"), dict):
            doc["configs"] = dict(old["configs"])
    doc["configs"][key] = entry
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def compare_against(entry: dict, ref_path: Path, key: str,
                    max_regression: float) -> int:
    """Gate p50/p99 (and the hit-rate floor) against the committed file."""
    try:
        ref = json.loads(ref_path.read_text())
    except (OSError, ValueError) as e:
        print(f"ERROR: cannot read baseline {ref_path}: {e}")
        return 2
    base = (ref.get("configs") or {}).get(key)
    if base is None:
        print(f"ERROR: no entry for config {key!r} in {ref_path}")
        return 2
    failures = []
    for metric in ("p50_ms", "p99_ms"):
        cur = entry["overall"][metric]
        allowed = base["overall"][metric] * (1.0 + max_regression)
        verdict = "ok" if cur <= allowed else "REGRESSION"
        print(f"{verdict}: {metric} {cur:.1f} ms vs baseline "
              f"{base['overall'][metric]:.1f} ms "
              f"(allowed +{max_regression:.0%})")
        if cur > allowed:
            failures.append(metric)
    base_rate = base.get("hierarchy", {}).get("hit_rate", 0.0)
    cur_rate = entry["hierarchy"]["hit_rate"]
    floor = max(0.0, base_rate - 0.05)
    verdict = "ok" if cur_rate >= floor else "REGRESSION"
    print(f"{verdict}: hierarchy hit-rate {cur_rate:.1%} vs baseline "
          f"{base_rate:.1%} (floor {floor:.1%})")
    if cur_rate < floor:
        failures.append("hit_rate")
    return 1 if failures else 0


def main(args) -> int:
    """``python -m repro.serve loadtest`` — argparse namespace in."""
    graphs = [g.strip() for g in args.graphs.split(",") if g.strip()]
    requests = build_mix(args.requests, graphs, seed=args.seed)
    # ":j1" keeps the key of the committed BENCH_serving.json entries
    key = f"{','.join(graphs)}:n{args.requests}:c{args.clients}:j1"

    server = None
    socket_path = args.socket
    if args.spawn:
        from .server import Server, ServerConfig

        server = Server(ServerConfig(socket_path=socket_path))
        server.start()
    try:
        wait_for_server(socket_path, timeout=60.0)
        entry = run_loadtest(
            socket_path, requests, clients=args.clients,
            retries=getattr(args, "client_retries", 0),
        )
    finally:
        if server is not None:
            server.stop()

    entry["config"] = {"graphs": graphs, "seed": args.seed, "jobs": 1}
    print(f"[{key}] {entry['requests']} requests, {entry['clients']} clients: "
          f"p50 {entry['overall']['p50_ms']:.1f} ms  "
          f"p99 {entry['overall']['p99_ms']:.1f} ms  "
          f"{entry['throughput_rps']} req/s  "
          f"hit-rate {entry['hierarchy']['hit_rate']:.1%} "
          f"({entry['hierarchy']['builds']} builds, "
          f"{entry['hierarchy']['hits']} hits)")
    for op, s in entry["ops"].items():
        print(f"  {op:<16} n={s['count']:<5} p50 {s['p50_ms']:>8.1f} ms  "
              f"p99 {s['p99_ms']:>8.1f} ms")
    if entry["outcomes"].get("rejected"):
        print(f"  rejected: {entry['outcomes']['rejected']}")
    if entry["outcomes"].get("error"):
        kinds = ", ".join(
            f"{k}={v}" for k, v in sorted(entry["error_kinds"].items())
        )
        print(f"ERROR: {entry['outcomes']['error']} request(s) failed "
              f"({kinds or 'unknown kinds'})")
        return 1

    if args.out is not None:
        merge_bench_file(args.out, key, entry)
        print(f"wrote {args.out}")
    if args.compare is not None:
        return compare_against(entry, args.compare, key, args.max_regression)
    return 0
