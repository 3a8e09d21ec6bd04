"""``python -m repro.serve`` — daemon, requests, loadtest, supervisor.

Subcommands::

    python -m repro.serve --socket /tmp/repro.sock             # the daemon
    python -m repro.serve serve --socket S --recover DIR       # warm restart
    python -m repro.serve supervise --socket S --log-dir DIR   # auto-respawn
    python -m repro.serve request  --socket S --op partition --graph ppa
    python -m repro.serve request  --socket S --requests mix.json --trace-dir D
    python -m repro.serve loadtest --socket S --spawn --out BENCH_serving.json

Bare invocation (no subcommand) runs the daemon.  ``request`` with
``--trace-dir`` asks for each row's trace (``"trace": true``) and writes
the same ``results.json`` + ``<key>.trace.json`` files as the batch CLI,
which is how CI diffs served responses against the batch path byte for
byte.  ``supervise`` keeps a daemon subprocess alive: a crash (any
nonzero exit without a stop signal) respawns it with ``--recover``
within a restart budget; SIGTERM is forwarded so the child drains
gracefully and the supervisor exits with its code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_SUBCOMMANDS = ("serve", "request", "loadtest", "supervise")


def _cmd_serve(args) -> int:
    from ..parallel.tiles import resolve_threads
    from .server import Server, ServerConfig

    log_dir = args.log_dir
    if args.recover is not None and log_dir is None:
        log_dir = args.recover
    if args.recover is not None and Path(args.recover) != Path(log_dir):
        raise SystemExit("--recover DIR must match --log-dir")
    config = ServerConfig(
        socket_path=str(args.socket),
        queue_max=args.queue_max,
        threads=resolve_threads(args.threads),
        max_graphs=args.max_graphs,
        max_hierarchies=args.max_hierarchies,
        drain_timeout=args.drain_timeout,
        log_dir=str(log_dir) if log_dir is not None else None,
        frame_timeout=args.frame_timeout if args.frame_timeout > 0 else None,
        recover=args.recover is not None,
        poison_threshold=args.poison_threshold,
    )
    server = Server(config)
    print(f"serving on {config.socket_path} "
          f"(queue {config.queue_max}, threads {config.threads}"
          + (", recovering" if config.recover else "") + "); "
          "SIGTERM drains and exits", flush=True)
    return server.serve_forever()


def _cmd_supervise(args) -> int:
    """Spawn the daemon, respawn crashes with ``--recover``."""
    import signal
    import subprocess

    if args.log_dir is None:
        raise SystemExit("supervise requires --log-dir (recovery needs a journal)")
    base = [
        sys.executable, "-m", "repro.serve", "serve",
        "--socket", str(args.socket),
        "--log-dir", str(args.log_dir),
        "--queue-max", str(args.queue_max),
        "--max-graphs", str(args.max_graphs),
        "--max-hierarchies", str(args.max_hierarchies),
        "--drain-timeout", str(args.drain_timeout),
        "--frame-timeout", str(args.frame_timeout),
        "--poison-threshold", str(args.poison_threshold),
    ]
    if args.threads is not None:
        base += ["--threads", str(args.threads)]

    state = {"signal": None, "proc": None}

    def _forward(signum, frame):
        state["signal"] = signum
        proc = state["proc"]
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGTERM)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _forward)

    restarts = 0
    recover = args.recover is not None
    while True:
        if state["signal"] is not None:
            return 0
        cmd = list(base)
        if recover:
            cmd += ["--recover", str(args.log_dir)]
        proc = subprocess.Popen(cmd)
        state["proc"] = proc
        rc = proc.wait()
        if state["signal"] is not None or rc == 0:
            # a clean exit (drained SIGTERM ladder) ends supervision too
            return rc if state["signal"] is None else 0
        restarts += 1
        if restarts > args.max_restarts:
            print(f"supervisor: daemon died (exit {rc}); restart budget "
                  f"({args.max_restarts}) exhausted", flush=True)
            return rc
        print(f"supervisor: daemon died (exit {rc}); respawning with "
              f"--recover ({restarts}/{args.max_restarts})", flush=True)
        recover = True


def _cmd_request(args) -> int:
    from .client import ServeClient

    if args.requests is not None:
        reqs = json.loads(Path(args.requests).read_text())
        if not isinstance(reqs, list):
            raise SystemExit(f"{args.requests} must hold a JSON list of requests")
    elif args.op == "update_graph":
        def edge(spec: str, weighted: bool) -> list:
            parts = spec.split(":")
            if weighted and len(parts) == 3:
                return [int(parts[0]), int(parts[1]), float(parts[2])]
            if len(parts) != 2:
                raise SystemExit(f"bad edge spec {spec!r}; expected U:V"
                                 + "[:W]" * weighted)
            return [int(parts[0]), int(parts[1])] + ([1.0] if weighted else [])
        reqs = [{"op": "update_graph", "graph": args.graph, "seed": args.seed,
                 "add": [edge(s, True) for s in args.add],
                 "remove": [edge(s, False) for s in args.remove]}]
    else:
        req = {"op": args.op, "graph": args.graph, "machine": args.machine,
               "coarsener": args.coarsener, "constructor": args.constructor,
               "refinement": args.refinement, "k": args.k, "seed": args.seed}
        if args.oom:
            req["oom"] = True
        if args.assignment:
            req["assignment"] = True
        reqs = [req]
    if args.trace_dir is not None:
        # the traces --trace-dir writes are sent only on request
        reqs = [{**req, "trace": True} for req in reqs]

    rows, failures = [], 0
    with ServeClient(str(args.socket)) as client:
        for req in reqs:
            resp = client.request(req)
            status = resp.get("status")
            if status == "ok" and "row" in resp:
                rows.append(resp["row"])
                print(json.dumps(
                    {k: v for k, v in resp.items() if k != "row"}
                    | {"row": {k: v for k, v in resp["row"].items()
                               if k != "trace"}},
                    sort_keys=True))
            elif status == "ok":
                # row-less ops (status, ping) succeed without a row
                print(json.dumps(resp, sort_keys=True))
            else:
                failures += 1
                print(json.dumps(resp, sort_keys=True))

    if args.trace_dir is not None and rows:
        from ..bench.report import write_results, write_trace

        written = [write_trace({"trace": row.get("trace")}, args.trace_dir)
                   for row in rows]
        write_results(rows, args.trace_dir)
        print(f"wrote {sum(p is not None for p in written)} trace(s) + "
              f"results.json to {args.trace_dir}")
    return 1 if failures else 0


def _cmd_loadtest(args) -> int:
    from .loadtest import main as loadtest_main

    return loadtest_main(args)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="coarsening-as-a-service daemon, client, and loadtest",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def _daemon_flags(p) -> None:
        p.add_argument("--socket", type=Path, default=Path("repro-serve.sock"))
        p.add_argument("--queue-max", type=int, default=64,
                       help="admission bound: queued requests beyond this get "
                            "a typed REJECTED response (default 64)")
        p.add_argument("--threads", type=int, default=None,
                       help="tile-parallel threads inside each run (default: "
                            "REPRO_THREADS or 1; 0 = every usable core); "
                            "results are bitwise identical to serial")
        p.add_argument("--max-graphs", type=int, default=8,
                       help="resident graph tenants, LRU-evicted; a tenant "
                            "that took an update_graph is pinned (default 8)")
        p.add_argument("--max-hierarchies", type=int, default=32,
                       help="resident hierarchies, LRU-evicted (default 32)")
        p.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds SIGTERM waits for queued work (default 10)")
        p.add_argument("--log-dir", type=Path, default=None,
                       help="directory of the durable state journal "
                            "(state.jsonl)")
        p.add_argument("--recover", type=Path, default=None, metavar="DIR",
                       help="warm-restart from the state journal in DIR "
                            "(implies --log-dir DIR): tenants reload, cached "
                            "hierarchies rebuild with tape-digest verification, "
                            "journaled updates replay")
        p.add_argument("--frame-timeout", type=float, default=30.0,
                       help="seconds a started frame may take to finish "
                            "before the connection fails with a typed "
                            "FrameTimeout error (default 30; 0 = never)")
        p.add_argument("--poison-threshold", type=int, default=2,
                       help="executor crashes charged to one request digest "
                            "before it is quarantined (default 2)")

    p_s = sub.add_parser("serve", help="run the daemon (the default command)")
    _daemon_flags(p_s)

    p_v = sub.add_parser(
        "supervise",
        help="run the daemon under a supervisor that respawns crashes "
             "with --recover",
    )
    _daemon_flags(p_v)
    p_v.add_argument("--max-restarts", type=int, default=3,
                     help="crash respawns before the supervisor gives up "
                          "and exits with the daemon's code (default 3)")

    p_r = sub.add_parser("request", help="send request(s) to a running daemon")
    p_r.add_argument("--socket", type=Path, required=True)
    p_r.add_argument("--requests", type=Path, default=None,
                     help="JSON file with a list of request objects")
    p_r.add_argument("--op", choices=("coarsen", "partition", "cluster",
                                      "update_graph", "status", "ping"),
                     default="partition")
    p_r.add_argument("--graph", default="ppa")
    p_r.add_argument("--machine", choices=("gpu", "cpu"), default="gpu")
    p_r.add_argument("--coarsener", default="hec")
    p_r.add_argument("--constructor", default="sort")
    p_r.add_argument("--refinement", choices=("spectral", "fm"), default="fm")
    p_r.add_argument("--k", type=int, default=2)
    p_r.add_argument("--seed", type=int, default=0)
    p_r.add_argument("--oom", action="store_true")
    p_r.add_argument("--assignment", action="store_true",
                     help="include the part/cluster assignment in the response")
    p_r.add_argument("--add", action="append", default=[], metavar="U:V[:W]",
                     help="update_graph: add/reweight one edge (repeatable)")
    p_r.add_argument("--remove", action="append", default=[], metavar="U:V",
                     help="update_graph: remove one edge (repeatable)")
    p_r.add_argument("--trace-dir", type=Path, default=None,
                     help="ask for traces and write results.json + traces "
                          "exactly like the batch CLI (enables byte-for-byte "
                          "diffing)")

    p_l = sub.add_parser("loadtest", help="replay a mixed request set")
    p_l.add_argument("--socket", type=Path, default=Path("repro-serve.sock"))
    p_l.add_argument("--spawn", action="store_true",
                     help="start an in-process daemon on --socket first")
    p_l.add_argument("--requests", type=int, default=512,
                     help="total requests to replay (default 512)")
    p_l.add_argument("--clients", type=int, default=4,
                     help="concurrent client connections (default 4)")
    p_l.add_argument("--graphs", default="ppa,citation",
                     help="comma-separated corpus graphs (default ppa,citation)")
    p_l.add_argument("--seed", type=int, default=0)
    p_l.add_argument("--client-retries", type=int, default=0,
                     help="per-request client retries with deterministic "
                          "backoff (lets a loadtest ride a daemon crash + "
                          "supervisor respawn; default 0)")
    p_l.add_argument("--out", type=Path, default=None,
                     help="merge the report into this BENCH_serving.json")
    p_l.add_argument("--compare", type=Path, default=None,
                     help="gate p50/p99 + hit-rate against this baseline")
    p_l.add_argument("--max-regression", type=float, default=3.0,
                     help="allowed relative latency increase vs the baseline "
                          "(default 3.0 = 4x, CI machines vary widely)")
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in _SUBCOMMANDS and argv[0] != "-h" \
            and argv[0] != "--help":
        argv.insert(0, "serve")
    args = build_parser().parse_args(argv)
    args.socket = Path(args.socket)
    return {"serve": _cmd_serve, "request": _cmd_request,
            "loadtest": _cmd_loadtest, "supervise": _cmd_supervise}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
