"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``corpus-coarsen`` -- in-process batch loop over ``run_coarsening``,
  hec+sort and hem+sort on all 20 corpus graphs (``corpus_worker.py``);
* ``serve-sweep`` -- a ``repro.serve`` daemon at default config, driven
  closed-loop from 2 connections with the loadtest op template over
  delaunay24 and citation, every hierarchy a cache hit;
* ``serve-update`` -- the daemon with its state journal on, driven from
  one connection by episodes of update_graph batches interleaved with
  reads, each episode on a fresh europeOsm tenant.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs an
untraced half and a traced half (spans installed from this directory's
code) and reports the per-layer metrics plus the tracing overhead.
Every output is checked against ``expected.json``.  The last stdout
line is the JSON result; the lines before it are the human report and
the provenance stamp, which is also written under ``.perfbench_state``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import common
import gen

WORKLOADS = ("corpus-coarsen", "serve-sweep", "serve-update")
#: set-ups per run; setup_s is their median
SETUPS = 3
E2E_UNITS = {
    "read_p50_ms": "ms", "read_p90_ms": "ms", "throughput_rps": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
#: minimum timed reads on serve-sweep so p90 has 10 beyond it
MIN_SAMPLES = common.min_samples(90)


def _layers() -> dict:
    return json.loads((common.HERE / "layers.json").read_text())["per_layer"]


def fill_cache(workload: str) -> None:
    """Generate every graph the workload reads into the benchmark cache."""
    from repro.generators import corpus

    if workload == "corpus-coarsen":
        keys = [(s.name, gen.CORPUS_SEED) for s in corpus.CORPUS]
    elif workload == "serve-sweep":
        keys = [(g, gen.CORPUS_SEED) for g in gen.SWEEP_GRAPHS]
    else:
        keys = [(gen.UPDATE_GRAPH, t) for t in gen.EPISODE_POOL]
    for name, seed in keys:
        corpus.load(name, seed)


def cache_misses() -> int:
    from repro.bench.harness import cache_stats

    return int(cache_stats()["counters"]["misses"])


# --------------------------------------------------------- corpus-coarsen


def _worker(run_dir, tag: str, args: list[str], timeout: float):
    out = run_dir / f"corpus-{tag}.json"
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(common.HERE / "corpus_worker.py"),
         "--out", str(out), *args],
        cwd=common.ROOT, env=common.child_env(),
    )
    rc, rss = common.reap(proc, timeout)
    data = json.loads(out.read_text()) if rc == 0 and out.exists() else None
    return data, launched, rc, rss


def run_corpus(opts, run_dir) -> dict:
    setups, failed, notes = [], 0, []
    for i in range(SETUPS - 1 if not opts.trace else 0):
        data, launched, rc, _ = _worker(run_dir, f"setup{i}", ["--setup-only"], 120)
        if data is None:
            failed += 1
            notes.append(f"setup worker exit {rc}")
        else:
            setups.append(data["ready"] - launched)
    spans_out = run_dir / "corpus.spans.json"
    extra = ["--seed", str(opts.seed), "--seconds", str(opts.seconds),
             "--trace", str(opts.trace), "--spans", str(spans_out)]
    data, launched, rc, rss = _worker(run_dir, "main", extra, 150)
    if data is None:
        return {"attempted": 1, "failed": 1, "notes": [f"worker exit {rc}"],
                "jobs": None, "threads": None}
    setups.append(data["ready"] - launched)
    failures = data["failures"]
    passes = data["passes"]
    ops = [dt for p in passes for dt in p["ops"]]
    traced_ops = sum(len(p["ops"]) for p in data.get("traced_passes", []))
    res = {
        "attempted": len(ops) + traced_ops + len(setups),
        "failed": failed + len(failures),
        "notes": notes + [f"{f['graph']}:{f['coarsener']} {f['fields']}"
                          for f in failures],
        "jobs": data["jobs"], "threads": data["threads"],
    }
    if not opts.trace:
        lat = [dt * 1e3 for dt in ops]
        res["pct"] = {"read_p50_ms": common.pct_entry(lat, 50),
                      "read_p90_ms": common.pct_entry(lat, 90)}
        res["e2e"] = {
            "read_p50_ms": res["pct"]["read_p50_ms"]["value"],
            "read_p90_ms": res["pct"]["read_p90_ms"]["value"],
            "throughput_rps": len(ops) / sum(p["t1"] - p["t0"] for p in passes),
            "setup_s": common.median(setups),
            "peak_rss_mb": rss,
        }
        res["extra"] = {
            "coarsen_hec_s": (common.median([p["per"]["hec"] for p in passes]), "s", len(passes)),
            "coarsen_hem_s": (common.median([p["per"]["hem"] for p in passes]), "s", len(passes)),
        }
        return res
    import spans as sp

    all_spans = sp.load_spans(spans_out)
    dur = sp.durations(all_spans)
    per_pass = []
    for p in data["traced_passes"]:
        inside = [s for s in all_spans if sp.in_windows(s, [(p["t0"], p["t1"])])]
        per_pass.append(sp.layer_metrics(inside, dur, reads=1, writes=0))
    layers = {k: common.median([m[k] for m in per_pass]) for k in per_pass[0]}
    layers["cache.load_s"] = sp.total(all_spans, "cache.load", dur=dur)
    layers["serve.wait_ms"] = 0.0
    layers["serve.hit_rate"] = 0.0
    layers["update.evicted"] = 0.0
    # best-of on both halves: co-tenant load on a shared host only adds time
    layers["bench.trace_overhead"] = (
        min(sum(p["per"].values()) for p in data["traced_passes"])
        / min(sum(p["per"].values()) for p in passes) - 1.0)
    res["layers"] = layers
    # bases for layer shares: the traced passes' per-coarsener totals
    res["extra"] = {
        f"traced_coarsen_{c}_s": (
            common.median([p["per"][c] for p in data["traced_passes"]]), "s",
            len(data["traced_passes"]))
        for c in gen.COARSENERS
    }
    return res


# ---------------------------------------------------------- serve workloads


def _serve_phase(workload, opts, run_dir, tag, seconds, setups, traced,
                 expected, amount) -> dict:
    """Set the daemon up ``setups`` times (keeping the last), then drive
    it: ``amount`` is the minimum read count on serve-sweep and the
    number of episodes on serve-update."""
    import serve_load as sl
    from repro.serve.client import ServeClient

    journal = workload == "serve-update"
    setup_times, errors, audits = [], [], []
    attempted = 0
    for i in range(setups):
        spans_out = run_dir / f"{tag}.spans.json" if traced else None
        d = sl.Daemon(run_dir / f"{tag}-{i}", journal=journal,
                      spans_out=spans_out)
        client = None
        try:
            d.wait_ready()
            if journal:
                client = ServeClient(d.socket, timeout=sl.REQUEST_TIMEOUT)
                why = sl.update_warm(client, gen.episode_order(opts.seed)[0],
                                     expected)
                errors += [why] if why else []
                attempted += 1
            else:
                errors += sl.sweep_warmup(d, expected)
                attempted += 2 * len(gen.SWEEP_GRAPHS)
        except TimeoutError as e:
            errors.append(f"daemon never ready: {e}")
        setup_times.append(time.monotonic() - d.launched)
        if i < setups - 1:
            if client is not None:
                client.close()
            audits.append(d.stop())
    try:
        status = d.status()
        if journal:
            load = sl.update_loop(client, opts.seed, seconds, amount, expected)
        else:
            load = sl.sweep_loop(d, opts.seed, seconds, amount, expected)
    finally:
        if client is not None:
            client.close()
        audits.append(d.stop())
    attempted += len(load["reads"]) + len(load["writes"]) + len(audits)
    for a in audits:
        if a["rc"] != 0:
            errors.append(f"daemon exit {a['rc']} after SIGTERM")
        errors += [f"leaked shm {name}" for name in a["leaked"]]
    if load["hung"]:
        errors.append("client connection hung")
    return {"load": load, "setups": setup_times, "rss": audits[-1]["rss_mb"],
            "errors": errors, "attempted": attempted, "status": status,
            "spans": run_dir / f"{tag}.spans.json" if traced else None}


def _latencies(recs) -> list[float]:
    return [(r["t1"] - r["t0"]) * 1e3 for r in recs]


def run_serve(opts, run_dir) -> dict:
    key = "sweep" if opts.workload == "serve-sweep" else "update"
    expected = common.load_expected()[key]
    pool = len(gen.EPISODE_POOL)
    if not opts.trace:
        amount = MIN_SAMPLES if key == "sweep" else pool
        ph = _serve_phase(opts.workload, opts, run_dir, "main", opts.seconds,
                          SETUPS, False, expected, amount)
        phases = [ph]
    else:
        # two halves on the same inputs: untraced, then traced
        half = opts.seconds / 2
        amount = 20 if key == "sweep" else pool // 2
        plain = _serve_phase(opts.workload, opts, run_dir, "plain", half, 1,
                             False, expected, amount)
        ph = _serve_phase(opts.workload, opts, run_dir, "traced", half, 1,
                          True, expected, amount)
        phases = [plain, ph]
    load = ph["load"]
    errors = [e for p in phases for e in p["errors"]]
    res = {
        "attempted": sum(p["attempted"] for p in phases),
        "failed": len(errors), "notes": errors,
        "jobs": ph["status"].get("jobs"), "threads": ph["status"].get("threads"),
    }
    reads, writes = _latencies(load["reads"]), _latencies(load["writes"])
    if not opts.trace:
        res["pct"] = {"read_p50_ms": common.pct_entry(reads, 50),
                      "read_p90_ms": common.pct_entry(reads, 90)}
        if writes:
            res["pct"]["write_p50_ms"] = common.pct_entry(writes, 50)
            res["pct"]["write_p90_ms"] = common.pct_entry(writes, 90)
        res["e2e"] = {
            "read_p50_ms": res["pct"]["read_p50_ms"]["value"],
            "read_p90_ms": res["pct"]["read_p90_ms"]["value"],
            "throughput_rps": (len(reads) + len(writes)) / load["wall"],
            "setup_s": common.median(ph["setups"]),
            "peak_rss_mb": ph["rss"],
        }
        res["extra"] = {
            k: (v["value"], "ms", v["n"]) for k, v in res["pct"].items()
            if k.startswith("write")
        }
        return res
    import spans as sp

    all_spans = sp.load_spans(ph["spans"])
    dur = sp.durations(all_spans)
    inside = [s for s in all_spans if sp.in_windows(s, load["windows"])]
    layers = sp.layer_metrics(inside, dur, reads=len(reads), writes=len(writes))
    mean_latency = sum(reads + writes) / max(1, len(reads) + len(writes))
    layers["serve.wait_ms"] = mean_latency - layers["serve.exec_ms"]
    layers["serve.hit_rate"] = sum(
        r["meta"].get("hierarchy") == "hit" for r in load["reads"]) / max(1, len(reads))
    layers["update.evicted"] = float(sum(r["evicted"] for r in load["writes"]))
    layers["cache.load_s"] = sp.total(all_spans, "cache.load", dur=dur)
    # mean, not p50: each half holds only a few template cycles, and the
    # median of a mixed-op sample jumps between op types
    plain_reads = _latencies(phases[0]["load"]["reads"])
    layers["bench.trace_overhead"] = (
        (sum(reads) / len(reads)) / (sum(plain_reads) / len(plain_reads)) - 1.0)
    res["layers"] = layers
    # bases for layer shares: the traced half's mean client latencies
    res["extra"] = {f"traced_mean_{kind}_ms": (sum(v) / len(v), "ms", len(v))
                    for kind, v in (("read", reads), ("write", writes)) if v}
    return res


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {common.SRC}/repro; run from "
              "a full checkout", file=sys.stderr)
        return 2
    os.chdir(common.ROOT)
    common.use_program()
    run_dir = common.STATE / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        fill_cache(opts.workload)
        misses0 = cache_misses()
        runner = run_corpus if opts.workload == "corpus-coarsen" else run_serve
        res = runner(opts, run_dir)
        misses = cache_misses() - misses0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return report(opts, res, misses)


def report(opts, res: dict, misses: int) -> int:
    failed = res["failed"] + (1 if misses else 0)
    attempted = max(1, res["attempted"])
    notes = res["notes"] + ([f"{misses} graph-cache miss(es) during the run"]
                            if misses else [])
    pct = res.get("pct", {})
    rule_ok = all(p["ok"] for p in pct.values())
    w = opts.workload
    if opts.trace:
        layers = _layers()
        values = res.get("layers", {})
        values["cache.misses"] = float(misses)
        metrics = {k: {"value": values.get(k, float("nan")), "unit": v["unit"]}
                   for k, v in layers.items()}
    else:
        values = res.get("e2e", {})
        metrics = {k: {"value": values.get(k, float("nan")), "unit": u}
                   for k, u in E2E_UNITS.items()}
    complete = all(m["value"] == m["value"] for m in metrics.values())
    correct = failed == 0 and rule_ok and complete
    samples = {k: {"n": p["n"], "beyond": p["beyond"]} for k, p in pct.items()}
    for name, (_, _, n) in res.get("extra", {}).items():
        samples.setdefault(name, {"n": n})
    st = common.stamp(workload=w, seed=opts.seed, trace=bool(opts.trace),
                      jobs=res.get("jobs"), threads=res.get("threads"),
                      samples=samples)
    for name, m in metrics.items():
        n = pct.get(name, {}).get("n")
        print(f"[{w}] {name} = {m['value']:.6g} {m['unit']}"
              + (f"  (n={n}, {pct[name]['beyond']} beyond)" if n else ""))
    for name, (value, unit, n) in res.get("extra", {}).items():
        print(f"[{w}] {name} = {value:.6g} {unit}  (n={n})")
    print(f"[{w}] failed_frac = {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted})")
    for note in notes[:20]:
        print(f"[{w}] FAILED: {note}")
    if not rule_ok:
        print(f"[{w}] FAILED: a percentile has fewer than "
              f"{common.MIN_BEYOND} samples beyond it")
    print("stamp " + json.dumps(st, sort_keys=True))
    record = common.STATE / "results"
    record.mkdir(parents=True, exist_ok=True)
    (record / f"{w}-s{opts.seed}-t{opts.trace}-{int(time.time())}.json").write_text(
        json.dumps({"stamp": st, "metrics": metrics, "failed": failed,
                    "attempted": attempted, "notes": notes}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
