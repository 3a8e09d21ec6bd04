"""corpus-coarsen worker: the in-process batch loop over ``run_coarsening``.

Run by ``run.py`` as its own process so the worker's peak RSS and
set-up time (launch to first timed operation: interpreter, imports and
graph loads from the warm benchmark cache) are the workload's own::

    python perfbench/corpus_worker.py --out F --seed N --seconds S
        [--setup-only] [--trace 0|1] [--spans F]

Each pass coarsens all 20 corpus graphs with ``hec``+``sort`` and with
``hem``+``sort`` on the gpu machine model, OOM simulation off (the
``bench corpus --wallclock`` setting), in the order ``gen.corpus_order``
gives for the seed.  Passes repeat until ``--seconds`` of timed work;
every result is checked against ``expected.json``.  With ``--trace 1``
the first half of the time runs untraced and the second half with the
layer spans installed (the pair gives the tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import time

import common
import gen

MIN_PASSES = 3


def _run_passes(graphs, names, expected, seed, seconds, first_pass, min_passes):
    from repro.bench import harness

    passes, failures = [], []
    p = first_pass
    t_end = time.monotonic() + seconds
    while time.monotonic() < t_end or len(passes) < min_passes:
        t_pass = time.monotonic()
        per = {c: 0.0 for c in gen.COARSENERS}
        ops = []
        for coarsener, name in gen.corpus_order(seed, p, names):
            g, spec = graphs[name]
            t0 = time.monotonic()
            result = harness.run_coarsening(
                g, spec, machine="gpu", coarsener=coarsener,
                constructor="sort", seed=gen.CORPUS_SEED, oom=False,
            )
            dt = time.monotonic() - t0
            per[coarsener] += dt
            ops.append(dt)
            want = expected[f"{name}:{coarsener}"]
            bad = common.mismatches(result, want)
            if bad:
                failures.append({"graph": name, "coarsener": coarsener,
                                 "fields": bad})
        passes.append({"t0": t_pass, "t1": time.monotonic(), "per": per,
                       "ops": ops})
        p += 1
    return passes, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    common.use_program()
    log = None
    if args.trace:
        import spans

        log = spans.SpanLog()
    from repro.generators import corpus
    from repro.parallel import tiles

    # the program's default intra-run threading, resolved as the CLI does
    threads = tiles.resolve_threads(None)
    tiles.configure(threads)
    undo = spans.install_coarsening(log) if log is not None else []
    try:
        names = [s.name for s in corpus.CORPUS]
        graphs = {n: corpus.load(n, gen.CORPUS_SEED) for n in names}
        ready = time.monotonic()
        out = {"ready": ready, "threads": threads, "jobs": 1}
        if not args.setup_only:
            expected = common.load_expected()["corpus"]
            if log is not None:
                # untraced half first, then the traced half
                for u in undo:
                    u()
                plain, f1 = _run_passes(graphs, names, expected, args.seed,
                                        args.seconds / 2, 0, 2)
                undo = spans.install_coarsening(log)
                traced, f2 = _run_passes(graphs, names, expected, args.seed,
                                         args.seconds / 2, len(plain), 2)
                out.update(passes=plain, traced_passes=traced,
                           failures=f1 + f2)
            else:
                passes, failures = _run_passes(
                    graphs, names, expected, args.seed, args.seconds, 0,
                    MIN_PASSES)
                out.update(passes=passes, failures=failures)
    finally:
        for u in undo:
            u()
        if log is not None and args.spans:
            log.dump(args.spans)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
