"""Regenerate ``expected.json``, the benchmark's committed output checks.

    python perfbench/make_expected.py

Only needed when a change to the program legitimately changes results
(a new corpus generator, a different coarsening); review the diff of
``expected.json`` like any other output change.  Values come from the
in-process library, not from a daemon:

* ``corpus``: levels, coarsest n and simulated mapping/construction
  seconds of every (graph, coarsener) ``run_coarsening``;
* ``sweep``: cut, imbalance, levels (and clusters) of every distinct
  serve-sweep request, from the batch harness runners the daemon's rows
  must equal byte for byte;
* ``update``: per episode tenant, the warm build's levels, then each
  update's tenant n/m and each read's outputs, replayed through an
  in-process ``ServeExecutor`` (updates have no batch equivalent).
"""

from __future__ import annotations

import json

import common
import gen

CORPUS_FIELDS = ("levels", "coarsest_n", "mapping_s", "construction_s")
READ_FIELDS = ("levels", "cut", "imbalance", "clusters")
WRITE_FIELDS = ("n", "m")


def pick(row: dict, fields) -> dict:
    return {k: row[k] for k in fields if row.get(k) is not None}


def corpus_expected() -> dict:
    from repro.bench.harness import run_coarsening
    from repro.generators import corpus

    out = {}
    for spec in corpus.CORPUS:
        g, _ = corpus.load(spec.name, gen.CORPUS_SEED)
        for c in gen.COARSENERS:
            r = run_coarsening(g, spec, machine="gpu", coarsener=c,
                               constructor="sort", seed=gen.CORPUS_SEED,
                               oom=False)
            out[f"{spec.name}:{c}"] = pick(r, CORPUS_FIELDS)
    return out


def sweep_expected() -> dict:
    from repro.bench import harness
    from repro.generators import corpus

    out = {}
    for req in gen.sweep_requests():
        g, spec = corpus.load(req["graph"], req["seed"])
        common_kw = dict(machine="gpu", coarsener="hec", constructor="sort",
                         seed=req["seed"], oom=False)
        if req["op"] == "coarsen":
            r = harness.run_coarsening(g, spec, **common_kw)
        elif req["op"] == "cluster":
            r = harness.run_cluster(g, spec, **common_kw)
        elif req["k"] == 2:
            r = harness.run_partition(g, spec, refinement=req["refinement"],
                                      **common_kw)
        else:
            r = harness.run_partition_kway(g, spec, k=req["k"], **common_kw)
        out[gen.request_key(req)] = pick(r, READ_FIELDS)
    return out


def update_expected() -> dict:
    from repro.generators import corpus
    from repro.serve.executor import ServeExecutor
    from repro.serve.protocol import validate_request

    ex = ServeExecutor()
    out = {}
    for tenant in gen.EPISODE_POOL:
        g, _ = corpus.load(gen.UPDATE_GRAPH, tenant)
        warm = ex.execute(validate_request(gen.warm_request(tenant)))
        steps = []
        for req in gen.episode_requests(g, tenant):
            row = ex.execute(validate_request(req))["row"]
            fields = WRITE_FIELDS if req["op"] == "update_graph" else READ_FIELDS
            steps.append(pick(row, fields))
        out[str(tenant)] = {"warm": pick(warm["row"], READ_FIELDS),
                            "steps": steps}
        ex.registry.drop(gen.UPDATE_GRAPH, tenant)
    return out


def main() -> int:
    common.use_program()
    doc = {
        "corpus": corpus_expected(),
        "sweep": sweep_expected(),
        "update": update_expected(),
    }
    common.EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {common.EXPECTED}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
