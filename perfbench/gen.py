"""Workload inputs: pure functions of the seed (and the fixed corpus).

Every workload reads the paper's 20-graph corpus at corpus seed 0 (the
instance the committed ``BENCH_*`` files and ``expected.json`` are
keyed on).  The benchmark seed decides the order the program is asked
in: graph/coarsener order for ``corpus-coarsen``, where the request
cycle starts for ``serve-sweep``, and the order of the update episodes
for ``serve-update``.
"""

from __future__ import annotations

import numpy as np

#: corpus instance every workload reads
CORPUS_SEED = 0
COARSENERS = ("hec", "hem")

#: serve-sweep: the loadtest op template (FM bisection, coarsen, k-way
#: k=4..64, cluster) over one regular and one skewed graph
SWEEP_GRAPHS = ("delaunay24", "citation")
SWEEP_TEMPLATE = (
    {"op": "partition", "k": 2, "refinement": "fm"},
    {"op": "coarsen"},
    {"op": "partition", "k": 4},
    {"op": "partition", "k": 8},
    {"op": "cluster"},
    {"op": "partition", "k": 16},
    {"op": "partition", "k": 32},
    {"op": "partition", "k": 64},
)
SWEEP_CONNECTIONS = 2

#: serve-update: episodes of (update, read) pairs on a fresh europeOsm
#: tenant each; reads rotate coarsen -> cluster -> k-way k=8
UPDATE_GRAPH = "europeOsm"
UPDATE_READS = ({"op": "coarsen"}, {"op": "cluster"}, {"op": "partition", "k": 8})
EPISODE_PAIRS = 9
#: adds and removes per batch (the update-stream scenario's shape)
BATCH_EDGES = 32
#: tenant seeds of the episode pool; each is a distinct europeOsm tenant
#: because a patched tenant's replay tape only ever grows.  Episode
#: costs differ a lot between tenants, so every run plays the whole pool
EPISODE_POOL = tuple(range(1, 33))


def request_key(req: dict) -> str:
    """Stable name of a read request (its ``expected.json`` key)."""
    parts = [req["graph"], f"s{req['seed']}", req["op"]]
    if req["op"] == "partition":
        parts.append(f"k{req['k']}")
        if req.get("refinement"):
            parts.append(req["refinement"])
    return ":".join(parts)


def corpus_order(seed: int, pass_index: int, names) -> list[tuple[str, str]]:
    """One pass: every coarsener over every graph, in a seeded order
    (coarsener blocks stay contiguous so each has a per-pass total)."""
    rng = np.random.default_rng([seed, pass_index])
    coarseners = [COARSENERS[i] for i in rng.permutation(len(COARSENERS))]
    order = []
    for c in coarseners:
        order += [(c, names[i]) for i in rng.permutation(len(names))]
    return order


def sweep_requests() -> list[dict]:
    """The distinct serve-sweep requests (one template per graph)."""
    return [
        {**t, "graph": g, "seed": CORPUS_SEED}
        for g in SWEEP_GRAPHS for t in SWEEP_TEMPLATE
    ]


def sweep_cycle(seed: int) -> list[dict]:
    """The request cycle both connections replay, in lockstep: the
    template's round-robin order rotated by a seeded offset.  Rotation
    keeps the set of back-to-back request pairs (and with it the
    queueing each request sees behind the other connection) the same
    for every seed, so runs differ by where the cycle starts."""
    reqs = sweep_requests()
    offset = int(np.random.default_rng([seed, len(reqs)]).integers(len(reqs)))
    return [dict(r) for r in reqs[offset:] + reqs[:offset]]


def episode_order(seed: int) -> list[int]:
    """The tenant seeds serve-update visits, in the order it visits them
    (every run visits the whole pool, so runs differ only in order)."""
    rng = np.random.default_rng([seed, len(EPISODE_POOL)])
    return [EPISODE_POOL[i] for i in rng.permutation(len(EPISODE_POOL))]


def episode_batches(g, tenant: int) -> list[tuple[list, list]]:
    """``EPISODE_PAIRS`` update batches for one pristine tenant graph.

    Each batch adds ``BATCH_EDGES`` random weighted pairs (self-pairs
    dropped) and removes ``BATCH_EDGES`` existing directed entries,
    drawn without replacement across the episode.
    """
    rng = np.random.default_rng([tenant, g.n, BATCH_EDGES])
    src = g.edge_sources()
    adj = np.asarray(g.adjncy)
    removes = rng.choice(g.m_directed, EPISODE_PAIRS * BATCH_EDGES, replace=False)
    out = []
    for j in range(EPISODE_PAIRS):
        au = rng.integers(0, g.n, BATCH_EDGES)
        av = rng.integers(0, g.n, BATCH_EDGES)
        aw = rng.uniform(0.5, 4.0, BATCH_EDGES)
        add = [[int(u), int(v), float(w)] for u, v, w in zip(au, av, aw) if u != v]
        idx = removes[j * BATCH_EDGES:(j + 1) * BATCH_EDGES]
        remove = [[int(src[e]), int(adj[e])] for e in idx]
        out.append((add, remove))
    return out


def episode_requests(g, tenant: int) -> list[dict]:
    """One episode: ``[update_1, read_1, update_2, read_2, ...]``."""
    reqs = []
    for j, (add, remove) in enumerate(episode_batches(g, tenant)):
        reqs.append({"op": "update_graph", "graph": UPDATE_GRAPH,
                     "seed": tenant, "add": add, "remove": remove})
        read = UPDATE_READS[j % len(UPDATE_READS)]
        reqs.append({**read, "graph": UPDATE_GRAPH, "seed": tenant})
    return reqs


def warm_request(tenant: int) -> dict:
    """The untimed cold build that precedes each episode."""
    return {"op": "coarsen", "graph": UPDATE_GRAPH, "seed": tenant}
