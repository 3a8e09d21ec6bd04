"""Sustained update-stream scenario: incremental vs rebuild, gated.

The streaming-updates acceptance run (DESIGN.md section 5h).  A corpus
graph takes a stream of edge-update batches; every batch is applied
through :func:`repro.csr.update.apply_edges` and the hierarchy is
brought forward two ways:

* **rebuild** — :func:`repro.coarsen.coarsen_multilevel` from scratch
  on the updated graph (the baseline the paper's pipeline would pay);
* **patch** — :func:`repro.coarsen.patch_hierarchy` from the *previous
  batch's patched hierarchy*, so patches compound across the stream
  exactly as a long-lived service would accumulate them.

Two gates make this a CI job rather than a demo:

* the summed simulated ledger cost of the patches must stay at or
  under ``COST_RATIO_GATE`` (25%) of the summed rebuild cost, and
* the patched hierarchy's end-to-end quality — bisection cut,
  imbalance, and coarsening ratio through
  :func:`repro.partition.multilevel.multilevel_bisect` — must stay
  within ``QUALITY_TOL`` of the rebuilt hierarchy's, every batch.

The ledger is the gated quantity because it is bit-deterministic;
host wall-clock for both paths is reported as telemetry only.
Default graph is a mesh-shaped corpus entry: bounded-degree graphs
keep update frontiers local, which is the regime the incremental
path (and the paper's mesh-heavy corpus) targets — uniform random
graphs densify under coarsening until locality evaporates.
"""

from __future__ import annotations

import time

import numpy as np

from ..coarsen.incremental import COST_RATIO_GATE, QUALITY_TOL, patch_hierarchy
from ..coarsen.multilevel import coarsen_multilevel
from ..csr.update import apply_edges
from ..partition.multilevel import multilevel_bisect
from .harness import space_for

__all__ = ["run_update_stream", "add_update_stream_args", "cmd_update_stream"]


def _py(obj):
    """Recursively coerce numpy scalars to plain JSON-able Python."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _make_batch(g, rng, n_edges: int):
    """One deterministic update batch: ``n_edges`` adds + removes."""
    n = g.n
    au = rng.integers(0, n, n_edges)
    av = rng.integers(0, n, n_edges)
    keep = au != av
    aw = rng.uniform(0.5, 4.0, n_edges)
    add = (au[keep], av[keep], aw[keep])
    eidx = rng.choice(g.m_directed, min(n_edges, g.m_directed), replace=False)
    remove = (g.edge_sources()[eidx], np.asarray(g.adjncy)[eidx])
    return add, remove


def run_update_stream(
    *,
    graph: str = "europeOsm",
    machine: str = "cpu",
    seed: int = 0,
    batches: int = 8,
    batch_edges: int = 32,
    refinement: str = "fm",
) -> dict:
    """Run the scenario; returns the gating report (no I/O, no exits)."""
    from ..generators.corpus import load

    g, _spec = load(graph, seed)
    rng = np.random.default_rng([seed, g.n, batch_edges])

    sp0 = space_for(machine, seed)
    hierarchy = coarsen_multilevel(g, sp0)
    base_cost_s = sp0.seconds()

    per_batch = []
    cost_patch = cost_full = 0.0
    wall_patch = wall_full = 0.0
    worst = {"cut_rel": 0.0, "imbalance_abs": 0.0, "cr_rel": 0.0}

    for b in range(batches):
        add, remove = _make_batch(g, rng, batch_edges)
        g, delta = apply_edges(g, add=add, remove=remove)

        sp_f = space_for(machine, seed)
        t0 = time.perf_counter()
        full = coarsen_multilevel(g, sp_f)
        wf = time.perf_counter() - t0
        cf = sp_f.seconds()

        sp_p = space_for(machine, seed)
        t0 = time.perf_counter()
        patched = patch_hierarchy(hierarchy, g, delta, sp_p)
        wp = time.perf_counter() - t0
        cp = sp_p.seconds()

        res_f = multilevel_bisect(
            g, space_for(machine, seed), refinement=refinement, hierarchy=full
        )
        res_p = multilevel_bisect(
            g, space_for(machine, seed), refinement=refinement, hierarchy=patched
        )
        cut_rel = abs(res_p.cut - res_f.cut) / max(res_f.cut, 1e-12)
        imb_abs = abs(res_p.stats["imbalance"] - res_f.stats["imbalance"])
        cr_rel = abs(
            patched.coarsening_ratio() - full.coarsening_ratio()
        ) / max(full.coarsening_ratio(), 1e-12)

        cost_patch += cp
        cost_full += cf
        wall_patch += wp
        wall_full += wf
        for k, v in (("cut_rel", cut_rel), ("imbalance_abs", imb_abs),
                     ("cr_rel", cr_rel)):
            worst[k] = max(worst[k], v)
        per_batch.append({
            "batch": b,
            "applied_adds": delta.applied_adds,
            "applied_removes": delta.applied_removes,
            "patch_cost_s": round(cp, 9),
            "rebuild_cost_s": round(cf, 9),
            "cost_ratio": round(cp / cf, 6),
            "frontier_total": hierarchy_frontier(patched),
            "early_exit_level": patched.stats.get("early_exit_level"),
            "cut_rel": round(cut_rel, 6),
            "imbalance_abs": round(imb_abs, 6),
            "cr_rel": round(cr_rel, 6),
        })
        hierarchy = patched  # sustained: next batch patches the patch

    ratio = cost_patch / cost_full if cost_full else 0.0
    quality_ok = bool(all(worst[k] <= QUALITY_TOL[k] for k in worst))
    return _py({
        "config": {"graph": graph, "machine": machine, "seed": seed,
                   "batches": batches, "batch_edges": batch_edges,
                   "refinement": refinement},
        "base_build_cost_s": round(base_cost_s, 9),
        "patch_cost_sum_s": round(cost_patch, 9),
        "rebuild_cost_sum_s": round(cost_full, 9),
        "cost_ratio": round(ratio, 6),
        "cost_ratio_gate": COST_RATIO_GATE,
        "wall_patch_sum_s": round(wall_patch, 6),
        "wall_rebuild_sum_s": round(wall_full, 6),
        "worst": {k: round(v, 6) for k, v in worst.items()},
        "quality_tol": dict(QUALITY_TOL),
        "per_batch": per_batch,
        "ratio_ok": ratio <= COST_RATIO_GATE,
        "quality_ok": quality_ok,
        "ok": ratio <= COST_RATIO_GATE and quality_ok,
    })


def hierarchy_frontier(h) -> int:
    """Total fine-vertex frontier the patch re-matched, across levels."""
    return int(h.stats.get("frontier_total", 0))


def add_update_stream_args(p) -> None:
    p.add_argument("--graph", default="europeOsm",
                   help="corpus graph for the stream (default europeOsm, "
                        "a bounded-degree road network — the locality "
                        "regime the incremental path targets)")
    p.add_argument("--machine", choices=("gpu", "cpu"), default="cpu")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batches", type=int, default=8,
                   help="update batches in the stream (default 8)")
    p.add_argument("--batch-edges", type=int, default=32,
                   help="edge adds and removes per batch (default 32)")
    p.add_argument("--refinement", choices=("spectral", "fm"), default="fm")
    p.add_argument("--out", default=None,
                   help="merge the report into this BENCH_wallclock.json")


def cmd_update_stream(args) -> int:
    """``update-stream`` subcommand: run, print, gate, optionally merge."""
    import json

    report = run_update_stream(
        graph=args.graph, machine=args.machine, seed=args.seed,
        batches=args.batches, batch_edges=args.batch_edges,
        refinement=args.refinement,
    )
    key = (f"update-stream:{args.machine}:{args.graph}:s{args.seed}"
           f":b{args.batches}x{args.batch_edges}")
    print(f"[{key}] cost ratio {report['cost_ratio']:.4f} "
          f"(gate {report['cost_ratio_gate']:.2f})  worst "
          + "  ".join(f"{k}={v:.4f}/{report['quality_tol'][k]:.2f}"
                      for k, v in report["worst"].items()))
    for row in report["per_batch"]:
        print(f"  batch {row['batch']}: +{row['applied_adds']}"
              f"/-{row['applied_removes']} edges  "
              f"ratio {row['cost_ratio']:.4f}  "
              f"frontier {row['frontier_total']}  "
              f"cut_rel {row['cut_rel']:.4f}  "
              f"imb {row['imbalance_abs']:.4f}  cr_rel {row['cr_rel']:.4f}")
    if args.out is not None:
        from pathlib import Path

        from .report import WALLCLOCK_SCHEMA, merge_baseline_file

        entry = {k: v for k, v in report.items() if k != "per_batch"}
        merge_baseline_file(Path(args.out), key, entry, WALLCLOCK_SCHEMA)
        print(f"wrote {args.out}")
    if not report["ratio_ok"]:
        print(f"ERROR: patch/rebuild ledger-cost ratio {report['cost_ratio']:.4f} "
              f"exceeds the {report['cost_ratio_gate']:.0%} gate")
        return 1
    if not report["quality_ok"]:
        print("ERROR: patched-hierarchy quality left the declared tolerance: "
              + ", ".join(f"{k}={report['worst'][k]:.4f}>"
                          f"{report['quality_tol'][k]}"
                          for k in report["worst"]
                          if report["worst"][k] > report["quality_tol"][k]))
        return 1
    print("ok: incremental stream within cost gate and quality tolerance")
    return 0
