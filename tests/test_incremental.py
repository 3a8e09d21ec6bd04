"""Incremental hierarchy patching: correctness vs reference contraction,
quality and cost gates vs a from-scratch rebuild, determinism, early
exit, the vw-only fast path, tape replay, and the coarsen_multilevel
delta wiring."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.coarsen.incremental import (
    COST_RATIO_GATE,
    QUALITY_TOL,
    patch_hierarchy,
)
from repro.coarsen.multilevel import coarsen_multilevel
from repro.csr import from_edge_list, validate
from repro.csr.update import apply_edges
from repro.generators.mesh import grid2d
from repro.parallel.cost import CostLedger
from repro.parallel.execspace import ExecSpace
from repro.parallel.machine import RYZEN32_CPU
from repro.partition.multilevel import multilevel_bisect
from repro.trace.tape import Tape


def space(seed: int = 0) -> ExecSpace:
    return ExecSpace(RYZEN32_CPU, np.random.default_rng(seed), CostLedger())


def secs(sp: ExecSpace) -> float:
    return RYZEN32_CPU.ledger_seconds(sp.ledger)


def mesh_graph():
    """Weighted 2-D mesh: the bounded-degree regime the patch targets."""
    rng = np.random.default_rng(7)
    g0 = grid2d(120, 90, name="mesh")
    es, ed = g0.edge_sources(), np.asarray(g0.adjncy)
    keep = es < ed
    w = rng.uniform(0.5, 4.0, int(keep.sum()))
    return from_edge_list(g0.n, es[keep], ed[keep], w, name="mesh")


def mesh_batch(g, rng, n_edges=30):
    au = rng.integers(0, g.n, n_edges)
    av = rng.integers(0, g.n, n_edges)
    ok = au != av
    aw = rng.uniform(0.5, 4.0, n_edges)[ok]
    eidx = rng.choice(g.m_directed, n_edges, replace=False)
    return (
        (au[ok], av[ok], aw),
        (g.edge_sources()[eidx], np.asarray(g.adjncy)[eidx]),
    )


@pytest.fixture(scope="module")
def patched_vs_full():
    """One shared scenario: base build, one batch, patch and rebuild."""
    g = mesh_graph()
    base = coarsen_multilevel(g, space())
    add, remove = mesh_batch(g, np.random.default_rng(11))
    g1, delta = apply_edges(g, add=add, remove=remove)

    sp_full = space()
    full = coarsen_multilevel(g1, sp_full)
    sp_patch = space()
    patch = patch_hierarchy(base, g1, delta, sp_patch)
    return {
        "g": g, "g1": g1, "delta": delta, "base": base,
        "full": full, "patch": patch,
        "cost_full": secs(sp_full), "cost_patch": secs(sp_patch),
    }


def assert_hierarchy_equal(a, b):
    assert len(a.graphs) == len(b.graphs)
    for ga, gb in zip(a.graphs, b.graphs):
        np.testing.assert_array_equal(ga.xadj, gb.xadj)
        np.testing.assert_array_equal(ga.adjncy, gb.adjncy)
        np.testing.assert_array_equal(ga.ewgts, gb.ewgts)
        np.testing.assert_array_equal(ga.vwgts, gb.vwgts)
    for ma, mb in zip(a.mappings, b.mappings):
        np.testing.assert_array_equal(ma.m, mb.m)
        assert ma.n_c == mb.n_c


class TestPatchCorrectness:
    def test_levels_match_reference_contraction(self, patched_vs_full):
        """Every patched level is exactly the contraction of the level
        below it by the patched mapping — clean-row sharing and the
        localized rebuild never diverge from first principles."""
        patch, g1 = patched_vs_full["patch"], patched_vs_full["g1"]
        for g in patch.graphs:
            validate(g)
        total_vw = float(np.sum(g1.vwgts))
        for lvl, mp in enumerate(patch.mappings):
            fine, coarse = patch.graphs[lvl], patch.graphs[lvl + 1]
            m = np.asarray(mp.m)
            assert m.min() >= 0 and m.max() < coarse.n

            agg = np.zeros(coarse.n)
            np.add.at(agg, m, np.asarray(fine.vwgts))
            assert np.allclose(agg, coarse.vwgts), f"vw mismatch at {lvl}"
            assert abs(float(np.sum(coarse.vwgts)) - total_vw) < 1e-6

            nn = np.int64(coarse.n)
            cu = m[fine.edge_sources()]
            cv = m[np.asarray(fine.adjncy)]
            cross = cu != cv
            key = cu[cross] * nn + cv[cross]
            order = np.argsort(key, kind="stable")
            k = key[order]
            w = np.asarray(fine.ewgts)[cross][order]
            heads = np.ones(len(k), dtype=bool)
            heads[1:] = k[1:] != k[:-1]
            first = np.flatnonzero(heads)
            ref_key = k[heads]
            ref_w = np.add.reduceat(w, first) if len(first) else w
            got_key = (
                coarse.edge_sources() * nn + np.asarray(coarse.adjncy)
            )
            np.testing.assert_array_equal(got_key, ref_key,
                                          err_msg=f"adjacency at {lvl}")
            assert np.allclose(np.asarray(coarse.ewgts), ref_w), \
                f"edge weights at {lvl}"

    def test_quality_within_declared_tolerance(self, patched_vs_full):
        g1 = patched_vs_full["g1"]
        full, patch = patched_vs_full["full"], patched_vs_full["patch"]
        res_f = multilevel_bisect(g1, space(), refinement="fm",
                                  hierarchy=full)
        res_p = multilevel_bisect(g1, space(), refinement="fm",
                                  hierarchy=patch)
        cut_rel = abs(res_p.cut - res_f.cut) / max(res_f.cut, 1e-12)
        imb_abs = abs(res_p.stats["imbalance"] - res_f.stats["imbalance"])
        cr_rel = abs(
            patch.coarsening_ratio() - full.coarsening_ratio()
        ) / max(full.coarsening_ratio(), 1e-12)
        assert cut_rel <= QUALITY_TOL["cut_rel"]
        assert imb_abs <= QUALITY_TOL["imbalance_abs"]
        assert cr_rel <= QUALITY_TOL["cr_rel"]

    def test_cost_ratio_within_gate(self, patched_vs_full):
        ratio = patched_vs_full["cost_patch"] / patched_vs_full["cost_full"]
        assert ratio <= COST_RATIO_GATE

    def test_patch_is_byte_deterministic(self, patched_vs_full):
        again_sp = space()
        again = patch_hierarchy(
            patched_vs_full["base"], patched_vs_full["g1"],
            patched_vs_full["delta"], again_sp,
        )
        assert_hierarchy_equal(patched_vs_full["patch"], again)
        assert secs(again_sp) == patched_vs_full["cost_patch"]

    def test_frontier_stats_reported(self, patched_vs_full):
        patch = patched_vs_full["patch"]
        assert patch.stats["coarsener"] == "hec_delta"
        per_level = patch.stats["per_level"]
        assert patch.stats["frontier_total"] == sum(
            s.get("frontier", 0) for s in per_level
        )
        # the first level's frontier is bounded by the touched rows plus
        # their dissolved aggregates' members — localized, not global
        assert 0 < per_level[0]["frontier"] < patched_vs_full["g1"].n // 4


class TestEarlyExitAndFastPaths:
    def test_empty_delta_adopts_base_verbatim(self):
        g = mesh_graph()
        base = coarsen_multilevel(g, space())
        _, empty = apply_edges(g)  # no adds, no removes
        assert empty.empty
        sp = space()
        p = patch_hierarchy(base, g, empty, sp)
        assert p.stats["early_exit_level"] == 0
        # adopted levels are the base objects, not copies
        for lvl in range(1, base.levels):
            assert p.graphs[lvl] is base.graphs[lvl]
        assert secs(sp) < 1e-6

    def test_delta_that_dies_out_exits_early(self):
        """An intra-aggregate edge add never reaches the coarse graph:
        the patch proves it at level 0 and adopts everything above."""
        g = mesh_graph()
        base = coarsen_multilevel(g, space())
        m0 = np.asarray(base.mappings[0].m)
        # two vertices of the same level-0 aggregate, currently unlinked
        agg = np.flatnonzero(np.bincount(m0) >= 3)[0]
        members = np.flatnonzero(m0 == agg)
        pair = None
        for u in members:
            row = set(np.asarray(g.adjncy[g.xadj[u]:g.xadj[u + 1]]).tolist())
            for v in members:
                if v != u and int(v) not in row:
                    pair = (int(u), int(v))
                    break
            if pair:
                break
        assert pair is not None
        g1, delta = apply_edges(g, add=([pair[0]], [pair[1]], [0.01]))
        assert not delta.empty
        sp = space()
        p = patch_hierarchy(base, g1, delta, sp)
        # the light intra-aggregate edge flips no heavy-neighbour choice
        # and is filtered by the cross mask: the delta dies at level 1
        assert p.stats["early_exit_level"] >= 1
        assert p.graphs[-1] is base.graphs[-1]
        for gg in p.graphs:
            validate(gg)
        assert secs(sp) < patched_vs_full_cost_floor()

    def test_vw_only_fast_path(self):
        """A satellite vertex hopping between aggregates with identical
        coarse adjacency exercises the vertex-weight-only channel."""
        g = dumbbell_graph(60)
        base = coarsen_multilevel(g, space())
        assert base.levels >= 3
        k = 3  # move block 3's satellite from the a-side to the b-side
        a0, b0, s = 5 * k + 0, 5 * k + 2, 5 * k + 4
        g1, delta = apply_edges(g, add=([s], [b0], [5.0]),
                                remove=([s], [a0]))
        patch = patch_hierarchy(base, g1, delta, space())
        lvl1 = patch.stats["per_level"][1]
        assert lvl1.get("vw_fast_path") is True
        assert lvl1["frontier"] == 0 and lvl1["vw_dirty"] == 2
        # the fast path reuses the base level's arrays outright
        assert patch.graphs[2].adjncy is base.graphs[2].adjncy
        for gg in patch.graphs:
            validate(gg)
        for lvl, mp in enumerate(patch.mappings):
            fine, coarse = patch.graphs[lvl], patch.graphs[lvl + 1]
            agg = np.zeros(coarse.n)
            np.add.at(agg, np.asarray(mp.m), np.asarray(fine.vwgts))
            assert np.allclose(agg, coarse.vwgts)
        # structurally identical to the from-scratch rebuild here: the
        # hop is deterministic and adjacency never changed
        full = coarsen_multilevel(g1, space())
        assert [h.n for h in patch.graphs] == [h.n for h in full.graphs]


class TestWiring:
    def test_coarsen_multilevel_delta_mode(self, patched_vs_full):
        via = coarsen_multilevel(
            patched_vs_full["g1"], space(),
            delta=patched_vs_full["delta"], base=patched_vs_full["base"],
        )
        assert via.stats["coarsener"] == "hec_delta"
        assert_hierarchy_equal(via, patched_vs_full["patch"])

    def test_delta_requires_base_and_vice_versa(self, patched_vs_full):
        with pytest.raises(ValueError, match="both delta= and base="):
            coarsen_multilevel(patched_vs_full["g1"], space(),
                               delta=patched_vs_full["delta"])
        with pytest.raises(ValueError, match="both delta= and base="):
            coarsen_multilevel(patched_vs_full["g1"], space(),
                               base=patched_vs_full["base"])

    def test_non_hec_base_rejected(self, patched_vs_full):
        base, g1 = patched_vs_full["base"], patched_vs_full["g1"]
        tampered = dict(base.stats)
        tampered["coarsener"] = "mwm"
        base2 = type(base)(base.graphs, base.mappings, stats=tampered)
        with pytest.raises(ValueError, match="requires an HEC hierarchy"):
            patch_hierarchy(base2, g1, patched_vs_full["delta"], space())

    def test_vertex_count_mismatch_rejected(self, patched_vs_full):
        small = mesh_graph()
        wrong = from_edge_list(small.n + 1, [0], [1], [1.0])
        with pytest.raises(ValueError, match="vertex counts disagree"):
            patch_hierarchy(patched_vs_full["base"], wrong,
                            patched_vs_full["delta"], space())


class TestTapeReplay:
    def test_recorded_patch_replays_bitwise(self, patched_vs_full):
        tape = Tape()
        sp_rec = space()
        patch = patch_hierarchy(
            patched_vs_full["base"], patched_vs_full["g1"],
            patched_vs_full["delta"], sp_rec, tape=tape,
        )
        assert tape.complete
        assert_hierarchy_equal(patch, patched_vs_full["patch"])

        sp_rep = space()
        tape.replay(sp_rep)
        assert secs(sp_rep) == secs(sp_rec)
        # the replayed space's RNG lands in the recorded post-patch
        # state: a later patch on top composes deterministically
        assert sp_rep.rng.bit_generator.state == tape.rng_state

    def test_rng_draws_never_reach_the_tape(self, patched_vs_full):
        """Assigning ``bit_generator.state`` copies values in, and reading

        it returns a fresh dict, so the tape keeps its own RNG state
        without a deep copy on record or replay."""
        tape = Tape()
        sp_rec = space()
        patch_hierarchy(
            patched_vs_full["base"], patched_vs_full["g1"],
            patched_vs_full["delta"], sp_rec, tape=tape,
        )
        snapshot = copy.deepcopy(tape.rng_state)
        sp_rec.rng.random(8)
        sp_rep = space()
        tape.replay(sp_rep)
        draws = sp_rep.rng.random(8)
        assert tape.rng_state == snapshot
        again = space()
        tape.replay(again)
        assert again.rng.bit_generator.state == snapshot
        np.testing.assert_array_equal(again.rng.random(8), draws)


def dumbbell_graph(blocks: int):
    """``blocks`` 5-vertex blocks: two weight-10 pairs, one satellite
    on the a-side, light intra/inter-block links for connectivity."""
    src, dst, w = [], [], []
    for k in range(blocks):
        a0, a1, b0, b1, s = (5 * k + i for i in range(5))
        src += [a0, b0, s, a1]
        dst += [a1, b1, a0, b0]
        w += [10.0, 10.0, 5.0, 0.5]
        if k + 1 < blocks:
            src.append(b1)
            dst.append(5 * (k + 1))
            w.append(0.5)
    return from_edge_list(5 * blocks, src, dst, w, name="dumbbell")


def patched_vs_full_cost_floor() -> float:
    """A loose ceiling for 'nearly free': well under any full level."""
    return 1e-3
