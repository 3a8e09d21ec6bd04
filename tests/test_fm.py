"""FM refinement against the loop it replaced.

``fm_refine`` runs a pass on Python lists and locks a run of
balance-rejected pops in one inner loop; ``fm_refine_reference`` below
is the one-pop-per-iteration loop it replaced, kept here as the oracle.
Both must agree move for move: the same ``part`` array (dtype included)
and the same sequence of ledger charges, on random multigraphs with
tied gains and imbalanced starts, and through the multilevel pipeline
on corpus hierarchies.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coarsen.multilevel import coarsen_multilevel
from repro.csr import CSRGraph, from_edge_list
from repro.generators import corpus
from repro.parallel import cpu_space, gpu_space
from repro.parallel.cost import KernelCost
from repro.parallel.execspace import ExecSpace
from repro.partition import baselines, multilevel
from repro.partition.fm import compute_gains, fm_refine
from repro.partition.metrics import edge_cut, partition_weights

SETTINGS = dict(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def fm_refine_reference(
    g: CSRGraph,
    part: np.ndarray,
    space: ExecSpace,
    *,
    max_passes: int = 8,
    stall_limit: int | None = None,
    balance_tol: float | None = None,
) -> np.ndarray:
    """Oracle: one heap pop per loop iteration, NumPy state throughout."""
    part = part.astype(np.int8).copy()
    n = g.n
    if n == 0:
        return part
    vw = g.vwgts
    if balance_tol is None:
        balance_tol = 2.0 * float(vw.max())
    if stall_limit is None:
        stall_limit = max(100, n // 50)

    w = partition_weights(g, part)
    best_cut = cut = edge_cut(g, part)

    for _ in range(max_passes):
        gains = compute_gains(g, part)
        stamp = np.zeros(n, dtype=np.int64)
        locked = np.zeros(n, dtype=bool)
        # heap[s]: movable vertices on side s.  Built in bulk: the pop
        # order only depends on the (key, stamp, id) tuples — a total
        # order — so heapify yields the same move sequence as n pushes.
        heaps: list[list] = [[], []]
        for s in (0, 1):
            vs = np.flatnonzero(part == s)
            heaps[s] = list(zip((-gains[vs]).tolist(), (0,) * len(vs), vs.tolist()))
            heapq.heapify(heaps[s])

        moves: list[int] = []
        pass_cut = cut
        # only *balanced* prefixes are legal rollback targets: when the
        # incoming partition is imbalanced (projected hub aggregates),
        # the pass must first walk to balance, and rolling back past
        # those moves would undo it
        balanced0 = abs(w[0] - w[1]) <= balance_tol
        best_prefix_cut = cut if balanced0 else np.inf
        best_prefix_len = 0
        stall = 0

        while (heaps[0] or heaps[1]) and stall < stall_limit:
            # pick the side: heavier side if out of balance, else best gain
            side = None
            if w[0] - w[1] > balance_tol and heaps[0]:
                side = 0
            elif w[1] - w[0] > balance_tol and heaps[1]:
                side = 1
            else:
                top = [None, None]
                for s in (0, 1):
                    while heaps[s]:
                        negg, st, v = heaps[s][0]
                        if locked[v] or part[v] != s or st != stamp[v]:
                            heapq.heappop(heaps[s])
                            continue
                        top[s] = -negg
                        break
                if top[0] is None and top[1] is None:
                    break
                if top[1] is None or (top[0] is not None and top[0] >= top[1]):
                    side = 0
                else:
                    side = 1
            # pop the best valid vertex from the chosen side
            v = None
            while heaps[side]:
                negg, st, cand = heapq.heappop(heaps[side])
                if locked[cand] or part[cand] != side or st != stamp[cand]:
                    continue
                v = cand
                break
            if v is None:
                break
            other = 1 - side
            # the move must keep tolerance, or strictly improve balance
            new_diff = abs((w[side] - vw[v]) - (w[other] + vw[v]))
            if new_diff > balance_tol and new_diff >= abs(w[side] - w[other]):
                locked[v] = True  # illegal for this pass
                continue

            part[v] = other
            locked[v] = True
            w[side] -= vw[v]
            w[other] += vw[v]
            pass_cut -= gains[v]
            moves.append(v)
            # incremental neighbour gain updates: an edge to v's new side
            # became internal (gain down), to its old side external (up).
            # Applied to all unlocked neighbours at once: np.add.at
            # applies a neighbour listed twice once per entry, in order,
            # and both pushed entries carry its final gain and stamp.
            nbrs, wts = g.neighbors(v), g.edge_weights(v)
            unlocked = ~locked[nbrs]
            if unlocked.any():
                uu, ww = nbrs[unlocked], wts[unlocked]
                sides = part[uu]
                np.add.at(gains, uu, np.where(sides == other, -2.0 * ww, 2.0 * ww))
                np.add.at(stamp, uu, 1)
                for entry, s in zip(
                    zip((-gains[uu]).tolist(), stamp[uu].tolist(), uu.tolist()),
                    sides.tolist(),
                ):
                    heapq.heappush(heaps[s], entry)

            now_balanced = abs(w[0] - w[1]) <= balance_tol
            if now_balanced and pass_cut < best_prefix_cut - 1e-12:
                best_prefix_cut = pass_cut
                best_prefix_len = len(moves)
                stall = 0
            elif now_balanced:
                stall += 1
            # forced balancing moves never count toward the stall limit

        # roll back to the best balanced prefix (keep everything if no
        # balanced state was ever reached — progress toward balance is
        # worth more than the cut in that case)
        if np.isfinite(best_prefix_cut):
            for v in moves[best_prefix_len:]:
                s = part[v]
                part[v] = 1 - s
                w[s] -= vw[v]
                w[1 - s] += vw[v]
        else:
            best_prefix_cut = pass_cut

        space.ledger.charge(
            "refinement",
            KernelCost(
                stream_bytes=8.0 * 8 * n,
                random_bytes=8.0 * 2 * sum(g.degree(v) for v in moves) if moves else 0.0,
                launches=1,
            ),
        )
        cut = best_prefix_cut
        # stop on a non-improving pass — unless this pass was spent
        # walking an imbalanced partition to balance, in which case the
        # next pass gets its first real chance at the cut
        if balanced0 and cut >= best_cut - 1e-12:
            break
        best_cut = min(best_cut, cut)
    return part


def _refine(fn, g, part, **kw):
    """Run one refinement on a fresh space; return ``(part, charges)``."""
    space = gpu_space(0)
    charges = []
    space.ledger.add_listener(lambda phase, cost: charges.append((phase, cost)))
    return fn(g, part, space, **kw), charges


def _assert_same_moves(g, part, **kw):
    start = part.copy()
    got, got_charges = _refine(fm_refine, g, part, **kw)
    np.testing.assert_array_equal(part, start)  # the caller's array is untouched
    want, want_charges = _refine(fm_refine_reference, g, part, **kw)
    assert got.dtype == want.dtype == np.int8
    np.testing.assert_array_equal(got, want)
    assert got_charges == want_charges
    return want


@st.composite
def fm_cases(draw):
    """Weighted multigraph edge list, vertex weights and a start part."""
    n = draw(st.integers(1, 40))
    n_edges = draw(st.integers(0, 4 * n))
    ends = st.lists(st.integers(0, n - 1), min_size=n_edges, max_size=n_edges)
    src, dst = draw(ends), draw(ends)
    dup = draw(st.integers(0, n_edges))  # re-list a prefix as duplicate edges
    src, dst = src + src[:dup], dst + dst[:dup]
    # per case: exact halves, whose sums tie gains and land exactly on
    # the tolerance, or arbitrary floats, whose sums round
    halves = draw(st.booleans())
    weights = st.sampled_from([0.5, 1.0, 1.5, 2.5]) if halves else st.floats(0.1, 10.0)
    wgt = draw(st.lists(weights, min_size=len(src), max_size=len(src)))
    # non-uniform vertex weights: a drain can stop at a lighter vertex
    # whose move is legal
    vweights = st.sampled_from([0.5, 1.0, 1.5, 4.0]) if halves else st.floats(0.25, 4.0)
    vwgts = draw(st.lists(vweights, min_size=n, max_size=n))
    g = from_edge_list(
        n, src, dst, wgt, vwgts=vwgts, sum_duplicates=draw(st.booleans())
    )
    # a start that puts about ones_in_10 tenths of the vertices on side
    # 1: the lopsided ones (all of them included) run the forced branch
    ones_in_10 = draw(st.sampled_from([0, 1, 5, 9, 10]))
    coins = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return g, np.array([c < ones_in_10 for c in coins], dtype=np.int64)


@pytest.fixture(scope="module")
def hierarchy():
    """Corpus graph's gpu hec+sort hierarchy (seed 0), built once."""
    memo = {}

    def get(name):
        if name not in memo:
            g, _ = corpus.load(name, 0)
            memo[name] = coarsen_multilevel(
                g, gpu_space(0), coarsener="hec", constructor="sort"
            )
        return memo[name]

    return get


def _charges_through(monkeypatch, fn, run):
    """``run(listener)`` with ``fn`` as the pipeline's FM; ``(result, charges)``."""
    monkeypatch.setattr(multilevel, "fm_refine", fn)
    charges = []
    out = run(lambda phase, cost: charges.append((phase, cost)))
    return out, charges


class TestFmRefine:
    @given(
        fm_cases(),
        st.sampled_from([0.0, 0.5, None, 10.0]),
        st.sampled_from([0, 1, 3, None]),
        st.sampled_from([0, 1, 2, 8]),
    )
    @settings(**SETTINGS)
    def test_matches_reference_loop(self, case, balance_tol, stall_limit, max_passes):
        g, part = case
        _assert_same_moves(
            g, part, balance_tol=balance_tol, stall_limit=stall_limit,
            max_passes=max_passes,
        )

    def test_duplicate_adjacency_entries(self):
        # a hand-built CSRGraph whose rows list a neighbour twice: each
        # entry updates the gain in turn and pushes its own heap entry
        xadj = [0, 3, 5, 8, 10]
        adjncy = [1, 1, 2, 0, 0, 0, 3, 3, 2, 2]
        ewgts = [1.5, 0.5, 1.0, 1.5, 0.5, 1.0, 2.5, 0.5, 2.5, 0.5]
        g = CSRGraph(xadj, adjncy, ewgts, [1.0, 0.5, 1.0, 1.5])
        for start in ([0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 0]):
            for tol in (0.0, 0.5, None):
                _assert_same_moves(g, np.array(start), balance_tol=tol)

    def test_forced_side_heap_empties(self):
        # side 0 is one heavy vertex whose move is rejected, leaving its
        # heap empty while side 0 is still the heavier: the loop falls to
        # the unforced branch with no rival top, and side 1's pops are
        # rejected until its heap is drained too
        n = 6
        g = from_edge_list(
            n, [0, 0, 1, 2, 3], [1, 2, 2, 3, 4], vwgts=[10.0] + [1.0] * (n - 1)
        )
        start = np.array([0] + [1] * (n - 1))
        out = _assert_same_moves(g, start, balance_tol=0.5)
        np.testing.assert_array_equal(out, start)

    def test_drain_stops_at_legal_lighter_vertex(self):
        # side 0 is heavier by 1.0, inside the tolerance 1.5, and side 1's
        # triangle has the worse gains.  Side 0's two best-gain vertices
        # weigh 3.0, so moving either breaks the tolerance: the first is
        # rejected by the loop, the second by the drain, which stops at
        # vertex 2 (weight 0.5, a legal move) and leaves it to the loop
        src = [0, 0, 1, 1, 2, 2, 4, 4, 5]
        dst = [4, 5, 5, 6, 6, 3, 5, 6, 6]
        wgt = [1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 2.5, 2.5, 2.5]
        vwgts = [3.0, 3.0, 0.5, 1.0, 2.5, 2.5, 1.5]
        g = from_edge_list(7, src, dst, wgt, vwgts=vwgts)
        start = np.array([0, 0, 0, 0, 1, 1, 1])
        out = _assert_same_moves(g, start, balance_tol=1.5, max_passes=1)
        assert out[2] == 1 and out[0] == out[1] == 0

    @pytest.mark.parametrize("name", ["delaunay24", "citation", "europeOsm", "HV15R"])
    def test_uncoarsen_matches_reference(self, monkeypatch, hierarchy, name):
        h = hierarchy(name)

        def run(listen):
            space = gpu_space(0)
            space.ledger.add_listener(listen)
            return multilevel._uncoarsen_fm(h, space)[0]

        got, got_charges = _charges_through(monkeypatch, fm_refine, run)
        want, want_charges = _charges_through(monkeypatch, fm_refine_reference, run)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert got_charges == want_charges

    def test_metis_recipe_matches_reference(self, monkeypatch):
        # 2 passes, stall limit 50: the Metis recipe's light FM
        g, _ = corpus.load("citation", 0)

        def run(listen):
            def space(seed):
                sp = cpu_space(seed)
                sp.ledger.add_listener(listen)
                return sp

            monkeypatch.setattr(baselines, "cpu_space", space)
            res = baselines.metis_like(g)
            return res.part, res.cut, res.stats["sim_seconds"]

        got, got_charges = _charges_through(monkeypatch, fm_refine, run)
        want, want_charges = _charges_through(monkeypatch, fm_refine_reference, run)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1:] == want[1:]
        assert got_charges == want_charges
