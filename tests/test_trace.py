"""Tracing subsystem: span attribution, rollups, exporters, regression gate."""

import json

import numpy as np
import pytest

from repro.bench import run_coarsening, run_partition, space_for
from repro.coarsen.incremental import patch_hierarchy
from repro.coarsen.multilevel import coarsen_multilevel
from repro.csr.update import apply_edges
from repro.parallel import KernelCost, gpu_space
from repro.parallel.cost import CostLedger
from repro.parallel.memory import MemoryTracker
from repro.partition.kway import kway_from_hierarchy
from repro.partition.multilevel import multilevel_bisect
from repro.serve.journal import tape_digest
from repro.trace import (
    BASELINE_FORMAT,
    TRACE_FORMAT,
    Tracer,
    baseline_entry,
    chrome_trace,
    collect_baseline,
    diff,
    diff_traces,
    load_trace,
)
from repro.trace.cli import main as trace_cli
from repro.trace.rollup import level_rows, phase_rows, rollup_by_path, span_rows, to_csv
from repro.trace.tape import Tape, fold

from tests.conftest import random_connected


def traced_coarsening(seed=1, n=200, m=350, **kw):
    g = random_connected(n, m, seed=seed).with_name("t")
    return run_coarsening(g, None, machine="gpu", seed=seed, **kw)


class TestTracerCore:
    def test_untraced_span_is_noop(self):
        sp = gpu_space(0)
        with sp.span("anything", level=3):
            sp.ledger.charge("mapping", KernelCost(stream_bytes=100))
        assert sp.tracer is None

    def test_charges_attributed_to_innermost(self):
        sp = gpu_space(0)
        tr = Tracer("t").attach(sp)
        with sp.span("outer"):
            sp.ledger.charge("mapping", KernelCost(stream_bytes=100))
            with sp.span("inner"):
                sp.ledger.charge("mapping", KernelCost(stream_bytes=900))
        tr.close()
        outer = tr.root.children[0]
        inner = outer.children[0]
        assert outer.exclusive_cost().stream_bytes == 100
        assert inner.exclusive_cost().stream_bytes == 900
        assert outer.inclusive_cost().stream_bytes == 1000

    def test_root_catches_unscoped_charges(self):
        sp = gpu_space(0)
        tr = Tracer("t").attach(sp)
        sp.ledger.charge("transfer", KernelCost(transfer_bytes=50))
        tr.close()
        assert tr.root.exclusive_cost().transfer_bytes == 50

    def test_close_unwinds_open_spans_and_detaches(self):
        sp = gpu_space(0)
        tr = Tracer("t").attach(sp)
        cm = tr.span("leaked")
        cm.__enter__()
        tr.close()
        assert sp.tracer is None
        leaked = tr.root.children[0]
        assert leaked.end_s is not None
        # post-close charges no longer reach the tracer
        sp.ledger.charge("mapping", KernelCost(stream_bytes=1))
        assert tr.total_seconds() == 0.0

    def test_clock_advances_with_priced_charges(self):
        sp = gpu_space(0)
        tr = Tracer("t").attach(sp)
        with sp.span("a") as a:
            sp.ledger.charge("mapping", KernelCost(stream_bytes=532e9))
        tr.close()
        assert a.begin_s == 0.0
        assert a.end_s == pytest.approx(1.0)

    def test_machine_mismatch_rejected(self):
        from repro.parallel import cpu_space

        tr = Tracer("t").attach(gpu_space(0))
        with pytest.raises(ValueError):
            tr.attach(cpu_space(0))

    def test_config_key_from_labels(self):
        tr = Tracer("t", labels={"kind": "coarsen", "machine": "gpu",
                                 "graph": "ppa", "seed": 3})
        assert tr.config_key() == "coarsen:gpu:ppa:3"
        assert Tracer("bare").config_key() == "bare"


class TestHarnessIntegration:
    def test_phase_rollup_matches_ledger_exactly(self):
        """Acceptance: tracer per-phase seconds == ledger phase_seconds bitwise."""
        r = traced_coarsening()
        tr = r["trace"]
        assert tr.phase_seconds("mapping") == r["mapping_s"]
        assert tr.phase_seconds("construction") == r["construction_s"]
        assert tr.phase_seconds("transfer") == r["transfer_s"]
        assert tr.total_seconds() == pytest.approx(r["total_s"], abs=1e-9)

    def test_span_tree_nests_per_level(self):
        r = traced_coarsening()
        trace = r["trace"].to_dict()
        by_name = {}
        for span in trace["spans"]:
            by_name.setdefault(span["name"], []).append(span)
        levels = by_name["level"]
        assert len(levels) == r["levels"] - 1
        assert [s["labels"]["level"] for s in levels] == list(range(len(levels)))
        by_id = {s["id"]: s for s in trace["spans"]}
        for mapping in by_name["mapping"]:
            parent = by_id[mapping["parent"]]
            assert parent["name"] == "level"
            assert parent["labels"]["level"] == mapping["labels"]["level"]
        assert all(by_id[c["parent"]]["name"] == "level" for c in by_name["construction"])
        assert by_name["dedup"], "construction should open dedup spans"

    def test_intervals_nest_within_parents(self):
        trace = traced_coarsening()["trace"].to_dict()
        by_id = {s["id"]: s for s in trace["spans"]}
        for span in trace["spans"]:
            assert span["end_s"] >= span["begin_s"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert span["begin_s"] >= parent["begin_s"]
                assert span["end_s"] <= parent["end_s"]

    def test_root_inclusive_equals_total(self):
        tr = traced_coarsening()["trace"]
        assert tr.seconds(tr.root) == tr.total_seconds()

    def test_partition_trace_covers_refinement(self):
        g = random_connected(200, 350, seed=4).with_name("t")
        r = run_partition(g, None, machine="gpu", refinement="fm")
        names = {s["name"] for s in r["trace"].to_dict()["spans"]}
        assert {"coarsen", "uncoarsen", "initial", "refine"} <= names

    def test_deterministic_traces(self):
        a = traced_coarsening()["trace"].to_dict()
        b = traced_coarsening()["trace"].to_dict()
        assert a == b


class TestConservation:
    """Satellite: every simulated second lands in exactly one span/phase."""

    def test_bisect_phase_sum_matches_space_seconds(self):
        g = random_connected(250, 450, seed=7).with_name("t")
        from repro.bench import space_for
        from repro.partition import multilevel_bisect

        space = space_for("gpu", 7)
        tr = Tracer("bisect").attach(space)
        multilevel_bisect(g, space, refinement="fm")
        tr.close()
        ledger_total = space.seconds()
        phase_sum = sum(tr.phase_seconds(p) for p in tr.phases())
        assert phase_sum == pytest.approx(ledger_total, abs=1e-9)
        assert tr.total_seconds() == pytest.approx(ledger_total, abs=1e-9)

    def test_rollups_conserve_total(self):
        trace = traced_coarsening()["trace"].to_dict()
        total = trace["total_s"]
        phases = sum(r["seconds"] for r in phase_rows(trace))
        assert phases == pytest.approx(total, abs=1e-9)
        exclusive = sum(s["exclusive_s"] for s in trace["spans"])
        assert exclusive == pytest.approx(total, abs=1e-9)


class TestRollups:
    def test_level_rows_splits(self):
        trace = traced_coarsening()["trace"].to_dict()
        rows = level_rows(trace)
        assert [r["level"] for r in rows] == list(range(len(rows)))
        for row in rows:
            assert row["mapping_s"] > 0
            assert row["construction_s"] > 0
            assert row["dedup_s"] > 0  # inherited from construction ancestor
            assert row["seconds"] >= row["mapping_s"] + row["construction_s"] - 1e-12

    def test_span_rows_depth_filter(self):
        trace = traced_coarsening()["trace"].to_dict()
        all_rows = span_rows(trace)
        top = span_rows(trace, max_depth=1)
        assert len(top) < len(all_rows)
        assert all_rows[0]["span"] == "run_coarsening"

    def test_to_csv_union_of_keys(self):
        out = to_csv([{"a": 1}, {"a": 2, "b": 3}])
        assert out.splitlines()[0] == "a,b"
        assert to_csv([]) == ""


class TestExportAndPersistence:
    def test_save_load_round_trip(self, tmp_path):
        tr = traced_coarsening()["trace"]
        path = tr.save(tmp_path / "x.trace.json")
        loaded = load_trace(path)
        assert loaded == tr.to_dict()
        assert loaded["format"] == TRACE_FORMAT

    def test_load_rejects_wrong_format(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError):
            load_trace(p)

    def test_chrome_trace_valid(self):
        trace = traced_coarsening()["trace"].to_dict()
        chrome = chrome_trace(trace)
        events = chrome["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == len(trace["spans"])
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert e["pid"] == 0 and e["tid"] == 0
        assert any(e["ph"] == "M" for e in events)
        json.dumps(chrome)  # must be serializable


class TestDiff:
    def test_identical_traces_no_findings(self):
        trace = traced_coarsening()["trace"].to_dict()
        assert diff_traces(trace, trace) == []

    def test_drift_detected(self):
        base = traced_coarsening()["trace"].to_dict()
        new = json.loads(json.dumps(base))
        new["total_s"] *= 2
        findings = diff_traces(base, new)
        assert any(f["metric"] == "total_s" for f in findings)

    def test_missing_span_path_is_finding(self):
        base = traced_coarsening()["trace"].to_dict()
        new = json.loads(json.dumps(base))
        new["spans"] = [s for s in new["spans"] if s["name"] != "dedup"]
        findings = diff_traces(base, new)
        assert any(f["metric"].startswith("span:") and f["new"] is None
                   for f in findings)

    def test_baseline_gate(self):
        trace = traced_coarsening()["trace"].to_dict()
        baseline = collect_baseline([trace])
        assert baseline["format"] == BASELINE_FORMAT
        assert diff(baseline, trace) == []
        drifted = json.loads(json.dumps(trace))
        drifted["phases"]["mapping"]["seconds"] *= 3
        assert diff(baseline, drifted)

    def test_baseline_missing_entry(self):
        trace = traced_coarsening()["trace"].to_dict()
        other = json.loads(json.dumps(trace))
        other["key"] = "coarsen:other:key"
        findings = diff(collect_baseline([trace]), other)
        assert findings and findings[0]["metric"] == "baseline-entry"

    def test_entry_shape(self):
        trace = traced_coarsening()["trace"].to_dict()
        entry = baseline_entry(trace)
        assert set(entry) >= {"machine", "total_s", "phases"}
        assert entry["phases"].keys() == trace["phases"].keys()

    def test_trace_before_baseline_rejected(self):
        trace = traced_coarsening()["trace"].to_dict()
        with pytest.raises(ValueError):
            diff(trace, collect_baseline([trace]))


class TestCLI:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        return str(traced_coarsening()["trace"].save(tmp_path / "a.trace.json"))

    def test_view_modes(self, trace_file, capsys):
        for mode in ("span", "phase", "level"):
            assert trace_cli(["view", trace_file, "--by", mode]) == 0
            out = capsys.readouterr().out
            assert "OOM" not in out

    def test_view_csv(self, trace_file, capsys):
        assert trace_cli(["view", trace_file, "--by", "phase", "--csv"]) == 0
        assert capsys.readouterr().out.startswith("phase,")

    def test_diff_exit_codes(self, trace_file, tmp_path, capsys):
        assert trace_cli(["diff", trace_file, trace_file]) == 0
        drifted = load_trace(trace_file)
        drifted["total_s"] *= 2
        bad = tmp_path / "b.trace.json"
        bad.write_text(json.dumps(drifted))
        assert trace_cli(["diff", trace_file, str(bad)]) == 1
        assert "DRIFT" in capsys.readouterr().out
        assert trace_cli(["diff", trace_file, str(tmp_path / "missing.json")]) == 2

    def test_export(self, trace_file, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert trace_cli(["export", trace_file, "-o", str(out)]) == 0
        chrome = json.loads(out.read_text())
        assert chrome["traceEvents"]


# ------------------------------------------------------------ folded replay


def _fold_bits(folded):
    """A fold as plain data, every counter by its exact bits."""
    totals, tracked = folded
    return [(p, _cost_bits(c)) for p, c in totals.items()], tracked


def _cost_bits(cost):
    return [float.hex(float(v)) for v in cost.as_dict().values()]


def _event_bits(events):
    """Events as plain data, each charge by its counters' exact bits."""
    return [
        ("charge", ev[1], _cost_bits(ev[2])) if ev[0] == "charge" else ev
        for ev in events
    ]


def _ledger_bits(ledger):
    """Phase order and every counter by ``float.hex``."""
    return [(p, _cost_bits(ledger.phase(p))) for p in ledger.phases()]


def _state(space, tracker):
    """Everything a replay leaves behind: the ledger's bits, the
    tracker's peak and resident bytes, the RNG state."""
    return (
        _ledger_bits(space.ledger),
        float.hex(tracker.peak), float.hex(tracker._resident),
        space.rng.bit_generator.state,
    )


def _unfolded(tape):
    """A tape built from the same recording without a fold: its
    replays run every event through ``CostLedger.charge``."""
    plain = Tape()
    plain.machine, plain.events = tape.machine, list(tape.events)
    plain.rng_state, plain.complete = tape.rng_state, True
    return plain


def _replayed(tape, machine, times=1):
    """State after replaying ``tape`` ``times`` into one fresh space."""
    space, tracker = space_for(machine, 5), MemoryTracker.null()
    for _ in range(times):
        tape.replay(space, tracker)
    return _state(space, tracker)


def _fold_graph():
    return random_connected(600, 900, seed=3).with_name("f")


def _build_tape(coarsener="hec", machine="gpu", g=None):
    """A hierarchy of ``g`` and the tape its build recorded."""
    if g is None:
        g = _fold_graph()
    tape = Tape()
    hierarchy = coarsen_multilevel(
        g, space_for(machine, 0), coarsener=coarsener,
        tracker=MemoryTracker.null(), tape=tape,
    )
    return hierarchy, tape


def _composed_tapes(batches=3):
    """The serving lineage of one tenant: a build tape, then the tape
    composed after each of ``batches`` update batches."""
    g = _fold_graph()
    hierarchy, tape = _build_tape(g=g)
    rng = np.random.default_rng(17)
    out = []
    for _ in range(batches):
        add = rng.integers(0, g.n, size=(2, 12))
        keep = add[0] != add[1]
        eidx = rng.choice(g.m_directed, 8, replace=False)
        g, delta = apply_edges(
            g, add=(add[0][keep], add[1][keep], rng.uniform(1, 9, int(keep.sum()))),
            remove=(g.edge_sources()[eidx], np.asarray(g.adjncy)[eidx]),
        )
        space = space_for("gpu", 0)
        space.rng.bit_generator.state = tape.rng_state
        patch = Tape()
        hierarchy = patch_hierarchy(
            hierarchy, g, delta, space, tracker=MemoryTracker.null(), tape=patch,
        )
        tape = tape.composed(patch)
        out.append(tape)
    return out


@pytest.fixture(scope="module")
def kept_tapes():
    """The kept-read tapes of a k=8 read, an FM bisection and the
    embedding: each read runs three times from one entry state, so the
    second records its tape and the third replays it."""
    g = _fold_graph()
    hierarchy, _tape = _build_tape(g=g)
    for _ in range(3):
        kway_from_hierarchy(g, hierarchy, 8, space_for("gpu", 0))
        multilevel_bisect(g, space_for("gpu", 0), refinement="fm",
                          hierarchy=hierarchy)
    tapes = {key: noted[1][1] for key, noted in hierarchy.kept.items()}
    assert len(tapes) == 3 and all(t.fold is not None for t in tapes.values())
    return tapes


class TestFoldedReplay:
    """An untraced replay into phases the ledger does not hold installs
    the tape's folded charge totals: bitwise the per-event replay."""

    @pytest.mark.parametrize("machine", ["gpu", "cpu"])
    @pytest.mark.parametrize("coarsener", ["hec", "hem"])
    def test_build_tape_equals_per_event_replay(self, coarsener, machine):
        _h, tape = _build_tape(coarsener, machine)
        assert tape.fold is not None
        got = _replayed(tape, machine)
        assert got == _replayed(_unfolded(tape), machine)
        assert got[0] and got[1] != float.hex(0.0)

    def test_composed_tape_equals_per_event_replay(self):
        for tape in _composed_tapes():
            assert _replayed(tape, "gpu") == _replayed(_unfolded(tape), "gpu")

    def test_kept_read_tapes_equal_per_event_replay(self, kept_tapes):
        for tape in kept_tapes.values():
            assert _replayed(tape, "gpu") == _replayed(_unfolded(tape), "gpu")

    def test_second_replay_into_one_space_runs_every_event(self):
        """The second replay finds its phases charged, so the ledger
        declines the totals and each charge is added in order."""
        _h, tape = _build_tape()
        assert _replayed(tape, "gpu", times=2) == _replayed(
            _unfolded(tape), "gpu", times=2)

    def test_replay_inside_a_recording_logs_every_event(self, kept_tapes):
        """The nested kept read: a replay inside ``Tape.record`` feeds
        the outer recording every charge, span and tracker call."""
        for inner in [*kept_tapes.values(), _build_tape()[1]]:
            space, outer = space_for("gpu", 5), Tape()
            with outer.record(space):
                inner.replay(space, outer.wrap_tracker(MemoryTracker.null()))
            assert _event_bits(outer.events) == _event_bits(inner.events)
            assert outer.rng_state == inner.rng_state

    def test_traced_replay_trace_unchanged(self, kept_tapes):
        for tape in [_build_tape()[1], *kept_tapes.values()]:
            docs = []
            for t in (tape, _unfolded(tape)):
                space = space_for("gpu", 5)
                tracer = Tracer("replay").attach(space)
                t.replay(space, MemoryTracker.null())
                docs.append(json.dumps(tracer.close().to_dict(), sort_keys=True))
            assert docs[0] == docs[1]

    def test_composed_carries_the_fold(self):
        for tape in _composed_tapes():
            assert _fold_bits(tape.fold) == _fold_bits(fold(tape.events))
            assert tape_digest(tape) == tape_digest(_unfolded(tape))

    def test_untraced_replay_makes_no_charge(self, monkeypatch):
        tape = _composed_tapes()[-1]
        calls = []
        charge = CostLedger.charge

        def counted(self, phase, cost):
            calls.append(phase)
            charge(self, phase, cost)

        monkeypatch.setattr(CostLedger, "charge", counted)
        tape.replay(space_for("gpu", 5), MemoryTracker.null())
        assert calls == []
        _unfolded(tape).replay(space_for("gpu", 5), MemoryTracker.null())
        assert len(calls) == sum(ev[0] == "charge" for ev in tape.events)

    def test_ledger_declines_what_it_cannot_install_exactly(self):
        """A listener must see every charge, and a sum added onto a
        charged phase is not its terms added one by one."""
        totals = {"mapping": KernelCost(stream_bytes=3.0)}
        watched = CostLedger()
        watched.add_listener(lambda phase, cost: None)
        assert not watched.install_totals(totals)
        assert watched.phases() == []
        charged = CostLedger()
        charged.charge("mapping", KernelCost(launches=1.0))
        assert not charged.install_totals(totals)
        assert charged.phase("mapping") == KernelCost(launches=1.0)
        fresh = CostLedger()
        fresh.charge("refinement", KernelCost(launches=1.0))
        assert fresh.install_totals(totals)
        assert fresh.phases() == ["refinement", "mapping"]
        assert fresh.phase("mapping") == totals["mapping"]
        assert fresh.phase("mapping") is not totals["mapping"]

    def test_ledger_never_aliases_the_fold(self):
        """Charging a replayed phase again must not reach the tape."""
        _h, tape = _build_tape()
        space = space_for("gpu", 5)
        tape.replay(space)
        first = _ledger_bits(space.ledger)
        for phase in space.ledger.phases():
            space.ledger.charge(phase, KernelCost(stream_bytes=1.0, launches=1.0))
        again = space_for("gpu", 5)
        tape.replay(again)
        assert _ledger_bits(again.ledger) == first
