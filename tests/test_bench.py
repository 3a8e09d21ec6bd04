"""Benchmark harness: reporting helpers and experiment runners."""

import math

import numpy as np
import pytest

from repro.bench import (
    corpus_graph,
    format_table,
    geomean,
    median,
    ratio,
    run_coarsening,
    run_partition,
    space_for,
)
from repro.parallel import SimulatedOOM

from tests.conftest import random_connected


class TestReport:
    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([2, 2, 2]) == pytest.approx(2.0)

    def test_geomean_skips_bad(self):
        assert geomean([4.0, None, float("nan"), 1.0]) == pytest.approx(2.0)
        assert math.isnan(geomean([]))

    def test_median(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 2, 3]) == 2.5
        assert median([None, 5]) == 5

    def test_ratio(self):
        assert ratio(6, 3) == 2
        assert ratio(None, 3) is None
        assert ratio(3, None) is None
        assert ratio(1, 0) is None

    def test_format_table(self):
        rows = [{"g": "a", "x": 1.5}, {"g": "b", "x": None}]
        out = format_table(rows, [("g", "Graph", "s"), ("x", "X", ".2f")], title="T")
        assert "T" in out
        assert "1.50" in out
        assert "OOM" in out


class TestRunners:
    def test_space_for(self):
        assert space_for("gpu").machine.is_gpu
        assert not space_for("cpu").machine.is_gpu
        with pytest.raises(ValueError):
            space_for("tpu")

    def test_corpus_graph(self):
        g, spec = corpus_graph("ppa")
        assert g.name == "ppa"
        assert spec.name == "ppa"

    def test_run_coarsening_fields(self):
        g = random_connected(200, 350, seed=1).with_name("t")
        r = run_coarsening(g, None, machine="gpu")
        assert not r["oom"]
        assert r["total_s"] > 0
        assert r["total_s"] >= r["compute_s"]
        assert 0 <= r["grco_pct"] <= 100
        assert r["levels"] >= 2
        assert r["cr"] > 1

    def test_run_coarsening_deterministic(self):
        g = random_connected(150, 250, seed=2).with_name("t")
        a = run_coarsening(g, None, machine="gpu", seed=5)
        b = run_coarsening(g, None, machine="gpu", seed=5)
        assert a["total_s"] == b["total_s"]

    def test_cpu_has_no_transfer(self):
        g = random_connected(150, 250, seed=3).with_name("t")
        r = run_coarsening(g, None, machine="cpu")
        assert r["transfer_s"] == 0.0

    def test_run_partition_fields(self):
        g = random_connected(200, 350, seed=4).with_name("t")
        r = run_partition(g, None, machine="gpu", refinement="fm")
        assert not r["oom"]
        assert r["cut"] >= 0
        assert 0 <= r["coarsen_pct"] <= 100
        assert r["total_s"] == pytest.approx(r["coarsen_s"] + r["refine_s"])

    def test_run_partition_reports_peak_mem(self):
        g, spec = corpus_graph("ppa")
        r = run_partition(g, spec, machine="gpu", refinement="spectral", oom=True)
        assert not r["oom"]
        assert r["peak_mem"] > 0

    def test_runners_carry_closed_traces(self):
        g = random_connected(200, 350, seed=6).with_name("t")
        for r in (
            run_coarsening(g, None, machine="gpu"),
            run_partition(g, None, machine="gpu", refinement="spectral"),
        ):
            tr = r["trace"]
            assert tr.root.end_s is not None  # closed
            assert tr.total_seconds() == pytest.approx(r["total_s"], abs=1e-9)

    def test_oom_reported_not_raised(self):
        g, spec = corpus_graph("ic04")
        r = run_coarsening(g, spec, machine="gpu", coarsener="hem", oom=True)
        assert r["oom"] is True
        assert r["total_s"] is None
        assert r["trace"].root.end_s is not None  # trace survives the OOM

    def test_write_trace_and_results(self, tmp_path):
        from repro.bench import write_results, write_trace

        g = random_connected(150, 250, seed=8).with_name("t")
        r = run_coarsening(g, None, machine="gpu")
        path = write_trace(r, tmp_path)
        assert path is not None and path.exists()
        assert path.name.endswith(".trace.json")
        results = write_results([r], tmp_path)
        rows = __import__("json").loads(results.read_text())
        assert rows[0]["graph"] == "t" and "hierarchy" not in rows[0]


class TestExperimentsSmoke:
    def test_table1(self):
        from repro.bench.experiments import table1

        rows, summary = table1()
        assert len(rows) == 20
        assert summary["split_holds"]

    def test_ablation_dedup_pays_on_skewed(self):
        """The degree-based dedup optimization must pay on skewed graphs.

        The paper's 25.7x (kron21) needs paper-scale hub bins; at our
        ~1/1000 scale the effect is 1.3-3x and grows with hub size.
        """
        from repro.bench.experiments import ablation_dedup

        assert ablation_dedup(graph="Orkut")["speedup"] > 1.5
        assert ablation_dedup(graph="kron21")["speedup"] > 1.1

    def test_ablation_dedup_noop_on_regular(self):
        from repro.bench.experiments import ablation_dedup

        out = ablation_dedup(graph="HV15R")
        assert out["speedup"] == 1.0  # heuristic never engages on meshes


class TestWallclockBaseline:
    def _entry(self, total):
        return {
            "config": {"machine": "gpu", "coarsener": "hec",
                       "constructor": "sort", "seed": 0},
            "per_graph_best_sum_s": total,
        }

    def test_merge_creates_schema2(self, tmp_path):
        import json

        from repro.bench import merge_wallclock_file, wallclock_key, wallclock_reference

        path = tmp_path / "wall.json"
        key = wallclock_key("gpu", "hec", "sort", 0)
        merge_wallclock_file(path, key, self._entry(1.5))
        doc = json.loads(path.read_text())
        assert doc["schema"] == 2
        assert wallclock_reference(doc, key)["per_graph_best_sum_s"] == 1.5

    def test_merge_accumulates_configs(self, tmp_path):
        import json

        from repro.bench import merge_wallclock_file, wallclock_key

        path = tmp_path / "wall.json"
        merge_wallclock_file(path, wallclock_key("gpu", "hec", "sort", 0), self._entry(1.0))
        merge_wallclock_file(path, wallclock_key("cpu", "hec", "sort", 0), self._entry(2.0))
        merge_wallclock_file(path, wallclock_key("gpu", "hem", "sort", 0), self._entry(3.0))
        doc = json.loads(path.read_text())
        assert set(doc["configs"]) == {"gpu:hec:sort:s0", "cpu:hec:sort:s0", "gpu:hem:sort:s0"}

    def test_replace_same_key(self, tmp_path):
        import json

        from repro.bench import merge_wallclock_file

        path = tmp_path / "wall.json"
        merge_wallclock_file(path, "gpu:hec:sort:s0", self._entry(1.0))
        merge_wallclock_file(path, "gpu:hec:sort:s0", self._entry(9.0))
        doc = json.loads(path.read_text())
        assert doc["configs"]["gpu:hec:sort:s0"]["per_graph_best_sum_s"] == 9.0

    def test_parallel_runs_gate_against_their_own_key(self):
        from repro.bench import wallclock_key

        assert wallclock_key("gpu", "hec", "sort", 0) == "gpu:hec:sort:s0"
        assert wallclock_key("gpu", "hec", "sort", 0, jobs=1) == "gpu:hec:sort:s0"
        assert wallclock_key("gpu", "hec", "sort", 0, jobs=2) == "gpu:hec:sort:s0:j2"
