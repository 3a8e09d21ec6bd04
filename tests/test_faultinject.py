"""Deterministic fault injection: spec grammar, matching, counters."""

from __future__ import annotations

import errno

import pytest

from repro import faultinject
from repro.faultinject import FaultInjected, FaultPlan


@pytest.fixture(autouse=True)
def _disarm():
    faultinject.clear()
    yield
    faultinject.clear()


class TestSpecParsing:
    def test_single_rule(self):
        plan = FaultPlan.parse("pool.worker:crash")
        assert len(plan.rules) == 1
        assert plan.rules[0].site == "pool.worker"
        assert plan.rules[0].kind == "crash"

    def test_params_and_matchers(self):
        plan = FaultPlan.parse(
            "pool.worker:oserror:graph=ppa,attempt<2,after=1,times=3,errno=EIO"
        )
        (rule,) = plan.rules
        assert rule.after == 1
        assert rule.times == 3
        assert rule.errno_name == "EIO"
        assert ("graph", "=", "ppa") in rule.matchers
        assert ("attempt", "<", "2") in rule.matchers

    def test_multiple_rules(self):
        plan = FaultPlan.parse("cache.store:oserror; journal.write:kill:after=3")
        assert [r.site for r in plan.rules] == ["cache.store", "journal.write"]

    def test_malformed_rule_rejected(self):
        with pytest.raises(ValueError, match="malformed fault rule"):
            FaultPlan.parse("justasite")

    def test_unknown_site_rejected(self):
        # a stale spec fails loudly instead of arming a rule that never fires
        with pytest.raises(ValueError, match="unknown fault site 'shm.publish'"):
            FaultPlan.parse("shm.publish:oserror")
        with pytest.raises(ValueError, match="unknown fault site"):
            faultinject.install("pool.worker:crash; pool.wroker:crash")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("pool.worker:explode")

    def test_malformed_param_rejected(self):
        with pytest.raises(ValueError, match="malformed fault param"):
            FaultPlan.parse("pool.worker:crash:huh")


class TestMatching:
    def test_label_equality(self):
        plan = FaultPlan.parse("pool.worker:error:graph=ppa")
        with pytest.raises(FaultInjected):
            plan.fire("pool.worker", {"graph": "ppa"})
        plan.fire("pool.worker", {"graph": "citation"})  # no match, no fire
        plan.fire("cache.store", {"graph": "ppa"})  # different site

    def test_numeric_less_than(self):
        plan = FaultPlan.parse("pool.worker:error:attempt<2")
        with pytest.raises(FaultInjected):
            plan.fire("pool.worker", {"attempt": 0})
        with pytest.raises(FaultInjected):
            plan.fire("pool.worker", {"attempt": 1})
        plan.fire("pool.worker", {"attempt": 2})  # not < 2

    def test_missing_label_never_matches(self):
        plan = FaultPlan.parse("pool.worker:error:graph=ppa")
        plan.fire("pool.worker", {})  # no graph label -> no fire

    def test_oserror_carries_errno(self):
        plan = FaultPlan.parse("cache.store:oserror:errno=EIO")
        with pytest.raises(OSError) as exc:
            plan.fire("cache.store", {"key": "k"})
        assert exc.value.errno == errno.EIO


class TestCounters:
    def test_after_skips_first_hits(self):
        plan = FaultPlan.parse("journal.write:error:after=2")
        plan.fire("journal.write", {})
        plan.fire("journal.write", {})
        with pytest.raises(FaultInjected):
            plan.fire("journal.write", {})

    def test_times_caps_firing(self):
        plan = FaultPlan.parse("pool.worker:error:times=1")
        with pytest.raises(FaultInjected):
            plan.fire("pool.worker", {})
        plan.fire("pool.worker", {})  # exhausted

    def test_deterministic_sequence(self):
        """Same call sequence, same firing pattern — twice over."""
        outcomes = []
        for _ in range(2):
            plan = FaultPlan.parse("pool.worker:error:after=1,times=2")
            fired = []
            for i in range(5):
                try:
                    plan.fire("pool.worker", {"i": i})
                    fired.append(False)
                except FaultInjected:
                    fired.append(True)
            outcomes.append(fired)
        assert outcomes[0] == outcomes[1] == [False, True, True, False, False]


class TestModuleState:
    def test_install_and_env_round_trip(self, monkeypatch):
        monkeypatch.delenv(faultinject.ENV_VAR, raising=False)
        faultinject.install("pool.worker:error")
        assert faultinject.active()
        import os

        assert os.environ[faultinject.ENV_VAR] == "pool.worker:error"
        with pytest.raises(FaultInjected):
            faultinject.fire("pool.worker", graph="x")
        faultinject.install(None)
        assert not faultinject.active()
        assert faultinject.ENV_VAR not in os.environ

    def test_env_var_loads_lazily(self, monkeypatch):
        faultinject.clear()
        monkeypatch.setenv(faultinject.ENV_VAR, "cache.store:error")
        faultinject._PLAN = faultinject._UNLOADED  # simulate a fresh process
        with pytest.raises(FaultInjected):
            faultinject.fire("cache.store", key="g")

    def test_reset_zeroes_counters(self):
        faultinject.install("pool.worker:error:times=1")
        with pytest.raises(FaultInjected):
            faultinject.fire("pool.worker")
        faultinject.fire("pool.worker")  # exhausted
        faultinject.reset()
        with pytest.raises(FaultInjected):
            faultinject.fire("pool.worker")

    def test_fire_is_noop_without_plan(self):
        faultinject.clear()
        faultinject.fire("pool.worker", graph="anything")  # must not raise

    def test_sites_registry_covers_wired_points(self):
        import re
        from pathlib import Path

        src = Path(faultinject.__file__).parent
        wired = {
            m.group(1)
            for path in src.rglob("*.py")
            for m in re.finditer(r'faultinject\.fire\(\s*"([\w.]+)"',
                                 path.read_text())
        }
        assert wired == {
            "pool.worker", "pool.create", "cache.store", "journal.write",
            "serve.exec", "serve.journal", "serve.recover", "serve.deadline",
        }
        assert set(faultinject.SITES) == wired
