"""FaultPlan: determinism, gating, env config, null fast path."""

import pytest

from repro import obs
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, InjectedFault


@pytest.fixture(autouse=True)
def no_global_plan():
    """Every test starts and ends with injection disabled."""
    previous = faults.current_plan()
    faults.clear_plan()
    yield
    faults.install_plan(previous)


class TestDecision:
    def test_deterministic_per_seed_site_index(self):
        plan = FaultPlan(seed=7, rate=0.05)
        fired = [plan.would_fire("cache.read", i) for i in range(200)]
        again = FaultPlan(seed=7, rate=0.05)
        assert fired == [again.would_fire("cache.read", i)
                         for i in range(200)]
        # a 5% plan over 200 invocations fires at least once and is
        # nowhere near always-on
        assert 0 < sum(fired) < 50

    def test_sites_decorrelated(self):
        plan = FaultPlan(seed=7, rate=0.2)
        a = [plan.would_fire("cache.read", i) for i in range(100)]
        b = [plan.would_fire("cache.write", i) for i in range(100)]
        assert a != b

    def test_seed_changes_schedule(self):
        a = FaultPlan(seed=1, rate=0.2)
        b = FaultPlan(seed=2, rate=0.2)
        assert [a.would_fire("s", i) for i in range(100)] != \
               [b.would_fire("s", i) for i in range(100)]

    def test_rate_bounds(self):
        assert not FaultPlan(rate=0.0).would_fire("s", 0)
        always = FaultPlan(rate=1.0)
        assert all(always.would_fire("s", i) for i in range(20))
        with pytest.raises(ValueError):
            FaultPlan(rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(rate=-0.1)


class TestCheck:
    def test_check_counts_and_raises(self):
        plan = FaultPlan(seed=0, rate=1.0)
        with pytest.raises(InjectedFault) as excinfo:
            plan.check("cache.read")
        assert excinfo.value.site == "cache.read"
        assert excinfo.value.index == 0
        assert plan.counts() == {"cache.read": 1}
        assert plan.fired == 1

    def test_sites_filter(self):
        plan = FaultPlan(seed=0, rate=1.0, sites=("cache.read",))
        plan.check("cache.write")           # filtered: no raise
        with pytest.raises(InjectedFault):
            plan.check("cache.read")

    def test_max_faults_caps_the_storm(self):
        plan = FaultPlan(seed=0, rate=1.0, max_faults=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.check("s")
        plan.check("s")                     # budget exhausted: no raise
        assert plan.fired == 2

    def test_inject_is_noop_without_plan(self):
        faults.inject("cache.read")         # must not raise

    def test_active_plan_scopes_install(self):
        plan = FaultPlan(seed=0, rate=1.0)
        with faults.active_plan(plan) as installed:
            assert installed is plan
            assert faults.current_plan() is plan
            with pytest.raises(InjectedFault):
                faults.inject("s")
        assert faults.current_plan() is None

    def test_fired_fault_is_visible_in_telemetry(self):
        collector = obs.add_sink(obs.SpanCollector())
        try:
            with faults.active_plan(FaultPlan(seed=0, rate=1.0)):
                with obs.span("chaos-test"):
                    with pytest.raises(InjectedFault):
                        faults.inject("cache.read")
            spans = collector.snapshot()
        finally:
            obs.remove_sink(collector)
        events = [e for s in spans for e in s.events
                  if e.name == "fault.injected"]
        assert len(events) == 1
        assert events[0].attrs["site"] == "cache.read"


class TestSpec:
    def test_roundtrip(self):
        plan = FaultPlan(seed=7, rate=0.05,
                         sites=("cache.read", "cache.write"),
                         max_faults=10)
        parsed = FaultPlan.from_spec(plan.spec())
        assert parsed.seed == 7
        assert parsed.rate == 0.05
        assert parsed.sites == frozenset(("cache.read", "cache.write"))
        assert parsed.max_faults == 10

    def test_parse_minimal(self):
        plan = FaultPlan.from_spec("seed=3,rate=0.2")
        assert (plan.seed, plan.rate) == (3, 0.2)
        assert plan.sites is None and plan.max_faults is None

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("seed")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("turbo=9")

    def test_env_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=9,rate=0.5")
        plan = faults.configure_from_env()
        assert plan is not None and plan.seed == 9
        faults.clear_plan()

    def test_env_config_tolerates_typos(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "rate=banana")
        assert faults.configure_from_env() is None
        assert "REPRO_FAULTS" in capsys.readouterr().err
