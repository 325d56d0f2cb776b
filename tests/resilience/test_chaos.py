"""Chaos tests: the real flow stack under seeded fault storms.

The headline suite for ``repro.resilience``: runs the actual fig5
workload (5 apps x 2 modes) with a deterministic fault plan installed
and asserts the three resilience guarantees end to end --

1. **correctness**: every job completes and its designs are identical
   to a fault-free run (fallbacks and skipped cache writes absorb the
   faults);
2. **visibility**: every fired fault shows up in telemetry
   (``repro_faults_injected_total`` and ``fault.injected`` events);
3. **containment**: corrupt cache entries are quarantined and
   re-run; a payload that keeps crashing the pool fails alone, and the
   service keeps admitting work.
"""

import os
import time

import pytest

import repro.service.core as service_core
from repro import obs
from repro.analysis.profile import clear_profile_cache
from repro.lang import engine as lang_engine
from repro.meta.ast_api import Ast
from repro.resilience import faults
from repro.resilience.faults import FaultPlan
from repro.service import DesignService, JobFailed, JobStatus, expand_jobs
from repro.service.jobs import execute_job_payload


@pytest.fixture(autouse=True)
def clean_chaos_state():
    """No fault plan leaks between tests."""
    previous = faults.current_plan()
    faults.clear_plan()
    yield
    faults.install_plan(previous)


def _fault_counter_total():
    counter = obs.REGISTRY.counter(
        "repro_faults_injected_total",
        "deterministic faults fired by injection site", ("site",))
    return sum(counter.get(site=site) for site in faults.KNOWN_SITES)


def _design_signature(result):
    """The observable outcome of one flow run, engine-independent."""
    return (result.selected_target,
            [(d.metadata.get("device_label"), d.synthesizable,
              round(d.speedup, 9) if d.speedup is not None else None)
             for d in result.designs])


class TestFig5UnderStorm:
    def test_fig5_storm_is_absorbed_and_visible(self, tmp_path,
                                                all_informed,
                                                all_uninformed):
        """The acceptance run: fig5 under seed=7/rate=5%, each job run
        once, must produce results identical to the fault-free session
        fixtures -- and every fault must be visible in the metrics."""
        plan = FaultPlan(seed=7, rate=0.05)
        before = _fault_counter_total()
        collector = obs.add_sink(obs.SpanCollector())
        try:
            with faults.active_plan(plan), \
                 DesignService(cache_dir=str(tmp_path / "cache"),
                               workers=4, pool="thread",
                               default_timeout=60.0) as service:
                outcomes = {}
                for submission, value, error in service.stream(
                        expand_jobs(), timeout=300):
                    assert error is None, \
                        f"{submission.job.label} failed under chaos: " \
                        f"{error}"
                    outcomes[(submission.job.app,
                              submission.job.mode)] = value
        finally:
            obs.remove_sink(collector)
        # 1. correctness: identical to the fault-free references
        assert len(outcomes) == 10
        for app, reference in all_informed.items():
            assert _design_signature(outcomes[(app, "informed")]) == \
                _design_signature(reference), f"{app}/informed diverged"
        for app, reference in all_uninformed.items():
            assert _design_signature(outcomes[(app, "uninformed")]) == \
                _design_signature(reference), \
                f"{app}/uninformed diverged"
        # 2. the storm actually stormed, deterministically
        assert plan.fired > 0, \
            f"no faults fired; invocations: {plan.counts()}"
        # 3. visibility: one counter increment per fired fault...
        assert _fault_counter_total() - before == plan.fired
        # ...and faults that fire inside a span also leave an event
        # there.  This storm's cache-write faults fire in span-less
        # driver callbacks, so it may leave none;
        # test_a_fault_inside_a_span_leaves_an_event pins the event.
        events = [e for s in collector.snapshot() for e in s.events
                  if e.name == "fault.injected"]
        assert len(events) <= plan.fired
        assert all(e.attrs["seed"] == 7 for e in events)

    def test_a_fault_inside_a_span_leaves_an_event(self, kmeans_informed,
                                                   monkeypatch):
        """One compiled-engine fault on a cold profile cache: one
        ``fault.injected`` event on the ``execute_unit`` span, one
        counter increment, and the flow's designs unchanged."""
        # the site sits on the compiled engine, whatever the run selects
        monkeypatch.setenv("REPRO_EXEC", "compiled")
        clear_profile_cache()
        plan = FaultPlan(seed=0, rate=1.0, sites=("exec.compiled",),
                         max_faults=1)
        before = _fault_counter_total()
        collector = obs.add_sink(obs.SpanCollector())
        try:
            with faults.active_plan(plan), \
                 DesignService(workers=1, pool="thread") as service:
                result = service.run(service.job_for("kmeans", "informed"),
                                     timeout=120)
        finally:
            obs.remove_sink(collector)
        assert plan.fired == 1
        assert _fault_counter_total() - before == 1
        hit = [(s.name, e) for s in collector.snapshot() for e in s.events
               if e.name == "fault.injected"]
        assert [(name, e.attrs["site"]) for name, e in hit] == \
            [("execute_unit", "exec.compiled")]
        assert _design_signature(result) == \
            _design_signature(kmeans_informed)

    def test_storm_replays_identically(self, tmp_path, monkeypatch):
        """Same seed, same code path => same fault schedule."""
        sites = ("cache.write", "exec.compiled")
        monkeypatch.setenv("REPRO_EXEC", "compiled")

        def run_once(subdir):
            # a cold profile cache, so both runs execute the program
            clear_profile_cache()
            plan = FaultPlan(seed=11, rate=0.1, sites=sites)
            with faults.active_plan(plan), \
                 DesignService(cache_dir=str(tmp_path / subdir),
                               workers=1, pool="thread") as service:
                service.run(service.job_for("kmeans", "informed"),
                            timeout=120)
            return plan.counts(), plan.fired

        counts_a, fired_a = run_once("a")
        counts_b, fired_b = run_once("b")
        # both sites were reached, so the replay is not vacuous
        assert all(counts_a.get(site, 0) > 0 for site in sites), counts_a
        assert counts_a == counts_b
        assert fired_a == fired_b


class TestCacheCorruptionChaos:
    def test_injected_corruption_self_heals(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with DesignService(cache_dir=cache_dir, workers=1,
                           pool="thread") as service:
            job = service.job_for("kmeans", "informed")
            clean = service.run(job, timeout=120)
        # a fresh service reads the entry under a read-fault plan: the
        # entry is treated as corrupt, quarantined, and the job re-runs
        plan = FaultPlan(seed=0, rate=1.0, sites=("cache.read",),
                         max_faults=1)
        with faults.active_plan(plan), \
             DesignService(cache_dir=cache_dir, workers=1,
                           pool="thread") as service:
            job = service.job_for("kmeans", "informed")
            submission = service.submit(job)
            assert submission.source == "run"     # not served corrupt
            healed = submission.result(timeout=120)
            assert service.cache.stats.corrupt == 1
            quarantined = list(service.cache.quarantined())
            assert len(quarantined) == 1
        assert _design_signature(healed) == _design_signature(clean)
        # the re-run re-cached: a third service gets a clean disk hit
        with DesignService(cache_dir=cache_dir, workers=1,
                           pool="thread") as service:
            submission = service.submit(
                service.job_for("kmeans", "informed"))
            assert submission.source == "cache-disk"

    def test_stats_cli_counts_corrupt_entries(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        cache_dir = str(tmp_path / "cache")
        with DesignService(cache_dir=cache_dir, workers=1,
                           pool="thread") as service:
            service.run(service.job_for("kmeans", "informed"), timeout=120)
        assert cli_main(["service", "stats", "--cache-dir", cache_dir]) == 0
        assert "corrupt: 0 file(s)" in capsys.readouterr().out
        plan = FaultPlan(seed=0, rate=1.0, sites=("cache.read",),
                         max_faults=1)
        with faults.active_plan(plan), \
             DesignService(cache_dir=cache_dir, workers=1,
                           pool="thread") as service:
            service.run(service.job_for("kmeans", "informed"), timeout=120)
        assert cli_main(["service", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert (f"corrupt: 1 file(s) in "
                f"{os.path.join(cache_dir, '.quarantine')}") in out


class TestEngineFaultFallback:
    SOURCE = """
        int main() {
            int acc = 0;
            for (int i = 0; i < 10; i = i + 1) { acc = acc + i; }
            return acc;
        }
    """
    RUNS = 4

    def test_faulted_compiled_runs_fall_back_to_interpreter(self):
        unit = Ast(self.SOURCE).unit
        plan = FaultPlan(seed=0, rate=1.0, sites=("exec.compiled",))
        with faults.active_plan(plan):
            # every compiled attempt faults; each run still succeeds
            # on the interpreter
            for _ in range(self.RUNS):
                report = lang_engine.execute_unit(unit, mode="compiled")
                assert repr(report.return_value) == "45"
        # no run skipped the compiled attempt
        assert plan.counts()["exec.compiled"] == self.RUNS

    def test_unit_runs_compiled_once_the_storm_passes(self):
        unit = Ast(self.SOURCE).unit
        plan = FaultPlan(seed=0, rate=1.0, sites=("exec.compiled",))
        with faults.active_plan(plan):
            for _ in range(self.RUNS):
                lang_engine.execute_unit(unit, mode="compiled")
        modes = []

        def watcher(_unit, _workload, _entry, mode):
            modes.append(mode)

        lang_engine.add_execution_observer(watcher)
        try:
            report = lang_engine.execute_unit(unit, mode="compiled")
        finally:
            lang_engine.remove_execution_observer(watcher)
        assert repr(report.return_value) == "45"
        assert modes == ["compiled"]


def _kmeans_crashes(spec, collect_obs=False):
    """Pool payload: every kmeans job hard-exits its worker (the shape
    of a segfault or an OOM kill); other apps hold their slot for a
    second first, so they are in flight on the pool each crash breaks.
    """
    if spec["app"] == "kmeans":
        os._exit(9)
    time.sleep(1.0)
    return execute_job_payload(spec, collect_obs)


@pytest.fixture
def crash_service(tmp_path, monkeypatch):
    """A 3-worker process-pool service whose kmeans payload always
    crashes (forked workers inherit the patched payload)."""
    monkeypatch.setattr(service_core, "execute_job_payload",
                        _kmeans_crashes)
    service = DesignService(cache_dir=str(tmp_path / "cache"),
                            workers=3, pool="process", crash_retries=1)
    if service.scheduler.mode != "process":
        service.close()
        pytest.skip("process pool unavailable on this host")
    yield service
    service.close(cancel_pending=True)


class TestCrashLoopChaos:
    def test_a_crash_loop_fails_one_job_and_admission_stays_open(
            self, crash_service):
        service = crash_service
        innocent = {app: service.submit(service.job_for(app, "informed"))
                    for app in ("nbody", "bezier")}
        crasher = service.submit(service.job_for("kmeans", "informed"))
        # the crasher terminates, as an ordinary failure naming its
        # crash count and budget
        with pytest.raises(JobFailed, match=r"2 times \(crash budget 1\)"):
            crasher.result(timeout=120)
        handle = crasher._pending.handle
        assert handle.status is JobStatus.FAILED
        assert handle.crashes == service.scheduler.crash_retries + 1
        # a breakage is charged only to an attempt alone on the pool,
        # so the innocent jobs in flight beside the crasher succeed
        for app, submission in innocent.items():
            assert submission.result(timeout=120).app.name == app
            again = service.submit(service.job_for(app, "informed"))
            assert again.source == "cache-memory"
        # and the service still admits new work
        fresh = service.submit(service.job_for("rush_larsen", "informed"))
        assert fresh.source == "run"
        assert fresh.result(timeout=120).app.name == "rush_larsen"
