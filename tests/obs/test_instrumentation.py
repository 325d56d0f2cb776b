"""End-to-end observability: flows, engines, caches, service, CLI.

These tests exercise the real instrumented stack -- a flow run under a
collector sink must produce one nested trace, the service's metrics
must count its lookups and runs, and the ``run --time`` breakdown must
attribute each span's exclusive time once.
"""

import threading

import pytest

import repro.lang.engine as eng
from repro import obs
from repro.apps.registry import get_app
from repro.flow.engine import FlowEngine
from repro.meta.ast_api import Ast
from repro.service.core import DesignService

TINY = "double main() { return 1.0 + 2.0; }"


def _exec_counts():
    c = obs.REGISTRY.counter("repro_exec_total",
                             labelnames=("mode",))
    return {mode: c.get(mode=mode)
            for mode in ("compiled", "interp", "interp-fallback")}


class TestFlowTrace:
    @pytest.fixture(scope="class")
    def flow_spans(self):
        from repro.analysis.profile import clear_profile_cache

        # cold cache, so the trace includes real execute_unit spans
        # even when earlier tests already profiled kmeans
        clear_profile_cache()
        sink = obs.add_sink(obs.SpanCollector())
        try:
            FlowEngine().run(get_app("kmeans"), mode="informed")
        finally:
            obs.remove_sink(sink)
        return sink.snapshot()

    def test_one_trace_rooted_at_the_flow(self, flow_spans):
        assert len({s.trace_id for s in flow_spans}) == 1
        roots = [s for s in flow_spans if s.parent_id is None]
        assert [r.name for r in roots] == ["flow kmeans/informed"]

    def test_phase_spans_nest_at_least_three_levels(self, flow_spans):
        names = {s.name for s in flow_spans}
        assert {"parse", "profile.collect", "execute_unit"} <= names
        assert obs.span_depth(flow_spans) >= 3

    def test_task_spans_carry_kind_attrs(self, flow_spans):
        kinds = {s.attrs["kind"] for s in flow_spans
                 if "kind" in s.attrs}
        assert {"A", "T", "O"} <= kinds

    def test_branch_decision_event_recorded(self, flow_spans):
        events = [ev for s in flow_spans for ev in s.events
                  if ev.name == "psa.branch"]
        assert any(ev.attrs["branch"] == "A" for ev in events)

    def test_dse_points_recorded(self, flow_spans):
        points = [ev for s in flow_spans for ev in s.events
                  if ev.name == "dse.point"]
        assert any(ev.attrs["dse"] == "omp-threads" for ev in points)


class TestEngineMetrics:
    def test_execution_mode_counted(self):
        before = _exec_counts()
        Ast(TINY).execute()
        after = _exec_counts()
        mode = eng.execution_mode()
        assert after[mode] == before[mode] + 1

    def test_profile_cache_tiers_counted(self):
        tiers = obs.REGISTRY.counter("repro_profile_cache_total",
                                     labelnames=("tier",))
        from repro.analysis.profile import collect_profile
        from repro.lang.interpreter import Workload

        unit = Ast("double main() { return 40.0 + 2.0; }").unit
        workload = Workload()
        before_miss = tiers.get(tier="miss")
        before_mem = tiers.get(tier="memory")
        collect_profile(unit, workload, "main")
        collect_profile(unit, workload, "main")
        assert tiers.get(tier="miss") == before_miss + 1
        assert tiers.get(tier="memory") == before_mem + 1

    def test_execute_unit_span_separates_compile_time(self):
        app = get_app("kmeans")
        sink = obs.add_sink(obs.SpanCollector())
        try:
            eng.execute_unit(Ast(app.source).unit, app.workload_factory(),
                             mode="compiled")
        finally:
            obs.remove_sink(sink)
        [span] = [s for s in sink.snapshot() if s.name == "execute_unit"]
        assert span.attrs["mode"] == "compiled"
        assert 0 < span.attrs["compile_ms"] < span.wall_s * 1e3


class TestEngineObservers:
    def test_add_is_idempotent(self):
        seen = []

        def watcher(unit, workload, entry, mode):
            seen.append(entry)

        eng.add_execution_observer(watcher)
        eng.add_execution_observer(watcher)
        try:
            Ast(TINY).execute()
        finally:
            eng.remove_execution_observer(watcher)
        assert seen == ["main"], "observer fired more than once"

    def test_remove_unknown_is_tolerated(self):
        eng.remove_execution_observer(lambda *a: None)

    def test_concurrent_registration(self):
        def watcher_for(i):
            def watcher(unit, workload, entry, mode):
                pass
            return watcher

        watchers = [watcher_for(i) for i in range(16)]
        errors = []

        def churn(w):
            try:
                for _ in range(50):
                    eng.add_execution_observer(w)
                    eng.remove_execution_observer(w)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(w,))
                   for w in watchers]
        for t in threads:
            t.start()
        Ast(TINY).execute()   # notify while the registry is churning
        for t in threads:
            t.join()
        assert not errors
        for w in watchers:
            assert w not in eng._observers


class TestServiceTrace:
    def test_thread_pool_job_is_one_nested_trace(self):
        sink = obs.add_sink(obs.SpanCollector())
        try:
            with DesignService(workers=2, pool="thread") as svc:
                svc.run(svc.job_for("kmeans", "informed"), timeout=120)
        finally:
            obs.remove_sink(sink)
        spans = sink.snapshot()
        roots = [s for s in spans if s.parent_id is None]
        assert [r.name for r in roots] == ["service.job"]
        assert len({s.trace_id for s in spans}) == 1
        assert obs.span_depth(spans) >= 4

    def test_metrics_agree_with_fleet_telemetry(self):
        """The service's event counter and its per-source job-wall
        histogram agree on one run and one memory hit."""
        events = obs.REGISTRY.counter("repro_service_events_total",
                                      labelnames=("event",))
        walls = obs.REGISTRY.histogram("repro_service_job_wall_seconds",
                                       labelnames=("source",))
        before = {k: events.get(event=k)
                  for k in ("jobs_run", "cache_hit_memory")}
        before_walls = {k: walls.count(source=k)
                        for k in ("run", "cache-memory")}
        with DesignService(workers=1, pool="thread") as svc:
            job = svc.job_for("kmeans", "informed")
            assert svc.submit(job).result(120) is not None
            assert svc.submit(job).source == "cache-memory"
        assert events.get(event="jobs_run") - before["jobs_run"] == 1
        assert (events.get(event="cache_hit_memory")
                - before["cache_hit_memory"] == 1)
        assert walls.count(source="run") - before_walls["run"] == 1
        assert (walls.count(source="cache-memory")
                - before_walls["cache-memory"] == 1)

    def test_scheduler_counters_feed_registry(self):
        attempts = obs.REGISTRY.counter("repro_scheduler_attempts_total",
                                        labelnames=("outcome",))
        waits = obs.REGISTRY.histogram("repro_scheduler_queue_wait_seconds")
        before_ok = attempts.get(outcome="ok")
        before_n = waits.count()
        with DesignService(workers=1, pool="thread") as svc:
            svc.run(svc.job_for("kmeans", "informed"), timeout=120)
        assert attempts.get(outcome="ok") == before_ok + 1
        assert waits.count() == before_n + 1


class TestProcessBoundary:
    def test_payload_round_trip_preserves_links(self):
        """Worker-side span forest survives dict serialization and is
        re-homed intact under the submitter's span."""
        from repro.service.jobs import FlowJob, execute_job_payload

        payload = execute_job_payload(
            FlowJob(app="kmeans", mode="informed").spec(),
            collect_obs=True)
        dicts = payload["obs_spans"]
        assert dicts and all(isinstance(d, dict) for d in dicts)

        sink = obs.add_sink(obs.SpanCollector())
        try:
            ctx = {"trace_id": "c0ffee00c0ffee00", "span_id": "77.1"}
            adopted = obs.adopt_spans(dicts, ctx)
        finally:
            obs.remove_sink(sink)
        roots = [s for s in adopted if s.parent_id == "77.1"]
        assert [r.name for r in roots] == ["service.job"]
        assert all(s.trace_id == "c0ffee00c0ffee00" for s in adopted)
        ids = {s.span_id for s in adopted}
        non_roots = [s for s in adopted if s.parent_id != "77.1"]
        assert non_roots and all(s.parent_id in ids for s in non_roots)
        assert obs.span_depth(adopted) >= 3
        assert len(sink) == len(adopted)   # re-emitted to active sinks

    def test_process_pool_spans_adopted_into_submitter_trace(self):
        sink = obs.add_sink(obs.SpanCollector())
        try:
            with obs.span("submitter") as parent:
                with DesignService(workers=1, pool="process") as svc:
                    if svc.scheduler.mode != "process":
                        pytest.skip("no process pool on this platform")
                    svc.run(svc.job_for("kmeans", "informed"),
                            timeout=300)
        finally:
            obs.remove_sink(sink)
        spans = sink.snapshot()
        assert len({s.trace_id for s in spans}) == 1
        jobs = [s for s in spans if s.name == "service.job"]
        assert jobs and jobs[0].parent_id == parent.span_id
        import os

        assert any(s.pid != os.getpid() for s in spans), \
            "expected spans produced by the worker process"


class TestCliRegression:
    def test_run_time_keeps_execution_observers_firing(self, capsys):
        """Regression: the old ``--time`` monkey-patched
        ``execute_unit``, silently detaching execution observers.  The
        span-based breakdown must leave the observer chain intact."""
        from repro.__main__ import main
        from repro.analysis.profile import clear_profile_cache

        seen = []

        def watcher(unit, workload, entry, mode):
            seen.append(mode)

        # a warm profile cache (earlier tests ran kmeans) would satisfy
        # the analyses without executing; the regression needs real runs
        clear_profile_cache()
        eng.add_execution_observer(watcher)
        try:
            rc = main(["run", "kmeans", "--time"])
        finally:
            eng.remove_execution_observer(watcher)
        out = capsys.readouterr().out
        assert rc == 0
        assert "phase breakdown (wall):" in out
        assert "program runs" in out
        assert seen, "execution observers stopped firing under --time"

    def test_run_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        rc = main(["run", "kmeans", "--trace-out", str(trace),
                   "--metrics-out", str(metrics)])
        assert rc == 0
        data = json.loads(trace.read_text())
        assert data["traceEvents"]
        assert "repro_exec_total" in metrics.read_text()


def _span(name, span_id, parent_id, t0, end, **attrs):
    return obs.Span(name=name, trace_id="t", span_id=span_id,
                    parent_id=parent_id, t0=t0, end=end, attrs=attrs)


class TestPhaseBreakdown:
    """``run --time`` rows are exclusive: nested work counts once."""

    def test_exclusive_rows_on_a_synthetic_tree(self):
        from repro.__main__ import phase_totals

        spans = [
            _span("flow app/informed", "root", None, 0.0, 10.0),
            _span("parse", "p", "root", 0.0, 0.5, phase="parse"),
            # an A task running the program, then parsing inside it
            _span("Identify Hotspot Loops", "a", "root", 0.5, 4.0,
                  kind="A"),
            _span("execute_unit", "x1", "a", 1.0, 3.0),
            _span("parse", "p2", "a", 3.0, 3.5, phase="parse"),
            # a T task that also executes the program
            _span("Remove Array Dependencies", "t", "root", 4.0, 7.0,
                  kind="T"),
            _span("execute_unit", "x2", "t", 5.0, 6.0),
            # a DSE task whose unclassified sweep holds two overlapping
            # program runs: the sweep's own time is wall - union
            _span("GPU Blocksize DSE", "o", "root", 7.0, 9.5, kind="O"),
            _span("dse.sweep", "s", "o", 7.0, 9.0),
            _span("execute_unit", "x3", "s", 7.5, 8.5),
            _span("execute_unit", "x4", "s", 8.0, 9.0),
            _span("Generate HIP", "cg", "root", 9.5, 9.75, kind="CG"),
        ]
        totals = phase_totals(spans)
        assert totals == pytest.approx({
            "parse": 1.0,                  # 0.5 top-level + 0.5 in A
            "analysis exec": 5.0,          # 2 + 1 + 1 + 1
            "analysis tasks": 1.0,         # 3.5 - 2 exec - 0.5 parse
            "transforms": 2.0,             # 3 - 1 exec
            "DSE": 1.0,                    # task 0.5 + sweep 2 - 1.5
            "codegen": 0.25,
            "other": 0.25,                 # root time under no task
            "total": 10.0,
        })
