"""Service telemetry in the one ``repro.obs`` model.

A job's record is its obs spans, the service's
``repro_service_events_total`` / ``repro_service_job_wall_seconds``
metrics, the live SSE task/branch frames of the server's
:class:`TaskFrames` observer, and a batch's :class:`BatchReport`.
"""

import json
import sys
import threading

import pytest

from repro import obs
from repro.__main__ import (
    PHASE_ROWS, _batch_json, _render_batch, phase_totals,
)
from repro.apps.registry import get_app
from repro.flow.context import FlowContext
from repro.flow.engine import FlowEngine
from repro.flow.serialize import result_to_dict
from repro.flow.task import Task, TaskKind
from repro.server.core import TaskFrames
from repro.service import BatchItem, BatchReport, DesignService, FlowJob
from repro.service.cache import CACHE_FORMAT_VERSION, entry_crc32

#: every task frame carries these; ``error`` / ``span_id`` only when set
TASK_FIELDS = {"name", "kind", "scope", "wall_s", "status", "t0"}
EVENTS = ("cache_hit_disk", "cache_hit_memory", "cache_miss", "jobs_run")


def recording():
    frames = []
    return frames, TaskFrames(lambda event, frame:
                              frames.append((event, frame)))


def service_events():
    counter = obs.REGISTRY.counter("repro_service_events_total",
                                   labelnames=("event",))
    return {event: counter.get(event=event) for event in EVENTS}


class Boom(Task):
    kind = TaskKind.ANALYSIS
    name = "Boom"
    scope = "T-INDEP"

    def run(self, ctx):
        raise ValueError("nope")


class Quiet(Task):
    kind = TaskKind.ANALYSIS
    name = "Quiet"
    scope = "T-INDEP"

    def run(self, ctx):
        pass


def _span(name, span_id, parent_id, t0, end, **attrs):
    return obs.Span(name=name, trace_id="t", span_id=span_id,
                    parent_id=parent_id, t0=t0, end=end, attrs=attrs)


class TestTaskSpan:
    def test_from_dict_accepts_pre_t0_dicts(self, tmp_path,
                                            kmeans_informed):
        """Cache entries written while each run's task-span dump was
        stored in them (``"telemetry"`` key) keep verifying and hitting."""
        job = FlowJob("kmeans", "informed")
        entry = {
            "format": CACHE_FORMAT_VERSION,
            "key": job.key(),
            "job": job.spec(),
            "result": result_to_dict(kmeans_informed,
                                     include_sources=True),
            "telemetry": {
                "spans": [{"name": "Identify Hotspot Loops", "kind": "A",
                           "scope": "T-INDEP", "wall_s": 0.01,
                           "status": "ok", "t0": 1.0}],
                "branches": [{"branch": "A", "selected": ["omp"],
                              "reasons": []}],
            },
        }
        entry["crc32"] = entry_crc32(entry)
        path = tmp_path / job.key()[:2] / f"{job.key()}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(entry))

        with DesignService(cache_dir=str(tmp_path),
                           pool="thread") as service:
            submission = service.submit(job)
            record = submission.result(0)
            assert submission.source == "cache-disk"
            assert service.cache.stats.hits == 1
            assert service.cache.stats.corrupt == 0
        assert record.selected_target == kmeans_informed.selected_target

    def test_round_trip_with_error_detail(self):
        """A failed task's frame keeps its error detail through the
        JSON encoding the SSE stream uses."""
        frames, observer = recording()
        with pytest.raises(ValueError):
            Boom()(FlowContext(get_app("kmeans"), observer=observer))
        ((_, frame),) = frames
        data = json.loads(json.dumps(frame))
        assert data == frame
        assert data["status"] == "error"
        assert data["error"] == "ValueError: nope"
        assert data["t0"] > 0

    def test_optional_fields_omitted_when_unset(self):
        frames, observer = recording()
        Quiet()(FlowContext(get_app("kmeans"), observer=observer))
        ((event, frame),) = frames
        assert event == "task" and frame["status"] == "ok"
        assert "error" not in frame
        assert ("span_id" in frame) == obs.enabled()
        assert set(frame) - {"span_id"} == TASK_FIELDS

    def test_tracer_records_error_detail(self):
        frames, observer = recording()
        ctx = FlowContext(get_app("kmeans"), observer=observer)
        with pytest.raises(ValueError):
            Boom()(ctx)
        ((event, frame),) = frames
        assert event == "task"
        assert frame["status"] == "error"
        assert frame["error"] == "ValueError: nope"
        assert frame["t0"] > 0
        assert ("span_id" in frame) == obs.enabled()


class TestTracer:
    def test_engine_hooks_emit_spans(self):
        frames, observer = recording()
        FlowEngine().run(get_app("kmeans"), mode="informed",
                         observer=observer)
        tasks = [frame for event, frame in frames if event == "task"]
        assert tasks, "no task frames emitted by the flow engine"
        names = [frame["name"] for frame in tasks]
        assert "Identify Hotspot Loops" in names
        # span_id only when a trace sink is attached; never an error field
        expected = TASK_FIELDS | ({"span_id"} if obs.enabled() else set())
        assert all(set(frame) == expected for frame in tasks)
        assert all(frame["kind"] in ("A", "T", "CG", "O")
                   for frame in tasks)
        assert all(frame["wall_s"] >= 0 for frame in tasks)
        assert all(frame["status"] == "ok" for frame in tasks)

    def test_branch_decisions_recorded(self):
        frames, observer = recording()
        FlowEngine().run(get_app("kmeans"), mode="uninformed",
                         observer=observer)
        branches = {frame["branch"]: frame["selected"]
                    for event, frame in frames if event == "branch"}
        assert set(branches["A"]) == {"gpu", "fpga", "omp"}
        assert set(branches["B"]) == {"gtx1080ti", "rtx2080ti"}
        assert set(branches["C"]) == {"arria10", "stratix10"}

    def test_by_kind_and_wall_total(self):
        """The exclusive per-phase rows of a real flow's spans add up to
        the flow's own wall time."""
        from repro.analysis.profile import clear_profile_cache

        clear_profile_cache()
        sink = obs.add_sink(obs.SpanCollector())
        try:
            FlowEngine().run(get_app("kmeans"), mode="informed")
        finally:
            obs.remove_sink(sink)
        totals = phase_totals(sink.snapshot())
        assert totals["analysis exec"] > 0
        assert totals["analysis tasks"] > 0
        assert sum(totals[row] for row in PHASE_ROWS) \
            == pytest.approx(totals["total"], rel=1e-9)


class TestFleetTelemetry:
    def _report(self):
        """Two executed jobs and a disk hit, with their task spans."""
        report = BatchReport(
            items=[BatchItem(FlowJob("kmeans", "informed"), "run",
                             wall_s=1.0),
                   BatchItem(FlowJob("nbody", "informed"), "run",
                             wall_s=0.5),
                   BatchItem(FlowJob("bezier", "informed"), "cache-disk")],
            cache_stats={"hits": 10, "misses": 2, "writes": 2,
                         "invalidated": 0})
        spans = [
            _span("service.job", "j1", None, 0.0, 1.0),
            _span("Identify Hotspot Loops", "a1", "j1", 0.0, 0.75,
                  kind="A"),
            _span("service.job", "j2", None, 1.0, 1.5),
            _span("Identify Hotspot Loops", "a2", "j2", 1.0, 1.25,
                  kind="A"),
            _span("Generate HIP", "cg", "j2", 1.25, 1.5, kind="CG"),
        ]
        return report, spans

    def test_counters_and_hits(self, tmp_path):
        before = service_events()
        job = FlowJob("kmeans", "informed")
        with DesignService(cache_dir=str(tmp_path), workers=1,
                           pool="thread") as svc:
            assert svc.submit(job).result(120) is not None
            assert svc.submit(job).source == "cache-memory"
        with DesignService(cache_dir=str(tmp_path), workers=1,
                           pool="thread") as svc:
            assert svc.submit(job).source == "cache-disk"
        delta = {k: v - before[k] for k, v in service_events().items()}
        assert delta == {"cache_hit_disk": 1, "cache_hit_memory": 1,
                         "cache_miss": 1, "jobs_run": 1}
        assert delta["cache_hit_disk"] + delta["cache_hit_memory"] == 2

    def test_aggregation_by_kind_and_source(self):
        report, spans = self._report()
        assert {source: report.count(source)
                for source in ("run", "cache-disk", "cache-memory")} \
            == {"run": 2, "cache-disk": 1, "cache-memory": 0}
        totals = phase_totals(spans)
        assert totals["analysis tasks"] == pytest.approx(1.0)
        assert totals["codegen"] == pytest.approx(0.25)
        assert totals["other"] == pytest.approx(0.25)
        assert totals["total"] == pytest.approx(1.5)

    def test_render_ascii_mentions_the_numbers(self):
        report, spans = self._report()
        text = _render_batch(report, spans)
        assert "jobs: 3 total | run 2 | cache 1" in text
        assert "10 hits / 2 misses / 2 writes" in text
        assert "analysis tasks" in text
        assert "kmeans/informed" in text.split("slowest jobs")[1]

    def test_to_dict_is_json_compatible(self):
        report, spans = self._report()
        data = json.loads(json.dumps(_batch_json(report, spans)))
        assert [(j["app"], j["source"]) for j in data["jobs"]] \
            == [("kmeans", "run"), ("nbody", "run"),
                ("bezier", "cache-disk")]
        assert data["cache"]["hits"] == 10
        assert data["phases"]["total"] == pytest.approx(1.5)

    def test_concurrent_counts_and_records_are_exact(self):
        events = obs.REGISTRY.counter("repro_service_events_total",
                                      labelnames=("event",))
        n_threads, n_ops = 8, 200
        with DesignService(workers=1, pool="thread") as svc:
            job = svc.job_for("kmeans", "informed")
            svc.run(job, timeout=120)
            before = events.get(event="cache_hit_memory")

            def hammer():
                for _ in range(n_ops):
                    assert svc.submit(job).source == "cache-memory"

            threads = [threading.Thread(target=hammer)
                       for _ in range(n_threads)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)     # force lost-update windows
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
        assert (events.get(event="cache_hit_memory") - before
                == n_threads * n_ops)
