"""Live SSE task/branch frames: the server's per-job flow observer."""

import pytest

from repro import obs
from repro.apps.registry import get_app
from repro.client import ReproClient
from repro.flow.context import FlowContext
from repro.flow.task import Task, TaskKind
from repro.server.core import TaskFrames
from repro.service import DesignService, FlowJob

#: every task frame carries these; ``error`` / ``span_id`` only when set
TASK_FIELDS = {"name", "kind", "scope", "wall_s", "status", "t0"}


def recording():
    frames = []
    return frames, TaskFrames(lambda event, frame:
                              frames.append((event, frame)))


def test_fresh_run_streams_task_frames_with_the_sse_fields(
        live_server_factory):
    server = live_server_factory()
    client = ReproClient(server.url, backoff_s=0.05)
    job_id = client.submit("kmeans", "informed")["id"]
    events = list(client.events(job_id, timeout=120))
    tasks = [data for name, data in events if name == "task"]
    assert tasks, [name for name, _ in events]
    for frame in tasks:
        assert set(frame) - {"span_id"} == TASK_FIELDS, frame
        assert frame["kind"] in ("A", "T", "CG", "O")
        assert frame["status"] == "ok" and frame["wall_s"] >= 0
    branches = [data for name, data in events if name == "branch"]
    assert branches
    assert all(set(frame) == {"branch", "selected", "reasons"}
               for frame in branches)


class Boom(Task):
    kind = TaskKind.ANALYSIS
    name = "Boom"
    scope = "T-INDEP"

    def run(self, ctx):
        raise ValueError("nope")


def test_frame_links_the_task_obs_span_when_tracing():
    frames, observer = recording()
    sink = obs.add_sink(obs.SpanCollector())
    try:
        ctx = FlowContext(get_app("kmeans"), observer=observer)
        with pytest.raises(ValueError):
            Boom()(ctx)
    finally:
        obs.remove_sink(sink)
    ((_, frame),) = frames
    (span,) = [s for s in sink.snapshot() if s.name == "Boom"]
    assert frame["span_id"] == span.span_id


def test_raising_publish_callback_never_disturbs_the_job():
    calls = []

    def publish(event, frame):
        calls.append(event)
        raise RuntimeError("subscriber went away")

    with DesignService(workers=1, pool="thread") as svc:
        svc.set_tracer_factory(lambda job, key: TaskFrames(publish))
        result = svc.run(FlowJob("kmeans", "informed"), timeout=120)
    assert "task" in calls and "branch" in calls
    assert result.selected_target == "omp"
