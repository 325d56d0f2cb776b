"""Fleet-wide trace propagation: one job, one stitched trace.

The contract under test: a job submitted through the router yields
exactly ONE trace -- root at the router, child spans from the runner
that executed it -- and that trace id survives everything the fleet
does to the job (sticky resubmission, node loss, re-routing).
"""

import importlib.util
import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import obs
from repro.client import ReproClient
from repro.config import ReproConfig
from repro.fleet.runner import RunnerHandle
from repro.obs.collect import parse_traceparent

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

_spec = importlib.util.spec_from_file_location(
    "validate_trace", REPO_ROOT / "scripts" / "validate_trace.py")
validate_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(validate_trace)


@pytest.fixture
def fleet(live_server_factory, live_router_factory):
    a = live_server_factory(config=ReproConfig(workers=1))
    b = live_server_factory(config=ReproConfig(workers=1))
    router = live_router_factory([a.url, b.url])
    client = ReproClient(router.url, backoff_s=0.05,
                         poll_interval_s=0.05)
    return a, b, router, client


def submit_raw(url, payload, headers=None):
    request = urllib.request.Request(
        url + "/v1/jobs", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode() or "{}")


# ----------------------------------------------------------------------
# The stitched trace
# ----------------------------------------------------------------------

def test_routed_job_yields_one_stitched_trace(tmp_path,
                                              live_router_factory):
    # real `python -m repro serve` children: the trace must cross an
    # actual process boundary, which in-process LiveServers cannot do
    from repro.fleet.runner import RunnerProcess

    runners = [RunnerProcess(cache_dir=str(tmp_path / f"cache-{i}"),
                             env={"REPRO_OBS_BUFFER": "2048"})
               for i in range(2)]
    try:
        for runner in runners:
            runner.wait_ready()
        router = live_router_factory([r.url for r in runners])
        client = ReproClient(router.url, backoff_s=0.1,
                             poll_interval_s=0.1)
        job_id = client.submit("kmeans", "informed", scale=1.61)["id"]
        client.run_flow("kmeans", "informed", scale=1.61, timeout=120)
        trace = client.obs_trace(job_id)
    finally:
        for runner in runners:
            runner.stop()

    placement = router.router._placements[job_id]
    assert trace["traceId"] == placement["trace"]["trace_id"]
    assert trace["jobId"] == job_id
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    names = {e["name"] for e in events}
    assert {"fleet.job", "fleet.route", "service.job"} <= names

    # exactly one trace id, one root (fleet.job, at the router)
    assert {e["args"]["trace_id"] for e in events} == \
        {trace["traceId"]}
    roots = [e for e in events if e["args"]["parent_id"] is None]
    assert [e["name"] for e in roots] == ["fleet.job"]

    # the runner's service.job span is parent-linked across the wire
    # to the router's fleet.route span, in a different process
    by_id = {e["args"]["span_id"]: e for e in events}
    service = next(e for e in events if e["name"] == "service.job")
    assert by_id[service["args"]["parent_id"]]["name"] == "fleet.route"
    assert service["pid"] != by_id[service["args"]["parent_id"]]["pid"]
    assert service["args"]["runner"] in {
        h.url for h in router.router.handles.values()}

    # the full CI gate accepts it as a stitched whole-fleet trace
    path = tmp_path / "stitched.json"
    path.write_text(json.dumps(trace))
    validate_trace.validate_trace(str(path), min_depth=3)
    validate_trace.validate_stitched(str(path))


def test_trace_read_for_unknown_job_is_404(fleet):
    _, _, _, client = fleet
    status, data, _ = client._request_once(
        "GET", f"/v1/obs/traces/{'e' * 64}")
    assert status == 404 and data["error"]["code"] == "not_found"


# ----------------------------------------------------------------------
# Propagation edge cases
# ----------------------------------------------------------------------

def test_client_traceparent_becomes_the_fleet_root_parent(
        fleet, tmp_path):
    _, _, router, client = fleet
    sink = obs.add_sink(obs.SpanCollector())
    try:
        with obs.span("cli.batch") as caller:
            job_id = client.submit("kmeans", scale=1.62)["id"]
    finally:
        obs.remove_sink(sink)
    placement = router.router._placements[job_id]
    # the router's root joined the CALLER's trace instead of minting
    assert placement["trace"]["trace_id"] == caller.trace_id


def test_malformed_traceparent_falls_back_to_a_fresh_root(fleet):
    _, _, router, _ = fleet
    status, data = submit_raw(
        router.url, {"app": "kmeans", "scale": 1.63},
        headers={"traceparent": "00-not hex at all-??-zz"})
    assert status == 201
    placement = router.router._placements[data["id"]]
    assert placement["trace"] is not None
    assert len(placement["trace"]["trace_id"]) == 16   # a minted root
    # the old JSON X-Repro-Parent header is not a trace context
    legacy = {"trace_id": "ab" * 8, "span_id": "1.1"}
    status, data = submit_raw(
        router.url, {"app": "kmeans", "scale": 1.66},
        headers={"X-Repro-Parent": json.dumps(legacy)})
    assert status == 201
    minted = router.router._placements[data["id"]]["trace"]
    assert minted is not None
    assert minted["trace_id"] != legacy["trace_id"]


def test_resubmit_dedup_attaches_to_the_original_trace(fleet):
    _, _, router, _ = fleet
    payload = {"app": "kmeans", "scale": 1.64}
    first_status, first = submit_raw(router.url, payload)
    assert first_status == 201
    original = dict(router.router._placements[first["id"]]["trace"])
    # a second submitter with its OWN live trace joins the job's
    # existing trace instead of splitting it
    again_status, again = submit_raw(
        router.url, payload,
        headers={"traceparent": f"00-{'cd' * 8}-9.9-01"})
    assert again_status == 200 and again["id"] == first["id"]
    assert router.router._placements[first["id"]]["trace"] == original


def test_node_loss_reroute_keeps_the_original_trace_id(fleet):
    import repro.service.core as service_core

    a, b, router, client = fleet
    started = threading.Event()
    release = threading.Event()
    real = service_core.execute_job

    def slow(job, engine=None, observer=None):
        started.set()
        assert release.wait(60), "test never released the worker"
        return real(job, engine=engine, observer=observer)

    # both runners are in-process (LiveServer), so one patch covers
    # whichever node the job lands on
    service_core.execute_job = slow
    try:
        job_id = client.submit("kmeans", scale=1.65)["id"]
        assert started.wait(30), "job never reached a worker"
        original = dict(router.router._placements[job_id]["trace"])
        victim = a if router.router._placements[job_id]["runner"] == a.url \
            else b
        release.set()
        victim.stop(drain=False)       # node dies mid-flight
        status, data, _ = client._request_once(
            "GET", f"/v1/jobs/{job_id}")
        assert status == 202 and "re-routed" in data["error"]["message"]
        # the resubmission rides the ORIGINAL trace: one job, one trace
        assert router.router._placements[job_id]["trace"] == original
        record = client.run_flow("kmeans", scale=1.65, timeout=120)
        assert record.app_name == "kmeans"
    finally:
        service_core.execute_job = real
        release.set()

    # after collection, the re-routed run's spans join the same trace
    router.probe_now()
    spans = router.router.trace_store.spans(original["trace_id"])
    rerouted = [s for s in spans if s["name"] == "fleet.route"
                and s["attrs"].get("rerouted") == "node_loss"]
    assert rerouted, "re-routed forward span missing from the trace"


# ----------------------------------------------------------------------
# Clock alignment
# ----------------------------------------------------------------------

def test_probe_measures_a_skewed_runner_clock():
    handle = RunnerHandle("http://fake:1")
    skew = 120.0                        # runner clock 2 minutes ahead

    def fake_request(method, path, payload=None, headers=None,
                     timeout_s=None):
        return 200, {"status": "ok", "version": None,
                     "now": obs.now() + skew}, {}

    handle.request = fake_request
    handle.probe()
    assert handle.state == "healthy"
    # offset maps runner time back onto the local clock
    assert handle.clock_offset_s == pytest.approx(-skew, abs=0.05)
    assert handle.snapshot()["clock_offset_s"] == pytest.approx(
        -skew, abs=0.05)


def test_a_late_probe_answer_does_not_move_the_clock_offset():
    handle = RunnerHandle("http://fake:1")
    handle._sample_clock(100.0, 100.002, 100.001)    # 2 ms round trip
    assert handle.clock_offset_s == pytest.approx(0.0)
    # a busy runner sampled its clock 35 ms past the midpoint
    handle._sample_clock(101.0, 101.080, 101.075)
    assert handle.clock_offset_s == pytest.approx(0.0)
    # both samples age out of the window; the newest one stands
    handle._sample_clock(170.0, 170.050, 170.020)
    assert handle.clock_offset_s == pytest.approx(0.005)


def test_skewed_spans_stitch_monotonically_after_alignment(tmp_path):
    """Regression: without the offset, a child on a fast clock starts
    'before' its parent and the stitched validator rejects the file."""
    from repro.obs.collect import TraceStore
    from repro.obs.span import Span, new_trace_id

    skew = 300.0                       # runner clock 5 minutes BEHIND
    trace_id = new_trace_id()
    parent = Span("fleet.route", trace_id, "1.1", None, t0=1000.0,
                  end=1002.0)
    # the child really started at 1000.5 router-time, but the runner's
    # clock recorded it 300s earlier
    child = Span("service.job", trace_id, "2.1", "1.1",
                 t0=1000.5 - skew, end=1001.5 - skew)
    child.pid = parent.pid + 1
    store = TraceStore()
    store.ingest([parent.to_dict()], offset_s=0.0, runner="router")
    store.ingest([child.to_dict()], offset_s=skew, runner="http://n1")
    trace = obs.chrome_trace(store.spans(trace_id))
    path = tmp_path / "aligned.json"
    path.write_text(json.dumps(trace))
    validate_trace.validate_stitched(str(path))

    # and the negative: ingesting WITHOUT the offset must fail the gate
    broken = TraceStore()
    broken.ingest([parent.to_dict()], offset_s=0.0)
    broken.ingest([child.to_dict()], offset_s=0.0)
    bad_path = tmp_path / "skewed.json"
    bad_path.write_text(json.dumps(obs.chrome_trace(
        broken.spans(trace_id))))
    with pytest.raises(SystemExit):
        validate_trace.validate_stitched(str(bad_path))
