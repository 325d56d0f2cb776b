"""Integration: a live server, the real client, real sockets.

The expensive round-trip tests share one module-scoped server; the
backpressure / drain tests each get their own (they monkeypatch the
execution path and mutate server state).
"""

import json
import threading
import time
import urllib.request

import pytest

import repro.server.core as server_core
import repro.service.core as service_core
from repro.client import ReproClient
from repro.config import ReproConfig
from repro.flow.serialize import FlowResultRecord, result_to_dict
from repro.server.protocol import JobNotFound, error_from_payload
from repro.service.core import ServiceOverloaded
from repro.service.jobs import JobValidationError
from repro.service.scheduler import JobResultPending


@pytest.fixture(scope="module")
def client(shared_server):
    return ReproClient(shared_server.url, backoff_s=0.05)


# ----------------------------------------------------------------------
# Catalog / operations endpoints
# ----------------------------------------------------------------------

def test_apps_and_modes(client):
    from repro import api

    assert client.apps() == api.list_apps()
    assert client.modes() == api.list_modes()


def test_healthz(client):
    health = client.health()
    assert health["http_status"] == 200
    assert health["status"] == "ok"
    assert health["overload"]["state"] == "closed"
    assert health["server"]["draining"] is False
    assert health["scheduler"]["workers"] == 1


def test_metrics_exposition(client):
    client.apps()                      # ensure at least one request
    text = client.metrics()
    assert "repro_http_requests_total" in text
    assert "repro_server_jobs_inflight" in text


def test_unknown_route_404(client):
    status, data, _ = client._request_once("GET", "/v2/nothing")
    assert status == 404
    assert data["error"]["code"] == "not_found"


# ----------------------------------------------------------------------
# Jobs: submit -> poll -> result
# ----------------------------------------------------------------------

def test_round_trip_matches_in_process(client, kmeans_informed):
    record = client.run_flow("kmeans", "informed")
    assert isinstance(record, FlowResultRecord)
    assert result_to_dict(record) == result_to_dict(kmeans_informed)


def test_submit_dedups_on_content_hash(client):
    first_status, first, _ = client._request_once(
        "POST", "/v1/jobs", {"app": "kmeans", "scale": 1.25})
    assert first_status == 201
    again_status, again, _ = client._request_once(
        "POST", "/v1/jobs", {"app": "kmeans", "scale": 1.25})
    assert again_status == 200         # same spec, no new work
    assert again["id"] == first["id"]
    assert client.status(first["id"])["id"] == first["id"]
    assert any(j["id"] == first["id"] for j in client.jobs())


def test_cached_resubmit_reports_cache_source(client):
    client.run_flow("kmeans", "uninformed")
    record = client.submit("kmeans", "uninformed")
    assert record["done"] and record["status"] == "succeeded"


def test_invalid_job_is_400(client):
    status, data, _ = client._request_once(
        "POST", "/v1/jobs", {"app": "not-a-benchmark"})
    assert status == 400
    assert data["error"]["code"] == "invalid_job"
    with pytest.raises(JobValidationError):
        client.submit("kmeans", mode="clairvoyant")


@pytest.mark.parametrize("body", [
    {"app": "kmeans", "retries": 1.5},
    {"app": "kmeans", "retries": True},
    {"app": "kmeans", "priority": True},
    {"app": "kmeans", "scale": True},
])
def test_non_numeric_job_fields_are_400(client, body):
    # a fractional retry budget would buy an extra attempt, and a JSON
    # true hashes apart from 1.0 so identical work would miss the cache
    status, data, _ = client._request_once("POST", "/v1/jobs", body)
    assert status == 400
    with pytest.raises(JobValidationError):
        raise error_from_payload(status, data)


def test_unknown_job_is_404(client):
    with pytest.raises(JobNotFound):
        client.status("f" * 64)
    status, data, _ = client._request_once(
        "GET", f"/v1/jobs/{'f' * 64}/result")
    assert status == 404


def _result_bytes(base_url, job_id):
    with urllib.request.urlopen(
            f"{base_url}/v1/jobs/{job_id}/result", timeout=30) as resp:
        assert resp.status == 200
        return resp.read()


def _counting_result_to_dict(monkeypatch):
    calls = []
    real = server_core.result_to_dict

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(server_core, "result_to_dict", counting)
    return calls


def test_finished_result_is_encoded_once(shared_server, client,
                                         monkeypatch):
    job_id = client.submit("kmeans", "informed", scale=1.5)["id"]
    for event, _ in client.events(job_id):
        pass
    assert client.status(job_id)["done"]
    calls = _counting_result_to_dict(monkeypatch)
    first = _result_bytes(shared_server.url, job_id)
    assert len(calls) == 1
    second = _result_bytes(shared_server.url, job_id)
    assert second == first
    assert len(calls) == 1             # served from the kept bytes
    assert json.loads(first)["id"] == job_id


def test_read_before_done_publish_keeps_no_stale_body(live_server_factory,
                                                      monkeypatch):
    live = live_server_factory(config=ReproConfig(workers=1))
    server = live.server
    held = []
    publish = server._publish_threadsafe

    def hold_done(key, event, data):
        if event == "done":
            held.append((key, event, data))
        else:
            publish(key, event, data)

    monkeypatch.setattr(server, "_publish_threadsafe", hold_done)
    client = ReproClient(live.url, backoff_s=0.01)
    job_id = client.submit("kmeans", "uninformed", scale=0.5)["id"]
    deadline = time.monotonic() + 60
    while not held:                    # the job finished; loop not told
        assert time.monotonic() < deadline, "job never finished"
        time.sleep(0.02)
    state = server._jobs[job_id]
    assert not state.done
    calls = _counting_result_to_dict(monkeypatch)
    early = json.loads(_result_bytes(live.url, job_id))
    assert early["source"] == "run"
    assert state.body is None          # not final yet: nothing kept
    live.loop.call_soon_threadsafe(server._publish, *held[0])
    while not client.status(job_id)["done"]:
        assert time.monotonic() < deadline, "done never published"
        time.sleep(0.02)
    late = _result_bytes(live.url, job_id)
    assert json.loads(late) == early
    assert state.body == late
    assert _result_bytes(live.url, job_id) == late
    assert len(calls) == 2             # the early read and the first final


def test_sse_events_are_ordered(client):
    job_id = client.submit("kmeans", "informed")["id"]
    events = list(client.events(job_id))
    names = [name for name, _ in events]
    assert names[0] == "queued"
    assert names[-1] == "done"
    if "task" in names:                # fresh run: full lifecycle
        assert names.index("scheduled") < names.index("task")
        assert all(name != "done" for name in names[:-1])


# ----------------------------------------------------------------------
# Backpressure, pending results, graceful shutdown
# ----------------------------------------------------------------------

@pytest.fixture
def blocked_execution(monkeypatch):
    """execute_job blocks until released; returns (started, release)."""
    started = threading.Event()
    release = threading.Event()
    real = service_core.execute_job

    def slow(job, engine=None, observer=None):
        started.set()
        assert release.wait(60), "test never released the worker"
        return real(job, engine=engine, observer=observer)

    monkeypatch.setattr(service_core, "execute_job", slow)
    yield started, release
    release.set()                      # never leave a worker hanging


def test_pending_result_is_202(live_server_factory, blocked_execution):
    started, release = blocked_execution
    server = live_server_factory(config=ReproConfig(workers=1))
    client = ReproClient(server.url, backoff_s=0.01)
    job_id = client.submit("kmeans", "informed")["id"]
    assert started.wait(10)
    status, data, headers = client._request_once(
        "GET", f"/v1/jobs/{job_id}/result")
    assert status == 202
    assert data["error"]["code"] == "pending"
    with pytest.raises(JobResultPending):
        client.result(job_id)
    release.set()
    record = client.run_flow("kmeans", "informed")
    assert record.selected_target


def test_saturation_sheds_429_then_client_retry_wins(
        live_server_factory, blocked_execution):
    started, release = blocked_execution
    server = live_server_factory(config=ReproConfig(workers=1),
                                 max_queue=1)
    client = ReproClient(server.url, max_retries=10, backoff_s=0.05,
                         poll_interval_s=0.05)
    # one job fills the single accept-queue slot...
    client.submit("kmeans", "informed")
    assert started.wait(10)
    # ...so different work is shed with 429 busy + Retry-After
    status, data, headers = client._request_once(
        "POST", "/v1/jobs", {"app": "bezier"})
    assert status == 429
    assert data["error"]["code"] == "busy"
    retry_after = {k.lower(): v for k, v in headers.items()}["retry-after"]
    assert float(retry_after) >= 1
    # a non-retrying client sees the taxonomy exception
    with pytest.raises(ServiceOverloaded):
        ReproClient(server.url, max_retries=0).submit("bezier")
    # a retrying client wins once the slot frees up: zero lost jobs
    timer = threading.Timer(0.3, release.set)
    timer.start()
    try:
        accepted = client.submit("bezier")
    finally:
        timer.cancel()
        release.set()
    assert accepted["id"]
    assert client.run_flow("kmeans", "informed").selected_target
    assert client.run_flow("bezier", "informed").selected_target
    shed = client.metrics()
    assert 'repro_server_jobs_shed_total{reason="queue_full"}' in shed


def test_draining_sheds_new_work_but_serves_cache(live_server_factory):
    server = live_server_factory(config=ReproConfig(workers=1))
    client = ReproClient(server.url, max_retries=0)
    client.run_flow("kmeans", "informed")       # warm the server
    server.server.draining = True
    try:
        # cached spec still served...
        record = client.submit("kmeans", "informed")
        assert record["done"]
        # ...new work is refused 503 unavailable
        status, data, _ = client._request_once(
            "POST", "/v1/jobs", {"app": "bezier"})
        assert status == 503
        assert data["error"]["code"] == "unavailable"
        health = client.health()
        assert health["http_status"] == 503
        assert health["status"] == "degraded"
    finally:
        server.server.draining = False


def test_graceful_shutdown_drains_inflight(live_server_factory,
                                           blocked_execution):
    started, release = blocked_execution
    server = live_server_factory(config=ReproConfig(workers=1))
    client = ReproClient(server.url)
    job_id = client.submit("kmeans", "informed")["id"]
    assert started.wait(10)
    threading.Timer(0.3, release.set).start()
    server.stop(drain=True)            # must block until the job lands
    state = server.server._jobs[job_id]
    assert state.status == "succeeded"
    assert server.server._inflight == 0


# ----------------------------------------------------------------------
# SSE resume: Last-Event-ID replays exactly the missed frames
# ----------------------------------------------------------------------

def _sse_frames(base_url, job_id, last_event_id=None):
    """Raw SSE exchange; returns ``[(id, event), ...]``."""
    import urllib.request

    headers = {"Accept": "text/event-stream"}
    if last_event_id is not None:
        headers["Last-Event-ID"] = str(last_event_id)
    request = urllib.request.Request(
        f"{base_url}/v1/jobs/{job_id}/events", headers=headers)
    with urllib.request.urlopen(request, timeout=30) as resp:
        text = resp.read().decode("utf-8").strip()
    frames = []
    for block in text.split("\n\n") if text else ():
        fields = dict(line.split(": ", 1)
                      for line in block.splitlines() if ": " in line)
        frames.append((int(fields["id"]), fields["event"]))
    return frames


def test_sse_ids_are_monotone_and_resume_skips_seen_frames(client):
    job_id = client.submit("kmeans", "informed")["id"]
    client.run_flow("kmeans", "informed", timeout=120)
    full = _sse_frames(client.base_url, job_id)
    ids = [seq for seq, _ in full]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    assert full[-1][1] == "done"
    # resuming after the second frame replays exactly the remainder
    cursor = full[1][0]
    assert _sse_frames(client.base_url, job_id, cursor) == full[2:]
    # a cursor at the end replays nothing
    assert _sse_frames(client.base_url, job_id, full[-1][0]) == []


def test_sse_malformed_last_event_id_degrades_to_full_replay(client):
    job_id = client.submit("kmeans", "informed")["id"]
    client.run_flow("kmeans", "informed", timeout=120)
    full = _sse_frames(client.base_url, job_id)
    assert _sse_frames(client.base_url, job_id, "not-a-number") == full


def test_client_events_resume_from_cursor(client):
    job_id = client.submit("kmeans", "informed")["id"]
    client.run_flow("kmeans", "informed", timeout=120)
    full = _sse_frames(client.base_url, job_id)
    names = [name for name, _ in client.events(
        job_id, last_event_id=full[0][0])]
    assert names == [event for _, event in full[1:]]
