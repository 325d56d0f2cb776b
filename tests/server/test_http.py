"""Integration: a live server, the real client, real sockets.

The expensive round-trip tests share one module-scoped server; the
backpressure / drain tests each get their own (they monkeypatch the
execution path and mutate server state).
"""

import asyncio
import json
import re
import socket
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


# ----------------------------------------------------------------------
# Keep-alive connections and request framing
# ----------------------------------------------------------------------

def _raw_exchange(url, request, timeout=10.0):
    """Send raw request bytes; return ``(head, body, closed)``: the
    response head as text, its body, and whether the server closed
    the connection after it."""
    host, port = url.rsplit("/", 1)[-1].split(":")
    with socket.create_connection((host, int(port)), timeout) as sock:
        sock.sendall(request)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            assert chunk, f"closed before a response head: {data!r}"
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"(?i)content-length: *(\d+)",
                               head).group(1))
        while len(body) < length:
            body += sock.recv(65536)
        sock.settimeout(1.0)
        try:
            closed = sock.recv(1) == b""
        except socket.timeout:
            closed = False
        return head.decode("latin-1"), body, closed


def test_one_client_reuses_one_connection(live_server_factory, accepted):
    server = live_server_factory(config=ReproConfig(workers=1))
    client = ReproClient(server.url)
    for _ in range(5):
        client.apps()
    client.health()
    client.metrics()
    client.submit("kmeans", "informed", scale=1.31)
    assert len(accepted) == 1
    client.close()


@pytest.mark.parametrize("length", ["-5", "abc"])
def test_bad_content_length_is_400_and_closes(shared_server, length):
    head, body, closed = _raw_exchange(
        shared_server.url,
        f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {length}"
        f"\r\n\r\n{{}}".encode())
    assert head.startswith("HTTP/1.1 400 ")
    assert json.loads(body)["error"]["code"] == "bad_request"
    assert "Connection: close" in head and closed


def test_transfer_encoding_is_refused_and_closes(shared_server):
    head, body, closed = _raw_exchange(
        shared_server.url,
        b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\nGET /v1/apps HTTP/1.1\r\n\r\n")
    assert head.startswith("HTTP/1.1 400 ")
    assert json.loads(body)["error"]["code"] == "bad_request"
    assert "Connection: close" in head and closed


def test_connection_close_is_honoured(shared_server):
    head, _, closed = _raw_exchange(
        shared_server.url,
        b"GET /v1/modes HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
    assert head.startswith("HTTP/1.1 200 ")
    assert "Connection: close" in head and closed
    head, _, closed = _raw_exchange(
        shared_server.url, b"GET /v1/modes HTTP/1.1\r\nHost: x\r\n\r\n")
    assert "Connection: keep-alive" in head and not closed


def test_sse_stream_closes_after_done(client):
    job_id = client.submit("kmeans", "informed")["id"]
    client.run_flow("kmeans", "informed", timeout=120)
    host, port = client.base_url.rsplit("/", 1)[-1].split(":")
    with socket.create_connection((host, int(port)), 10) as sock:
        # HTTP/1.1 with no Connection header asks for keep-alive
        sock.sendall(f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                     f"Host: x\r\n\r\n".encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    assert b"Connection: close" in data
    assert data.rstrip().split(b"\n\n")[-1].split(b"\n")[1] == \
        b"event: done"


def test_idle_time_is_not_request_time(live_server_factory, accepted):
    live = live_server_factory(config=ReproConfig(workers=1))
    latency = live.server._m_latency
    before = (latency.count(route="modes"), latency.sum(route="modes"))
    with ReproClient(live.url) as client:
        client.modes()
        time.sleep(0.5)
        client.modes()
    assert len(accepted) == 1          # both rode one connection
    deadline = time.monotonic() + 10   # observed just after the answer
    while latency.count(route="modes") - before[0] < 2:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert latency.sum(route="modes") - before[1] < 0.25


def test_shutdown_closes_idle_connections_and_leaves_no_task(
        live_server_factory):
    live = live_server_factory(config=ReproConfig(workers=1))
    with ReproClient(live.url) as client:
        client.apps()                  # one idle kept-alive connection
        assert len(live.server._conn_tasks) == 1

        async def shut_down():
            await live.server.shutdown()
            return [t for t in asyncio.all_tasks()
                    if t is not asyncio.current_task()]

        assert live.call(shut_down()) == []
        assert not live.server._conn_tasks
