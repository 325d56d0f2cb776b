"""A submit that finds its job succeeded carries the finished result.

The runner splices the job's kept ``/result`` bytes into the submit
answer as ``"result"``; every 2xx submit answer names the job's status
in :data:`~repro.server.protocol.JOB_STATUS_HEADER`.
"""

import json
import urllib.request

import pytest

import repro.service.core as service_core
from repro.client import ReproClient
from repro.config import ReproConfig
from repro.server.protocol import JOB_STATUS_HEADER
from repro.service.scheduler import JobFailed
from tests.server.test_http import _sse_frames, blocked_execution  # noqa: F401

SPLICE = b', "result": '


def post(url, payload):
    """Raw ``POST /v1/jobs``: ``(status, headers, body bytes)``."""
    request = urllib.request.Request(
        f"{url}/v1/jobs", data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, resp.headers, resp.read()


def result_bytes(url, job_id):
    with urllib.request.urlopen(
            f"{url}/v1/jobs/{job_id}/result", timeout=30) as resp:
        assert resp.status == 200
        return resp.read()


def inlined(body):
    """The result bytes a submit answer carries, or None."""
    at = body.find(SPLICE)
    return None if at < 0 else body[at + len(SPLICE):-1]


async def _forget(server, key):
    server._jobs.pop(key)


@pytest.mark.parametrize("branch, scale, status, source", [
    ("known", 1.43, 200, "run"),
    ("cached", 1.44, 200, "cache-memory"),
    ("fresh", 1.45, 201, "cache-memory"),
])
def test_a_done_submit_inlines_the_result_body(shared_server, monkeypatch,
                                               branch, scale, status,
                                               source):
    spec = {"app": "kmeans", "mode": "informed", "scale": scale}
    client = ReproClient(shared_server.url)
    job_id = client.submit(**spec)["id"]
    client.run_flow(**spec, timeout=120)
    server = shared_server.server
    if branch != "known":
        # a job this server never tracked, but its service holds
        shared_server.call(_forget(server, job_id))
    if branch == "fresh":
        # the lookup misses; the submit itself completes from the cache
        monkeypatch.setattr(server.service, "lookup", lambda job: None)
    got, headers, body = post(shared_server.url, spec)
    assert got == status
    assert headers[JOB_STATUS_HEADER] == "succeeded"
    record = json.loads(body)
    assert record["done"] and record["source"] == source
    result = inlined(body)
    # the same bytes a later read serves, source included
    assert result == result_bytes(shared_server.url, job_id)
    assert json.loads(result)["source"] == source
    assert result == server._jobs[job_id].body
    client.close()


def test_the_client_record_keeps_its_shape(shared_server):
    client = ReproClient(shared_server.url)
    client.run_flow("kmeans", "uninformed", timeout=120)
    record = client.submit("kmeans", "uninformed")
    assert record["done"] and "result" not in record
    assert set(record) == set(client.status(record["id"]))
    client.close()


def test_a_queued_or_running_submit_has_no_result(live_server_factory,
                                                   blocked_execution):
    started, release = blocked_execution
    live = live_server_factory(config=ReproConfig(workers=1))
    spec = {"app": "kmeans", "mode": "informed"}
    status, headers, body = post(live.url, spec)
    assert status == 201
    assert headers[JOB_STATUS_HEADER] in ("queued", "running")
    assert "result" not in json.loads(body)
    assert started.wait(10)
    status, headers, body = post(live.url, spec)
    assert status == 200 and headers[JOB_STATUS_HEADER] == "running"
    assert "result" not in json.loads(body)
    release.set()
    client = ReproClient(live.url, poll_interval_s=0.05)
    assert client.run_flow(**spec, timeout=120).app_name == "kmeans"
    client.close()


def test_a_failed_submit_has_no_result(live_server_factory, monkeypatch):
    def explode(job, engine=None, observer=None):
        raise RuntimeError("exploded")

    monkeypatch.setattr(service_core, "execute_job", explode)
    live = live_server_factory(config=ReproConfig(workers=1))
    spec = {"app": "kmeans", "mode": "informed", "retries": 0}
    client = ReproClient(live.url)
    job_id = client.submit(**spec)["id"]
    done = [data for event, data in client.events(job_id)
            if event == "done"]
    assert done and done[0]["status"] == "failed"
    status, headers, body = post(live.url, spec)
    assert status == 200 and headers[JOB_STATUS_HEADER] == "failed"
    assert "result" not in json.loads(body)
    with pytest.raises(JobFailed, match="exploded"):
        client.result(job_id)
    client.close()


def test_events_are_unchanged_by_an_inlined_submit(shared_server):
    spec = {"app": "kmeans", "mode": "informed", "scale": 1.47}
    client = ReproClient(shared_server.url)
    job_id = client.submit(**spec)["id"]
    client.run_flow(**spec, timeout=120)
    full = _sse_frames(shared_server.url, job_id)
    _, _, body = post(shared_server.url, spec)
    assert inlined(body) is not None
    assert _sse_frames(shared_server.url, job_id) == full
    assert _sse_frames(shared_server.url, job_id, full[1][0]) == full[2:]
    client.close()
