"""ReproClient retry/backoff behavior (scripted, no sockets), and its
kept-alive connections against a live server."""

import http.client
import random
import time
import urllib.error

import pytest

import repro.server.http as server_http
from repro import api
from repro.client import ReproClient
from repro.config import ReproConfig
from repro.resilience.faults import active_plan
from repro.server.protocol import JobNotFound
from repro.service.core import ServiceOverloaded
from repro.service.jobs import JobValidationError
from repro.service.scheduler import (JobQuarantined, JobResultPending,
                                     JobTimeout)
from tests.resilience.test_wire_faults import forced


class ScriptedClient(ReproClient):
    """Plays back a scripted list of (status, payload, headers)."""

    def __init__(self, responses, **kwargs):
        kwargs.setdefault("backoff_s", 0.5)
        kwargs.setdefault("jitter", 0.0)   # deterministic sleeps here
        super().__init__("http://scripted.invalid", **kwargs)
        self.responses = list(responses)
        self.requests = []
        self.sleeps = []
        self._sleep = self.sleeps.append

    def _request_once(self, method, path, payload=None):
        self.requests.append((method, path, payload))
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def _overloaded(retry_after, header=True):
    headers = {"Retry-After": str(retry_after)} if header else {}
    return (429, {"error": {"code": "overloaded", "message": "shed",
                            "retry_after_s": retry_after}}, headers)


def test_retry_honors_retry_after_header():
    client = ScriptedClient([
        _overloaded(3.5),
        _overloaded(0.25),
        (200, {"id": "abc"}, {}),
    ])
    assert client.submit("kmeans")["id"] == "abc"
    assert client.sleeps == [3.5, 0.25]
    assert len(client.requests) == 3


def test_retry_falls_back_to_exponential_backoff():
    client = ScriptedClient([
        (429, {"error": {"code": "busy", "message": "full"}}, {}),
        (429, {"error": {"code": "busy", "message": "full"}}, {}),
        (201, {"id": "abc"}, {}),
    ], backoff_s=0.1)
    client.submit("kmeans")
    assert client.sleeps == [0.1, 0.2]      # 0.1 * 2**attempt


def test_retries_exhausted_raises_taxonomy_error():
    client = ScriptedClient([_overloaded(1.0)] * 3, max_retries=2)
    with pytest.raises(ServiceOverloaded) as excinfo:
        client.submit("kmeans")
    assert excinfo.value.retry_after_s == 1.0
    assert len(client.requests) == 3        # initial + 2 retries


def test_terminal_errors_are_not_retried():
    client = ScriptedClient([
        (503, {"error": {"code": "quarantined", "message": "dead",
                         "key": "k", "crashes": 3}}, {}),
    ])
    with pytest.raises(JobQuarantined):
        client.result("k")
    assert client.sleeps == []              # no retry on terminal errors


def test_connection_errors_are_retried():
    client = ScriptedClient([
        urllib.error.URLError("refused"),
        (200, {"apps": []}, {}),
    ], backoff_s=0.05)
    assert client.apps() == []
    assert client.sleeps == [0.05]


def test_dropped_connection_is_retried_on_the_next_endpoint():
    # the server died between accepting the request and answering it
    client = ScriptedClient([
        http.client.RemoteDisconnected("closed without response"),
        (201, {"id": "abc"}, {}),
    ], backoff_s=0.05)
    client.endpoints = ["http://primary.invalid", "http://standby.invalid"]
    assert client.submit("kmeans")["id"] == "abc"
    assert client.sleeps == [0.05]
    assert client.base_url == "http://standby.invalid"


def test_run_flow_polls_through_pending():
    pending = (202, {"error": {"code": "pending", "message": "running",
                               "key": "k", "status": "running",
                               "attempts": 1, "retry_after_s": 1.0}}, {})
    done = (200, {"app": "kmeans", "mode": "informed",
                  "reference_time_s": 1.0, "designs": [],
                  "selected_target": None}, {})
    client = ScriptedClient([
        (201, {"id": "k"}, {}),             # submit
        pending, pending, done,             # poll, poll, result
    ], poll_interval_s=0.125)
    record = client.run_flow("kmeans")
    assert record.app_name == "kmeans"
    assert client.sleeps == [0.125, 0.125]


def _not_found():
    return (404, {"error": {"code": "not_found",
                            "message": "no job 'k' routed by this fleet"}},
            {})


def test_run_flow_resubmits_a_job_the_fleet_forgot():
    done = (200, {"app": "kmeans", "mode": "informed",
                  "reference_time_s": 1.0, "designs": []}, {})
    client = ScriptedClient([
        (201, {"id": "k"}, {}),             # submit: accepted
        _not_found(),                       # ... then forgotten
        (201, {"id": "k"}, {}),             # the same spec again
        done,
    ])
    record = client.run_flow("kmeans", scale=2.0)
    assert record.app_name == "kmeans"
    payload = {"app": "kmeans", "mode": "informed", "scale": 2.0}
    assert client.requests == [
        ("POST", "/v1/jobs", payload), ("GET", "/v1/jobs/k/result", None),
        ("POST", "/v1/jobs", payload), ("GET", "/v1/jobs/k/result", None)]


def _inlined(job_id, scale):
    """A submit answer that carries the job's finished result."""
    return (200, {"id": job_id, "done": True, "status": "succeeded",
                  "result": {"app": "kmeans", "mode": "informed",
                             "reference_time_s": scale}}, {})


def test_a_kept_result_is_consumed_once():
    client = ScriptedClient([
        _inlined("k", 1.0),
        (200, {"app": "kmeans", "mode": "informed",
               "reference_time_s": 2.0}, {}),
    ])
    record = client.submit("kmeans")
    assert "result" not in record and record["done"]
    assert client.result("k").reference_time_s == 1.0
    assert client.requests == [
        ("POST", "/v1/jobs", {"app": "kmeans", "mode": "informed"})]
    # consumed: the next read of the same id is a GET
    assert client.result("k").reference_time_s == 2.0
    assert client.requests[-1] == ("GET", "/v1/jobs/k/result", None)


def test_a_kept_result_serves_only_its_own_id():
    client = ScriptedClient([
        _inlined("k", 1.0),
        (200, {"app": "kmeans", "mode": "informed",
               "reference_time_s": 2.0}, {}),
    ])
    client.submit("kmeans")
    assert client.result("other").reference_time_s == 2.0
    assert client.requests[-1] == ("GET", "/v1/jobs/other/result", None)
    assert client.result("k").reference_time_s == 1.0
    assert len(client.requests) == 2


def test_run_flow_on_a_done_job_is_one_request():
    client = ScriptedClient([_inlined("k", 1.0)])
    assert client.run_flow("kmeans").reference_time_s == 1.0
    assert [m for m, _, _ in client.requests] == ["POST"]


def test_a_kept_result_never_outlives_a_resubmit():
    done = (200, {"app": "kmeans", "mode": "informed",
                  "reference_time_s": 3.0}, {})
    client = ScriptedClient([
        _inlined("k", 1.0),                 # kept, never read
        (201, {"id": "k"}, {}),             # run_flow: the fleet forgot
        _not_found(),                       # ... the job
        (201, {"id": "k"}, {}),             # the resubmit
        done,
    ])
    client.submit("kmeans")
    record = client.run_flow("kmeans")
    assert record.reference_time_s == 3.0   # the server's, not the kept
    assert [m for m, _, _ in client.requests] == [
        "POST", "POST", "GET", "POST", "GET"]


def test_a_failed_submit_clears_the_kept_result():
    client = ScriptedClient([
        _inlined("k", 1.0),
        (400, {"error": {"code": "invalid_job", "message": "bad"}}, {}),
        (200, {"app": "kmeans", "mode": "informed",
               "reference_time_s": 2.0}, {}),
    ])
    client.submit("kmeans")
    with pytest.raises(JobValidationError):
        client.submit("kmeans", scale=-1.0)
    assert client.result("k").reference_time_s == 2.0


def test_run_flow_resubmits_count_against_max_retries():
    client = ScriptedClient([(201, {"id": "k"}, {}), _not_found(),
                             (201, {"id": "k"}, {}), _not_found(),
                             (201, {"id": "k"}, {}), _not_found()],
                            max_retries=2)
    with pytest.raises(JobNotFound):
        client.run_flow("kmeans")
    assert [m for m, _, _ in client.requests].count("POST") == 3
    assert client.responses == []


def test_result_alone_does_not_resubmit():
    client = ScriptedClient([_not_found()])
    with pytest.raises(JobNotFound):
        client.result("k")
    assert len(client.requests) == 1


def test_run_flow_timeout_reraises_pending():
    pending = (202, {"error": {"code": "pending", "message": "running",
                               "key": "k"}}, {})
    client = ScriptedClient([(201, {"id": "k"}, {}), pending])
    with pytest.raises(JobResultPending):
        client.run_flow("kmeans", timeout=0.0)


# ----------------------------------------------------------------------
# Backoff jitter and the total retry wall-time budget
# ----------------------------------------------------------------------

def test_jitter_spreads_retry_delays():
    client = ScriptedClient([_overloaded(2.0), _overloaded(2.0),
                             (200, {"id": "abc"}, {})],
                            jitter=0.5, rng=random.Random(7))
    client.submit("kmeans")
    assert len(client.sleeps) == 2
    for delay in client.sleeps:
        assert 1.0 <= delay <= 3.0     # 2.0 * [1-j, 1+j]
    # seeded rng: the two draws differ (herd desynchronization)
    assert client.sleeps[0] != client.sleeps[1]


def test_jitter_zero_is_exact_and_bounds_are_validated():
    client = ScriptedClient([_overloaded(1.5), (200, {"id": "x"}, {})])
    client.submit("kmeans")
    assert client.sleeps == [1.5]
    with pytest.raises(ValueError):
        ReproClient("http://x.invalid", jitter=1.0)
    with pytest.raises(ValueError):
        ReproClient("http://x.invalid", jitter=-0.1)
    with pytest.raises(ValueError):
        ReproClient("http://x.invalid", max_wait_s=0)


def test_max_wait_caps_retryable_errors():
    # server keeps asking for 10s waits; a 1s budget refuses to sleep
    client = ScriptedClient([_overloaded(10.0)] * 5,
                            max_wait_s=1.0, max_retries=10)
    with pytest.raises(JobTimeout) as excinfo:
        client.submit("kmeans")
    assert "max_wait_s=1.0" in str(excinfo.value)
    assert client.sleeps == []          # refused before sleeping
    assert len(client.requests) == 1


def test_max_wait_caps_connection_retries():
    client = ScriptedClient([urllib.error.URLError("refused")] * 5,
                            backoff_s=10.0, max_wait_s=1.0,
                            max_retries=10)
    with pytest.raises(JobTimeout):
        client.apps()
    assert client.sleeps == []


def test_max_wait_caps_run_flow_polling():
    pending = (202, {"error": {"code": "pending", "message": "running",
                               "key": "k", "status": "running",
                               "attempts": 1}}, {})
    client = ScriptedClient([(201, {"id": "k"}, {})] + [pending] * 50,
                            poll_interval_s=30.0, max_wait_s=0.5)
    with pytest.raises(JobTimeout):
        client.run_flow("kmeans")
    # an explicit timeout= still reports pending, not the budget
    client = ScriptedClient([(201, {"id": "k"}, {}), pending],
                            max_wait_s=0.5)
    with pytest.raises(JobResultPending):
        client.run_flow("kmeans", timeout=0.0)


def test_budget_timeout_reports_where_the_job_was():
    pending = (202, {"error": {"code": "pending", "message": "running",
                               "key": "k", "status": "running",
                               "attempts": 3}}, {})
    client = ScriptedClient([(201, {"id": "k"}, {})] + [pending] * 50,
                            poll_interval_s=30.0, max_wait_s=0.5)
    with pytest.raises(JobTimeout) as excinfo:
        client.run_flow("kmeans")
    # the timeout carries the job's last observed telemetry, so the
    # message says where the job was when the client gave up
    assert excinfo.value.status == "running"
    assert excinfo.value.attempts == 3
    assert "last observed status=running" in str(excinfo.value)


# ----------------------------------------------------------------------
# Kept-alive connections against a live server
# ----------------------------------------------------------------------

def test_a_connection_the_server_closed_is_reopened_without_a_retry(
        live_server_factory, accepted, monkeypatch):
    monkeypatch.setattr(server_http, "KEEPALIVE_IDLE_S", 0.2)
    server = live_server_factory(config=ReproConfig(workers=1))
    sleeps = []
    with ReproClient([server.url, "http://standby.invalid"]) as client:
        client._sleep = sleeps.append
        assert client.modes()
        time.sleep(0.6)                # the server closes it idle
        assert client.modes()
        assert client.submit("kmeans", scale=1.33)["id"]
        assert client.base_url == server.url
    assert sleeps == []
    assert len(accepted) == 2


def test_truncation_leaves_no_half_read_response_in_the_pool(
        live_server_factory, accepted):
    server = live_server_factory(config=ReproConfig(workers=1))
    with ReproClient(server.url, max_retries=0) as client:
        with active_plan(forced("truncated")):
            with pytest.raises(urllib.error.URLError, match="truncated"):
                client._request_once("GET", "/v1/apps")
        # the next answer on the kept connection is its own, whole
        assert client.modes() == api.list_modes()
        assert client.apps() == api.list_apps()
    assert len(accepted) == 1
