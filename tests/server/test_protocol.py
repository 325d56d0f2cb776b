"""The wire taxonomy maps both ways and loses nothing."""

import pytest

from repro.server import protocol
from repro.server.protocol import (
    JobNotFound, ServerError, error_from_payload, error_to_payload,
    job_from_payload, job_to_payload,
)
from repro.service.core import ServiceOverloaded
from repro.service.jobs import FlowJob, JobValidationError
from repro.service.scheduler import (
    JobCancelled, JobFailed, JobQuarantined, JobResultPending, JobTimeout,
)


# ----------------------------------------------------------------------
# exception -> wire
# ----------------------------------------------------------------------

@pytest.mark.parametrize("exc,status,code", [
    (JobResultPending("k" * 64, "running", 2, 1.5), 202, "pending"),
    (ServiceOverloaded("shed", retry_after_s=3.0), 429, "overloaded"),
    (JobQuarantined("boom", key="k" * 64, crashes=3), 503, "quarantined"),
    (JobTimeout("too slow"), 504, "timeout"),
    (JobCancelled("dropped"), 409, "cancelled"),
    (JobFailed("exploded"), 500, "failed"),
    (JobValidationError("bad app"), 400, "invalid_job"),
    (JobNotFound("no such job"), 404, "not_found"),
    (RuntimeError("surprise"), 500, "internal"),
])
def test_status_and_code(exc, status, code):
    got_status, payload = error_to_payload(exc)
    assert got_status == status
    assert payload["error"]["code"] == code
    assert payload["error"]["message"]


def test_backpressure_bodies_carry_retry_after():
    _, payload = error_to_payload(ServiceOverloaded("x", retry_after_s=7.5))
    assert payload["error"]["retry_after_s"] == 7.5
    assert protocol.retry_after_of(payload) == 7.5
    _, payload = error_to_payload(JobResultPending("k", "running", 1, 0.0))
    assert protocol.retry_after_of(payload) > 0


# ----------------------------------------------------------------------
# wire -> exception (the client side of the same taxonomy)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("exc,exc_type", [
    (JobResultPending("k" * 64, "running", 2, 1.5), JobResultPending),
    (ServiceOverloaded("shed", retry_after_s=3.0), ServiceOverloaded),
    (JobQuarantined("boom", key="k" * 64, crashes=3), JobQuarantined),
    (JobTimeout("too slow"), JobTimeout),
    (JobCancelled("dropped"), JobCancelled),
    (JobFailed("exploded"), JobFailed),
    (JobValidationError("bad app"), JobValidationError),
    (JobNotFound("no such job"), JobNotFound),
])
def test_round_trip_preserves_type(exc, exc_type):
    status, payload = error_to_payload(exc)
    rebuilt = error_from_payload(status, payload)
    assert type(rebuilt) is exc_type


def test_round_trip_preserves_fields():
    status, payload = error_to_payload(
        JobQuarantined("boom", key="deadbeef", crashes=5))
    rebuilt = error_from_payload(status, payload)
    assert rebuilt.key == "deadbeef" and rebuilt.crashes == 5

    status, payload = error_to_payload(
        JobResultPending("abc123", "running", 4, 2.0))
    rebuilt = error_from_payload(status, payload)
    assert rebuilt.key == "abc123"
    assert rebuilt.status == "running" and rebuilt.attempts == 4
    assert isinstance(rebuilt, TimeoutError)   # keeps the except-clause

    status, payload = error_to_payload(
        ServiceOverloaded("shed", retry_after_s=9.0))
    rebuilt = error_from_payload(status, payload)
    assert rebuilt.retry_after_s == 9.0


def test_busy_code_maps_to_overloaded():
    exc = error_from_payload(429, {"error": {
        "code": "busy", "message": "queue full", "retry_after_s": 1.0}})
    assert isinstance(exc, ServiceOverloaded)
    assert exc.retry_after_s == 1.0


def test_unknown_code_falls_back_to_server_error():
    exc = error_from_payload(418, {"error": {"code": "teapot",
                                             "message": "short and stout"}})
    assert isinstance(exc, ServerError)
    assert exc.status == 418 and exc.code == "teapot"


def test_empty_body_still_maps():
    exc = error_from_payload(500, None)
    assert isinstance(exc, ServerError)
    assert "500" in str(exc)


# ----------------------------------------------------------------------
# job payloads
# ----------------------------------------------------------------------

def test_job_payload_round_trip():
    job = FlowJob(app="kmeans", mode="uninformed", scale=2.0, retries=1)
    rebuilt = job_from_payload(job_to_payload(job))
    assert rebuilt.key() == job.key()


def test_job_payload_rejects_unknown_fields():
    # "dse" pinned a job's DSE lowering; the wire no longer carries it
    for body in ({"app": "kmeans", "sudo": True},
                 {"app": "kmeans", "dse": "point"}):
        with pytest.raises(JobValidationError, match="unknown job field"):
            job_from_payload(body)


def test_job_spec_keys_are_stable():
    # the spec is the cache-key input: a new key here re-keys every
    # cached result, so the set (and one known key) is pinned
    job = FlowJob(app="kmeans", mode="informed")
    assert set(job.spec()) == {"format", "app", "source_sha", "mode",
                               "intensity_threshold", "scale"}
    assert job.key() == ("416702f0660989484f0956d2e84a9b9f"
                         "bb40068358b8f6885b1731d8d078c7db")


def test_job_payload_rejects_non_object():
    with pytest.raises(JobValidationError, match="JSON object"):
        job_from_payload(["kmeans"])


def test_job_payload_requires_app():
    with pytest.raises(JobValidationError, match="app"):
        job_from_payload({"mode": "informed"})


def test_timeout_round_trips_last_observed_state():
    exc = JobTimeout("poll budget blown", status="running", attempts=2)
    status, payload = error_to_payload(exc)
    assert status == 504
    error = payload["error"]
    assert error["status"] == "running" and error["attempts"] == 2
    rebuilt = error_from_payload(status, payload)
    assert isinstance(rebuilt, JobTimeout)
    assert rebuilt.status == "running" and rebuilt.attempts == 2
    # the detail rides in the message once, not once per hop
    assert str(rebuilt) == str(exc)
    assert str(rebuilt).count("last observed") == 1
