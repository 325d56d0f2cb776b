"""Wire schema shared by the HTTP server and :class:`ReproClient`.

The contract the issue pins down: every terminal job outcome maps to
**one stable machine-readable error body**, and the mapping is a
bijection -- the client rebuilds the *same* exception type (with its
fields) that :meth:`JobHandle.result` would have raised in-process::

    {"error": {"code": "quarantined", "message": ..., ...extras}}

=================  ======  ===========================================
code               status  in-process exception
=================  ======  ===========================================
``pending``        202     :class:`JobResultPending` (still running)
``overloaded``     429     :class:`ServiceOverloaded` (breaker open)
``busy``           429     server accept queue full (bounded)
``quarantined``    503     :class:`JobQuarantined` (dead-lettered)
``timeout``        504     :class:`JobTimeout`
``cancelled``      409     :class:`JobCancelled`
``failed``         500     :class:`JobFailed`
``invalid_job``    400     :class:`JobValidationError`
``not_found``      404     :class:`JobNotFound`
``unavailable``    503     server draining for shutdown
``internal``       500     anything else
=================  ======  ===========================================

``429``/``503``/``202`` responses carry a ``Retry-After`` header (the
payload mirrors it as ``retry_after_s``); the client honors it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.service.core import ServiceOverloaded
from repro.service.jobs import FlowJob, JobValidationError
from repro.service.scheduler import (
    JobCancelled, JobFailed, JobQuarantined, JobResultPending, JobTimeout,
)

#: API version prefix every job route lives under
API_VERSION = "v1"

#: job states with nothing left to wait for
TERMINAL = ("succeeded", "failed", "quarantined", "timeout", "cancelled")

#: response header of every 2xx ``POST /v1/jobs`` answer: the job's
#: status, so a relaying router learns ``done`` without parsing a body
JOB_STATUS_HEADER = "X-Repro-Job-Status"

#: fields a POST /v1/jobs body may set (everything else is rejected --
#: unknown keys are typos, not forward compatibility)
JOB_FIELDS = ("app", "mode", "intensity_threshold", "scale", "priority",
              "timeout_s", "retries")


class JobNotFound(KeyError):
    """No job with that id has been submitted to this server."""

    def __init__(self, message: str):
        # bypass KeyError's repr-quoting of the message
        Exception.__init__(self, message)
        self.message = message

    def __str__(self):
        return self.message


class ServerError(RuntimeError):
    """The server answered with an error the taxonomy doesn't name."""

    def __init__(self, message: str, status: int = 500,
                 code: str = "internal"):
        super().__init__(message)
        self.status = status
        self.code = code


# ----------------------------------------------------------------------
# Job specs over the wire
# ----------------------------------------------------------------------

def job_from_payload(payload: Dict[str, Any]) -> FlowJob:
    """Validated :class:`FlowJob` from a POST body (raises
    :class:`JobValidationError`)."""
    if not isinstance(payload, dict):
        raise JobValidationError(
            f"job body must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - set(JOB_FIELDS)
    if unknown:
        raise JobValidationError(
            f"unknown job field(s) {sorted(unknown)}; "
            f"valid: {list(JOB_FIELDS)}")
    if "app" not in payload:
        raise JobValidationError("job body must name an 'app'")
    try:
        return FlowJob(**payload)
    except TypeError as exc:
        raise JobValidationError(str(exc)) from None


def job_to_payload(job: FlowJob) -> Dict[str, Any]:
    return {
        "app": job.app, "mode": job.mode,
        "intensity_threshold": job.intensity_threshold,
        "scale": job.scale, "priority": job.priority,
        "timeout_s": job.timeout_s, "retries": job.retries,
    }


# ----------------------------------------------------------------------
# Error taxonomy, both directions
# ----------------------------------------------------------------------

def _body(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    error = {"code": code, "message": message}
    error.update({k: v for k, v in extra.items() if v is not None})
    return {"error": error}


def error_to_payload(exc: BaseException) -> Tuple[int, Dict[str, Any]]:
    """``(http_status, json_body)`` for any job-path exception."""
    if isinstance(exc, JobResultPending):
        return 202, _body("pending", str(exc), key=exc.key,
                          status=exc.status, attempts=exc.attempts,
                          retry_after_s=1.0)
    if isinstance(exc, ServiceOverloaded):
        return 429, _body("overloaded", str(exc),
                          retry_after_s=exc.retry_after_s or 1.0)
    if isinstance(exc, JobQuarantined):
        return 503, _body("quarantined", str(exc), key=exc.key,
                          crashes=exc.crashes)
    if isinstance(exc, JobTimeout):
        return 504, _body("timeout", str(exc),
                          status=getattr(exc, "status", None),
                          attempts=getattr(exc, "attempts", None))
    if isinstance(exc, JobCancelled):
        return 409, _body("cancelled", str(exc))
    if isinstance(exc, JobFailed):
        return 500, _body("failed", str(exc))
    if isinstance(exc, JobValidationError):
        return 400, _body("invalid_job", str(exc))
    if isinstance(exc, JobNotFound):
        return 404, _body("not_found", str(exc))
    if isinstance(exc, ServerError):
        return exc.status, _body(exc.code, str(exc))
    return 500, _body("internal", f"{type(exc).__name__}: {exc}")


def error_from_payload(status: int,
                       payload: Optional[Dict[str, Any]]) -> Exception:
    """The in-process exception a wire error stands for (the client
    raises exactly what :meth:`JobHandle.result` would have)."""
    error = (payload or {}).get("error") or {}
    code = error.get("code") or "internal"
    message = error.get("message") or f"HTTP {status}"
    if code == "pending":
        return JobResultPending(
            error.get("key", ""), error.get("status", "pending"),
            int(error.get("attempts", 0)), None)
    if code in ("overloaded", "busy"):
        return ServiceOverloaded(
            message, retry_after_s=float(error.get("retry_after_s", 0.0)))
    if code == "quarantined":
        return JobQuarantined(message, key=error.get("key", ""),
                              crashes=int(error.get("crashes", 0)))
    if code == "timeout":
        # the message already embeds any status/attempts detail;
        # restore the structured fields without re-appending it
        exc = JobTimeout(message)
        exc.status = error.get("status")
        attempts = error.get("attempts")
        exc.attempts = int(attempts) if attempts is not None else None
        return exc
    if code == "cancelled":
        return JobCancelled(message)
    if code == "failed":
        return JobFailed(message)
    if code == "invalid_job":
        return JobValidationError(message)
    if code == "not_found":
        return JobNotFound(message)
    return ServerError(message, status=status, code=code)


def retry_after_of(payload: Dict[str, Any]) -> Optional[float]:
    """The retry hint carried in an error body, if any."""
    try:
        value = payload["error"]["retry_after_s"]
    except (KeyError, TypeError):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None
