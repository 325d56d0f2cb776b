"""repro.client -- the synchronous HTTP client for ``repro serve``.

Stdlib only: requests go over kept-alive ``http.client`` connections
(:class:`~repro.server.http.ConnectionPool`), event streams over
``urllib``.  :class:`ReproClient` speaks the ``/v1``
wire schema from :mod:`repro.server.protocol`, so every error body
comes back as the **same exception type** the in-process
:meth:`JobHandle.result` path raises -- remote and local callers share
one taxonomy.  Transient refusals (``429`` overload/busy, ``503``
unavailable, connection resets) are retried with backoff, honoring the
server's ``Retry-After`` whenever it sends one.

The evaluation harness and the batch CLI accept ``--server URL`` (or
``$REPRO_SERVER``) and route through this client; results come back as
:class:`~repro.flow.serialize.FlowResultRecord`, the same read API a
cache hit returns in-process.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import (
    Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro import obs
from repro.flow.serialize import FlowResultRecord, result_from_dict
from repro.server.http import (
    ConnectionPool, decode_reply, fetch_text, wire_exchange,
)
from repro.server.protocol import JobNotFound, error_from_payload
from repro.service.scheduler import JobResultPending, JobTimeout

#: error codes worth retrying: transient refusals, not terminal job
#: outcomes (a quarantined job stays quarantined -- no point retrying)
RETRYABLE_CODES = ("overloaded", "busy", "unavailable")


class ReproClient:
    """Talks to ``python -m repro serve`` (or ``router``) endpoints.

    ``base_url`` accepts a single URL, a comma-separated list, or a
    sequence -- ``"http://primary,http://standby"`` gives the client a
    failover chain: a connect error (or a retryable refusal, which is
    what a fenced ex-primary or a pre-takeover standby sheds) rotates
    to the next endpoint before the retry, so a router failover is
    invisible to callers beyond one backoff delay.

    ``jitter`` spreads every retry delay by a random factor in
    ``[1-jitter, 1+jitter]`` so a shedding server's synchronized
    ``Retry-After`` does not turn N clients into a thundering herd.
    ``max_wait_s`` caps the *total* wall time one logical request may
    spend across retries (and :meth:`run_flow` polling); past it the
    client raises :class:`JobTimeout` instead of retrying forever.

    Connections are kept alive between requests.  :meth:`close` (or a
    ``with`` block) closes them; a reused connection the server has
    since closed is retried once, invisibly, on a fresh one.
    """

    def __init__(self, base_url: Union[str, Sequence[str]],
                 timeout_s: float = 60.0,
                 max_retries: int = 5, backoff_s: float = 0.25,
                 poll_interval_s: float = 0.2, jitter: float = 0.2,
                 max_wait_s: Optional[float] = None,
                 rng: Optional[random.Random] = None):
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if max_wait_s is not None and not max_wait_s > 0:
            raise ValueError(f"max_wait_s must be > 0, got {max_wait_s}")
        urls = (base_url.split(",") if isinstance(base_url, str)
                else list(base_url))
        self.endpoints = [u.strip().rstrip("/") for u in urls
                          if u and u.strip()]
        if not self.endpoints:
            raise ValueError("base_url must name at least one endpoint")
        self._endpoint_i = 0
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.poll_interval_s = poll_interval_s
        self.jitter = jitter
        self.max_wait_s = max_wait_s
        self._rng = rng or random.Random()
        self._sleep = time.sleep       # monkeypatch point for tests
        self._pool = ConnectionPool()
        #: ``(job_id, result dict)`` a submit answer carried inline
        self._kept: Optional[Tuple[str, Dict[str, Any]]] = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    @property
    def base_url(self) -> str:
        """The endpoint requests currently go to (rotation is sticky:
        after a failover the working endpoint stays first)."""
        return self.endpoints[self._endpoint_i]

    @base_url.setter
    def base_url(self, value: str) -> None:
        self.endpoints = [value.rstrip("/")]
        self._endpoint_i = 0

    def _rotate(self) -> None:
        """Fail over to the next endpoint (no-op with only one)."""
        if len(self.endpoints) > 1:
            self._endpoint_i = ((self._endpoint_i + 1)
                                % len(self.endpoints))

    def _request_once(self, method: str, path: str,
                      payload: Optional[Dict[str, Any]] = None
                      ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        # wire-level trace propagation: when the caller runs inside a
        # span, its context rides along so the server (or the fleet
        # router) parents the job's remote spans onto this trace
        traceparent = obs.format_traceparent(obs.current_context())
        headers = ({"traceparent": traceparent}
                   if traceparent is not None else None)
        return decode_reply(*wire_exchange(
            self._pool, self.base_url, method, path, payload, headers,
            self.timeout_s))

    def close(self) -> None:
        """Close the kept-alive connections (the client stays usable)."""
        self._pool.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _jittered(self, delay: float) -> float:
        """``delay`` spread by the configured jitter factor."""
        if self.jitter <= 0 or delay <= 0:
            return max(0.0, delay)
        spread = self._rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return max(0.0, delay * spread)

    def _retry_delay(self, status: int, headers: Dict[str, str],
                     payload: Dict[str, Any], attempt: int) -> float:
        base = None
        for name, value in headers.items():
            if name.lower() == "retry-after":
                try:
                    base = max(0.0, float(value))
                except ValueError:
                    pass
                break
        if base is None:
            try:
                base = max(0.0, float(payload["error"]["retry_after_s"]))
            except (KeyError, TypeError, ValueError):
                base = self.backoff_s * (2 ** attempt)
        return self._jittered(base)

    def _deadline(self) -> Optional[float]:
        return (None if self.max_wait_s is None
                else time.monotonic() + self.max_wait_s)

    def _check_budget(self, deadline: Optional[float], delay: float,
                      what: str,
                      last: Optional[JobResultPending] = None) -> None:
        """Raise :class:`JobTimeout` when sleeping would blow the cap.

        ``last`` is the most recent pending answer, so the timeout
        reports where the job actually was when the client gave up
        (mirroring :class:`JobResultPending`) instead of discarding it.
        """
        if deadline is not None and time.monotonic() + delay > deadline:
            raise JobTimeout(
                f"{what} exceeded the client retry budget "
                f"(max_wait_s={self.max_wait_s}); giving up instead of "
                f"retrying past it",
                status=getattr(last, "status", None),
                attempts=getattr(last, "attempts", None))

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None,
                 retry: bool = True) -> Dict[str, Any]:
        """One request with transient-error retries; raises the mapped
        taxonomy exception for any non-2xx (and for 202 pending).

        Both retry classes rotate the endpoint chain first: a connect
        error (or read timeout) means this endpoint is gone or
        stalled, and a retryable refusal is
        what a standby (or fenced ex-primary) sheds -- either way the
        next endpoint is the better bet.
        """
        attempt = 0
        deadline = self._deadline()
        while True:
            try:
                status, data, headers = self._request_once(
                    method, path, payload)
            except (urllib.error.URLError, ConnectionError, TimeoutError):
                # a read timeout or a connection dropped before the
                # answer (a SIGKILLed router) is treated like a connect
                # error.  Resending is safe -- submits are content-hash
                # idempotent
                if not retry or attempt >= self.max_retries:
                    raise
                self._rotate()
                delay = self._jittered(self.backoff_s * (2 ** attempt))
                self._check_budget(deadline, delay,
                                   f"{method} {path} (connect retries)")
                self._sleep(delay)
                attempt += 1
                continue
            code = ((data.get("error") or {}).get("code")
                    if isinstance(data, dict) else None)
            if (code in RETRYABLE_CODES and retry
                    and attempt < self.max_retries):
                self._rotate()
                delay = self._retry_delay(status, headers, data, attempt)
                self._check_budget(deadline, delay,
                                   f"{method} {path} ({code} retries)")
                self._sleep(delay)
                attempt += 1
                continue
            if status == 202 or status >= 400:
                raise error_from_payload(status, data)
            return data

    # ------------------------------------------------------------------
    # Catalog / operations
    # ------------------------------------------------------------------

    def apps(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/apps")["apps"]

    def modes(self) -> List[str]:
        return self._request("GET", "/v1/modes")["modes"]

    def health(self) -> Dict[str, Any]:
        status, data, _ = self._request_once("GET", "/healthz")
        data["http_status"] = status
        return data

    def metrics(self) -> str:
        """Raw Prometheus exposition text from ``/metrics``."""
        return fetch_text(self._pool, self.base_url, "/metrics",
                          self.timeout_s)

    # ------------------------------------------------------------------
    # Fleet observability
    # ------------------------------------------------------------------

    def obs_summary(self) -> Dict[str, Any]:
        """The server's ``/v1/obs/summary`` (router or runner role)."""
        return self._request("GET", "/v1/obs/summary")

    def obs_trace(self, job_id: str) -> Dict[str, Any]:
        """The whole-fleet Perfetto trace for a routed job (router)."""
        return self._request("GET", f"/v1/obs/traces/{job_id}",
                             retry=False)

    def obs_spans(self, since: int = 0) -> Dict[str, Any]:
        """Drain a runner's span buffer past ``since`` (collector use)."""
        return self._request("GET", f"/v1/obs/spans?since={since}")

    def obs_profile(self) -> str:
        """Folded-stack profiler dump, or raises 404 when it's off."""
        return fetch_text(self._pool, self.base_url, "/v1/obs/profile",
                          self.timeout_s)

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def submit(self, app: str, mode: str = "informed",
               **job_kwargs: Any) -> Dict[str, Any]:
        """Submit one job; returns the job record (``id`` is the
        content hash -- resubmitting the same spec is a no-op).

        A job already finished with status ``succeeded`` comes back
        with its result inline.  The record returned here leaves it
        out; the client keeps it in one slot for the next
        :meth:`result` of that id.  Every submit replaces or clears
        the slot.
        """
        payload = {"app": app, "mode": mode}
        payload.update(job_kwargs)
        self._kept = None
        record = self._request("POST", "/v1/jobs", payload)
        result = record.pop("result", None)
        if result is not None:
            self._kept = (record["id"], result)
        return record

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def result(self, job_id: str) -> FlowResultRecord:
        """The finished result; raises the job's terminal taxonomy
        error, or :class:`JobResultPending` while it still runs.

        A result the last :meth:`submit` kept for ``job_id`` is
        returned once, with no request; any other read is a GET.
        """
        kept = self._kept
        if kept is not None and kept[0] == job_id:
            self._kept = None
            return result_from_dict(kept[1])
        data = self._request("GET", f"/v1/jobs/{job_id}/result")
        return result_from_dict(data)

    def run_flow(self, app: str, mode: str = "informed",
                 timeout: Optional[float] = None,
                 **job_kwargs: Any) -> FlowResultRecord:
        """Submit and block until the result is ready (the remote
        equivalent of :func:`repro.api.run_flow`); a job finished
        before the submit costs that one request.

        A read that answers :class:`JobNotFound` for the job submitted
        here resubmits the same spec, up to ``max_retries`` times: the
        fleet can forget an accepted job (a standby that took over
        before tailing its ``place`` record, with the job's runner
        restarted too), and submits are content-hash idempotent.
        """
        job_id = self.submit(app, mode, **job_kwargs)["id"]
        deadline = None if timeout is None else time.monotonic() + timeout
        # with no explicit timeout the client-wide budget still bounds
        # the poll loop -- but as a JobTimeout, not a pending status
        budget = self._deadline() if timeout is None else None
        last: Optional[JobResultPending] = None
        resubmits = 0
        while True:
            try:
                return self.result(job_id)
            except JobNotFound:
                if resubmits >= self.max_retries:
                    raise
                resubmits += 1
                job_id = self.submit(app, mode, **job_kwargs)["id"]
            except JobResultPending as pending:
                last = pending
                if deadline is not None and time.monotonic() >= deadline:
                    raise
                self._check_budget(budget, self.poll_interval_s,
                                   f"polling {app}/{mode} ({job_id[:12]})",
                                   last=last)
                self._sleep(self.poll_interval_s)

    def events(self, job_id: str,
               timeout: Optional[float] = None,
               last_event_id: Optional[int] = None
               ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield ``(event, data)`` from the job's SSE stream until the
        terminal frame (``done`` / ``shutdown``) closes it.

        **Resumable**: the server numbers frames with SSE ``id:``
        lines; when the stream dies early (router restart, failover)
        the client reconnects -- rotating endpoints -- with a
        ``Last-Event-ID`` header, so the server replays exactly the
        missed events instead of the client silently dropping them.
        Up to ``max_retries`` consecutive dead connections are
        retried; a stream that makes progress resets the counter.
        """
        last = last_event_id
        failures = 0
        while True:
            headers = {"Accept": "text/event-stream"}
            if last is not None:
                headers["Last-Event-ID"] = str(last)
            request = urllib.request.Request(
                self.base_url + f"/v1/jobs/{job_id}/events",
                headers=headers)
            progressed = False
            try:
                with urllib.request.urlopen(
                        request,
                        timeout=timeout or self.timeout_s) as resp:
                    event, data_lines, event_id = None, [], None
                    for raw in resp:
                        line = raw.decode("utf-8").rstrip("\n")
                        line = line.rstrip("\r")
                        if line.startswith("id:"):
                            event_id = line.split(":", 1)[1].strip()
                        elif line.startswith("event:"):
                            event = line.split(":", 1)[1].strip()
                        elif line.startswith("data:"):
                            data_lines.append(
                                line.split(":", 1)[1].strip())
                        elif not line and event is not None:
                            payload = json.loads(
                                "\n".join(data_lines) or "{}")
                            if event_id is not None:
                                try:
                                    last = int(event_id)
                                except ValueError:
                                    pass
                            progressed = True
                            failures = 0
                            yield event, payload
                            if event in ("done", "shutdown"):
                                return
                            event, data_lines, event_id = None, [], None
            except (urllib.error.URLError, ConnectionError,
                    OSError):
                failures += 1
                if failures > self.max_retries:
                    raise
            else:
                # clean EOF without a terminal frame: the upstream
                # died mid-stream (a SIGKILLed router closes with FIN,
                # not an error) -- resume where the ids left off
                failures = 0 if progressed else failures + 1
                if failures > self.max_retries:
                    raise urllib.error.URLError(
                        f"SSE stream for {job_id[:12]} kept closing "
                        f"without a terminal frame "
                        f"({failures - 1} resume attempts)")
            self._rotate()
            self._sleep(self._jittered(
                self.backoff_s * (2 ** min(failures, 4))))
