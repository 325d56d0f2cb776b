"""The asyncio HTTP front end over :class:`DesignService`.

Stdlib only: the keep-alive HTTP/1.1 node surface of
:class:`~repro.server.http.HttpServerBase`.  The interesting part is
not the parsing but the plumbing between three worlds:

- **service threads** complete jobs and fire listener callbacks;
- **flow worker threads** execute tasks and fire :class:`TaskFrames`
  observer callbacks (installed through
  :meth:`DesignService.set_tracer_factory`);
- **the event loop** owns every per-job event history and SSE
  subscriber queue.

All cross-thread traffic goes through ``loop.call_soon_threadsafe``
into :meth:`_publish`, so job state only ever mutates on the loop and
SSE ordering is the publish order.

A finished job's ``/result`` body is encoded once, by the first read
(or submit answer) after the loop has published its ``done``, and kept
on the job's state: every later read writes those bytes, with no
executor hop and no re-serialization.  A submit that finds its job
done and ``succeeded`` answers with the job record plus those bytes
spliced in as ``"result"``, so a cache hit costs one round trip; every
2xx submit answer names the job's status in ``X-Repro-Job-Status``.

Backpressure is a **bounded accept queue**: at most ``max_queue``
uncached jobs in flight; past that, new work is shed with ``429 busy``
(:class:`~repro.service.ServiceOverloaded` on the wire; a client
raises it once it stops retrying) while cached results (served via
:meth:`DesignService.lookup`) keep flowing.  Graceful shutdown flips
to draining (new jobs ``503 unavailable``, ``/healthz``
``degraded``), waits out in-flight jobs up to ``drain_timeout_s``,
then closes every SSE stream with a ``shutdown`` event.

Live SSE task events stream in thread-pool execution mode (the
default); process workers run their flows unobserved, so remote
clients still get ``queued`` / ``scheduled`` / ``done`` but per-task
frames only for thread mode.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import Any, Dict, List, Optional, Tuple

import repro
from repro import api, obs
from repro.config import ReproConfig
from repro.flow.serialize import result_to_dict
from repro.flow.task import FlowObserver
from repro.server import protocol
from repro.server.http import HttpServerBase, JSON_TYPE, MAX_BODY_BYTES
from repro.server.protocol import (
    JOB_STATUS_HEADER, TERMINAL, JobNotFound,
)
from repro.service import DesignService, ServiceOverloaded
from repro.service.jobs import FlowJob, JobValidationError

__all__ = ["ReproServer", "MAX_BODY_BYTES", "TERMINAL", "TaskFrames"]

log = logging.getLogger("repro.server")


class TaskFrames(FlowObserver):
    """Flow observer turning one job's task and branch callbacks into
    SSE frames.

    A ``task`` frame carries ``name``, ``kind`` (A/T/CG/O), ``scope``
    (the Fig. 4 grouping), ``wall_s``, ``status`` and ``t0`` (the
    epoch-aligned start), plus ``error`` (``"ExcType: message"``) for a
    failed task and ``span_id`` (the task's ``repro.obs`` span) when
    tracing is on.  A ``branch`` frame carries ``branch``, ``selected``
    and ``reasons``.  ``publish(event, frame)`` runs on the flow's
    worker thread; an exception it raises never disturbs the flow.
    """

    def __init__(self, publish):
        self._publish = publish

    def _emit(self, event: str, frame: Dict[str, Any]) -> None:
        try:
            self._publish(event, frame)
        except Exception:
            pass

    def on_task_end(self, task, ctx, wall_s: float, status: str = "ok",
                    error: Optional[BaseException] = None) -> None:
        frame = {"name": task.name, "kind": task.kind.value,
                 "scope": task.scope, "wall_s": wall_s, "status": status,
                 "t0": obs.now() - wall_s}
        if error is not None:
            frame["error"] = f"{type(error).__name__}: {error}"
        current = obs.current_span()
        if current is not None:
            frame["span_id"] = current.span_id
        self._emit("task", frame)

    def on_branch(self, decision, ctx) -> None:
        self._emit("branch", {"branch": decision.branch,
                              "selected": list(decision.selected),
                              "reasons": list(decision.reasons)})


class _JobState:
    """Everything the server remembers about one submitted job."""

    __slots__ = ("job", "submission", "status", "source", "history",
                 "subscribers", "created_s", "finished_s", "counted",
                 "body")

    def __init__(self, job: FlowJob):
        self.job = job
        self.submission = None            # ServiceResult once accepted
        self.status = "queued"
        self.counted = False              # holds an accept-queue slot
        self.source: Optional[str] = None
        self.history: List[Tuple[int, str, Dict[str, Any]]] = []
        self.subscribers: List[asyncio.Queue] = []
        self.created_s = time.time()
        self.finished_s: Optional[float] = None
        #: the encoded 200 ``/result`` body, kept once the job is done
        self.body: Optional[bytes] = None

    @property
    def done(self) -> bool:
        return self.status in TERMINAL

    def to_payload(self, key: str) -> Dict[str, Any]:
        data = {"id": key, "app": self.job.app, "mode": self.job.mode,
                "status": self.status, "done": self.done,
                "created_s": self.created_s, "events": len(self.history)}
        if self.source is not None:
            data["source"] = self.source
        if self.finished_s is not None:
            data["wall_s"] = round(self.finished_s - self.created_s, 6)
        return data


def _encode_result(key: str, submission, source: str) -> bytes:
    """The ``/result`` body of a finished job (off the event loop).

    ``.result()`` re-raises the job's terminal error, which the
    connection loop maps through ``error_to_payload``.
    """
    record = result_to_dict(submission.result(0.0))
    record["id"] = key
    record["source"] = source
    return json.dumps(record).encode("utf-8")


class ReproServer(HttpServerBase):
    """Serves the ``/v1`` design-job API over one :class:`DesignService`.

    With no ``service`` the server builds its own from ``config``
    (default: :meth:`ReproConfig.from_env`) and owns its lifecycle.
    """

    def __init__(self, service: Optional[DesignService] = None,
                 host: str = "127.0.0.1", port: int = 8000,
                 max_queue: int = 8, drain_timeout_s: float = 30.0,
                 config: Optional[ReproConfig] = None):
        self.config = config if config is not None \
            else ReproConfig.from_env()
        # the span ring buffer a fleet collector drains is opt-in
        # (obs_buffer)
        super().__init__(self.config.obs_buffer)
        self._own_service = service is None
        self.service = service or api.open_service(config)
        self.host = host
        self.port = port
        self.max_queue = max_queue
        self.drain_timeout_s = drain_timeout_s
        self.draining = False
        self._jobs: Dict[str, _JobState] = {}
        self._inflight = 0                # uncached jobs not yet done
        self._seq = 0                     # global SSE event id
        self._idle = asyncio.Event()
        reg = obs.REGISTRY
        self._m_inflight = reg.gauge(
            "repro_server_jobs_inflight", "uncached jobs being executed")
        self._m_shed = reg.counter(
            "repro_server_jobs_shed_total", "jobs refused for backpressure",
            labelnames=("reason",))
        self._m_sse = reg.gauge(
            "repro_server_sse_subscribers", "open SSE event streams")
        self._m_inflight.set(0)       # present in /metrics from boot
        self._m_sse.set(0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def _prepare(self) -> None:
        self._idle = asyncio.Event()
        self._idle.set()
        self.service.add_listener(self._on_service_event)
        self.service.set_tracer_factory(self._frames_for)

    def _listening(self) -> None:
        log.info("serving on http://%s:%d", self.host, self.port)

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting work, optionally drain in-flight jobs, close."""
        self.draining = True
        self._stop_serving()
        if drain and self._inflight:
            try:
                await asyncio.wait_for(self._idle.wait(),
                                       self.drain_timeout_s)
            except asyncio.TimeoutError:
                log.warning("drain timed out with %d job(s) in flight",
                            self._inflight)
        # wake every SSE stream so connections close promptly
        for state in self._jobs.values():
            self._fanout(state, "shutdown", {"draining": True})
        await super().shutdown()
        self.service.remove_listener(self._on_service_event)
        self.service.set_tracer_factory(None)
        if self._own_service:
            self.service.close()

    # ------------------------------------------------------------------
    # Cross-thread event plumbing
    # ------------------------------------------------------------------

    def _publish_threadsafe(self, key: str, event: str,
                            data: Dict[str, Any]) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._publish, key, event, data)

    def _publish(self, key: str, event: str, data: Dict[str, Any]) -> None:
        """Record one job event and fan it out (loop thread only)."""
        state = self._jobs.get(key)
        if state is None:
            return
        if event == "done":
            status = data.get("status") or "succeeded"
            if not state.done:      # first terminal event wins
                state.status = status
                state.finished_s = time.time()
                if state.source is None:
                    state.source = data.get("source", "run")
                if state.counted:
                    state.counted = False
                    self._job_settled()
        elif event == "scheduled":
            state.status = "running"
        self._fanout(state, event, data)

    def _fanout(self, state: _JobState, event: str,
                data: Dict[str, Any]) -> None:
        self._seq += 1
        record = (self._seq, event, data)
        state.history.append(record)
        for queue in list(state.subscribers):
            queue.put_nowait(record)

    def _job_settled(self) -> None:
        self._inflight = max(0, self._inflight - 1)
        self._m_inflight.set(self._inflight)
        if self._inflight == 0:
            self._idle.set()

    def _on_service_event(self, event: str, job: FlowJob, key: str,
                          info: Dict[str, Any]) -> None:
        """DesignService listener (runs on service/worker threads)."""
        if event == "scheduled":
            self._publish_threadsafe(key, "scheduled", {"id": key})
        elif event == "done":
            self._publish_threadsafe(key, "done", {
                "id": key, "status": info.get("status", "succeeded"),
                "attempts": info.get("attempts"),
                "wall_s": info.get("wall_s"),
                "error": info.get("error"),
            })

    def _frames_for(self, job: FlowJob, key: str) -> TaskFrames:
        """Per-job observer streaming task/branch frames to subscribers."""
        return TaskFrames(lambda event, frame: self._publish_threadsafe(
            key, event, frame))

    # ------------------------------------------------------------------
    # HTTP layer (parsing/response plumbing lives in HttpServerBase)
    # ------------------------------------------------------------------

    def _route(self, method: str, path: str, query):
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            return "healthz", self._h_healthz, ()
        if parts[:1] == [protocol.API_VERSION]:
            rest = parts[1:]
            if rest == ["obs", "summary"] and method == "GET":
                return "obs_summary", self._h_obs_summary, ()
            if rest == ["apps"] and method == "GET":
                return "apps", self._h_apps, ()
            if rest == ["modes"] and method == "GET":
                return "modes", self._h_modes, ()
            if rest == ["jobs"] and method == "POST":
                return "submit", self._h_submit, ()
            if rest == ["jobs"] and method == "GET":
                return "jobs", self._h_jobs, ()
            if len(rest) == 2 and rest[0] == "jobs" and method == "GET":
                return "job", self._h_job, (rest[1],)
            if (len(rest) == 3 and rest[0] == "jobs"
                    and rest[2] == "result" and method == "GET"):
                return "result", self._h_result, (rest[1],)
            if (len(rest) == 3 and rest[0] == "jobs"
                    and rest[2] == "events" and method == "GET"):
                return "events", self._h_events, (rest[1],)
        return super()._route(method, path, query)

    # -- handlers -------------------------------------------------------

    async def _h_healthz(self, writer, body, headers) -> int:
        health = self.service.health()
        health["server"] = {
            "draining": self.draining,
            "inflight": self._inflight,
            "max_queue": self.max_queue,
            "jobs_tracked": len(self._jobs),
        }
        # the runner's clock, for the fleet collector's offset
        health["now"] = obs.now()
        ok = not self.draining
        health["status"] = "ok" if ok else "degraded"
        return await self._send_json(writer, 200 if ok else 503, health)

    # -- fleet observability surface ------------------------------------

    async def _h_obs_summary(self, writer, body, headers) -> int:
        payload = {
            "role": "runner",
            "version": repro.__version__,
            "now": obs.now(),
            "spans": self._span_stats(),
        }
        return await self._send_json(writer, 200, payload)

    async def _h_apps(self, writer, body, headers) -> int:
        return await self._send_json(writer, 200, {"apps": api.list_apps()})

    async def _h_modes(self, writer, body, headers) -> int:
        return await self._send_json(writer, 200,
                                     {"modes": api.list_modes()})

    async def _h_jobs(self, writer, body, headers) -> int:
        jobs = [state.to_payload(key)
                for key, state in self._jobs.items()]
        return await self._send_json(writer, 200, {"jobs": jobs})

    async def _h_submit(self, writer, body, headers) -> int:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobValidationError(f"body is not JSON: {exc}") from None
        job = protocol.job_from_payload(payload)
        key = job.key()
        known = self._jobs.get(key)
        if known is not None:
            # content-hash dedup: same spec, same job, no new work
            return await self._send_record(writer, 200, key, known)
        # cached/in-flight results are served even while shedding
        cached = await asyncio.get_running_loop().run_in_executor(
            None, self.service.lookup, job)
        if cached is not None and cached.done():
            state = _JobState(job)
            state.submission = cached
            state.source = cached.source
            self._jobs[key] = state
            self._fanout(state, "queued", {"id": key,
                                           "source": cached.source})
            self._publish(key, "done", {"id": key, "status": "succeeded",
                                        "source": cached.source})
            return await self._send_record(writer, 200, key, state)
        if self.draining:
            self._m_shed.inc(reason="draining")
            return await self._send_json(writer, 503, protocol._body(
                "unavailable", "server is draining for shutdown",
                retry_after_s=self.drain_timeout_s))
        if self._inflight >= self.max_queue:
            self._m_shed.inc(reason="queue_full")
            raise ServiceOverloaded(
                f"accept queue full ({self.max_queue} in flight)",
                retry_after_s=1.0)
        # register BEFORE submitting so listener events find the state
        state = _JobState(job)
        state.counted = True
        self._jobs[key] = state
        self._inflight += 1
        self._m_inflight.set(self._inflight)
        self._idle.clear()
        self._fanout(state, "queued", {"id": key})
        # a forwarding router stamps its span context onto the request;
        # adopting it stitches router->runner traces into one tree (a
        # malformed or absent traceparent opens a fresh root)
        obs_parent = obs.parse_traceparent(headers.get("traceparent"))
        try:
            submission = await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.service.submit(job,
                                                  obs_parent=obs_parent))
        except BaseException:
            del self._jobs[key]
            self._job_settled()
            raise
        state.submission = submission
        if submission.source.startswith("cache") and submission.done():
            state.source = submission.source
            self._publish(key, "done", {"id": key, "status": "succeeded",
                                        "source": submission.source})
        elif submission.source == "inflight":
            state.source = "inflight"
            state.status = "running"
            if submission.done():
                self._publish(key, "done",
                              {"id": key, "status": "succeeded",
                               "source": "inflight"})
        return await self._send_record(writer, 201, key, state)

    async def _send_record(self, writer, status: int, key: str,
                           state: _JobState) -> int:
        """A submit answer: the job record, plus the finished result
        spliced in as ``"result"`` when the job succeeded."""
        body = json.dumps(state.to_payload(key)).encode("utf-8")
        submission = state.submission
        if (state.status == "succeeded" and submission is not None
                and submission.done()):
            result = await self._result_body(key, state)
            body = body[:-1] + b', "result": ' + result + b"}"
        return await self._send(writer, status, body, JSON_TYPE,
                                {JOB_STATUS_HEADER: state.status})

    async def _result_body(self, key: str, state: _JobState) -> bytes:
        """The encoded ``/result`` body of a finished submission.

        A done state's source is final, and so is its body; a read
        that beats the loop's ``done`` publish encodes without keeping
        it, so a stale source is never frozen.
        """
        if state.body is not None:
            return state.body
        submission = state.submission
        final = state.done
        encoded = await asyncio.get_running_loop().run_in_executor(
            None, _encode_result, key, submission,
            state.source or submission.source)
        if final:
            state.body = encoded
        return encoded

    def _state_of(self, key: str) -> _JobState:
        state = self._jobs.get(key)
        if state is None:
            raise JobNotFound(f"no job {key!r} on this server")
        return state

    async def _h_job(self, writer, body, headers, key: str) -> int:
        return await self._send_json(writer, 200,
                                     self._state_of(key).to_payload(key))

    async def _h_result(self, writer, body, headers, key: str) -> int:
        state = self._state_of(key)
        if state.body is None and (state.submission is None
                                   or not state.submission.done()):
            # taxonomy satellite: same error the in-process caller gets
            raise protocol.JobResultPending(
                key, state.status, 0, 0.0, label=state.job.label)
        return await self._send(writer, 200,
                                await self._result_body(key, state),
                                JSON_TYPE)

    async def _h_events(self, writer, body, headers, key: str) -> int:
        state = self._state_of(key)
        # SSE resume: a reconnecting client sends Last-Event-ID (the
        # ``id:`` of the last frame it saw); replay only what it
        # missed.  Event seqs are globally monotone, so the filter is
        # a plain comparison.  A malformed header degrades to a full
        # replay -- never an error on a reconnect path.
        after = None
        raw_last = headers.get("last-event-id")
        if raw_last:
            try:
                after = int(raw_last.strip())
            except ValueError:
                after = None
        head = ["HTTP/1.1 200 OK",
                "Content-Type: text/event-stream",
                "Cache-Control: no-cache",
                "Connection: close"]
        self._take_over(writer)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        queue: asyncio.Queue = asyncio.Queue()
        replay = [record for record in state.history
                  if after is None or record[0] > after]
        state.subscribers.append(queue)
        self._m_sse.inc()
        try:
            for record in replay:
                if not await self._send_sse(writer, record):
                    return 200
            if state.done or self.draining:
                return 200
            while True:
                record = await queue.get()
                if not await self._send_sse(writer, record):
                    return 200
                if record[1] in ("done", "shutdown"):
                    return 200
        finally:
            try:
                state.subscribers.remove(queue)
            except ValueError:
                pass
            self._m_sse.dec()

    async def _send_sse(self, writer,
                        record: Tuple[int, str, Dict[str, Any]]) -> bool:
        seq, event, data = record
        frame = (f"id: {seq}\nevent: {event}\n"
                 f"data: {json.dumps(data)}\n\n")
        try:
            writer.write(frame.encode("utf-8"))
            await writer.drain()
            return True
        except ConnectionError:
            return False
