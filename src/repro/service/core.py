"""DesignService: cached, scheduled, observable flow execution.

The lookup path for one submitted :class:`FlowJob`:

1. **memory** -- results this service instance already holds;
2. **disk** -- the persistent :class:`ResultCache` (if configured),
   shared across processes and runs;
3. **in-flight dedup** -- an identical job already executing;
4. **run** -- schedule the flow on the worker pool.

Executed results are written back to both layers, so a warm rerun of a
whole batch is pure cache reads.  Every lookup and execution feeds the
``repro_service_events_total{event}`` counter and the
``repro_service_job_wall_seconds{source}`` histogram.

Results are live :class:`FlowResult` objects when the flow ran in this
process (thread pool), and :class:`FlowResultRecord` (the deserialized
read-side equivalent) when they came from the disk cache or a process
worker; both expose the read API the evaluation harness consumes.

An engine carrying a custom ``strategy_a`` override cannot be content-
hashed or pickled, so such a service runs uncached and in-process --
correctness over throughput for experimental strategies.

Resilience (see :mod:`repro.resilience`): jobs whose payloads keep
crashing pool workers resolve :class:`JobQuarantined` and land in the
**dead-letter queue** next to the result cache; re-submitting a
dead-lettered job fast-fails without touching the pool.  A spike of
dead-letters trips the service's **overload breaker**: new work is
shed with :class:`ServiceOverloaded` (cache reads and in-flight joins
still serve) until the cooldown passes.  A failed cache write degrades
to an uncached result instead of failing the job.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.flow.engine import FlowEngine
from repro.flow.serialize import result_from_dict, result_to_dict
from repro.resilience import (
    CircuitBreaker, DEAD_LETTER_DIRNAME, DeadLetterQueue, faults,
)
from repro.service.cache import ResultCache
from repro.service.jobs import FlowJob, execute_job, execute_job_payload
from repro.service.scheduler import (
    JobHandle, JobQuarantined, JobResultPending, JobScheduler, JobStatus,
)

_EVENTS = obs.REGISTRY.counter(
    "repro_service_events_total",
    "design-service cache/dedup/run events",
    ("event",))
_JOB_WALL = obs.REGISTRY.histogram(
    "repro_service_job_wall_seconds",
    "per-job wall time by result source",
    ("source",))


class ServiceOverloaded(RuntimeError):
    """The overload breaker is open: new work is being shed.

    Raised by :meth:`DesignService.submit` for jobs that would need to
    *run*; cached results and in-flight joins are still served.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class _Pending:
    """In-flight job bookkeeping shared by every waiter."""

    def __init__(self, job: FlowJob, key: str,
                 obs_parent: Optional[Dict[str, str]] = None):
        self.job = job
        self.key = key
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.event = threading.Event()
        self.handle: Optional[JobHandle] = None
        # the submitter's span context: worker spans (thread pool) and
        # adopted payload spans (process pool) parent onto it.  An
        # explicit obs_parent (a remote caller's context, e.g. the
        # fleet router's traceparent) wins over the local one so
        # router->runner traces stitch into a single tree.
        self.obs_ctx: Optional[Dict[str, str]] = (
            obs_parent or obs.current_context())

    def resolve(self, value: Any = None,
                error: Optional[BaseException] = None) -> None:
        self.value = value
        self.error = error
        self.event.set()


class ServiceResult:
    """Handle on one submitted job's (possibly cached) result."""

    def __init__(self, job: FlowJob, source: str,
                 value: Any = None, pending: Optional[_Pending] = None):
        self.job = job
        self.source = source          # 'cache-memory' | 'cache-disk'
        self._value = value           # | 'run' | 'inflight'
        self._pending = pending

    def done(self) -> bool:
        return self._pending is None or self._pending.event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        if self._pending is None:
            return self._value
        if not self._pending.event.wait(timeout):
            handle = self._pending.handle
            raise JobResultPending(
                self._pending.key,
                handle.status.value if handle else "pending",
                handle.attempts if handle else 0,
                timeout, label=self.job.label)
        if self._pending.error is not None:
            raise self._pending.error
        return self._pending.value

    @property
    def wall_s(self) -> float:
        if self._pending is not None and self._pending.handle is not None:
            return self._pending.handle.wall_s
        return 0.0

    def __repr__(self):
        state = "done" if self.done() else "pending"
        return f"<ServiceResult {self.job.label} {self.source} {state}>"


class DesignService:
    """The concurrent design-generation service."""

    def __init__(self, engine: Optional[FlowEngine] = None,
                 cache_dir: Optional[str] = None,
                 workers: int = 1, pool: str = "auto",
                 default_timeout: Optional[float] = None,
                 default_retries: int = 0,
                 crash_retries: int = 2,
                 overload_threshold: int = 3,
                 overload_cooldown_s: float = 30.0,
                 cache: Optional[Any] = None):
        self.engine = engine or FlowEngine()
        # a custom strategy object defeats content hashing and pickling
        self._cacheable = self.engine._strategy_override is None
        # `cache` accepts any CacheBackend (e.g. the fleet tier's
        # PeerFetchCache); cache_dir remains the plain-disk shorthand
        if cache is not None and self._cacheable:
            self.cache = cache
        else:
            self.cache = (ResultCache(cache_dir)
                          if cache_dir and self._cacheable else None)
        self.scheduler = JobScheduler(
            workers=workers,
            mode="thread" if not self._cacheable else pool,
            default_timeout=default_timeout,
            default_retries=default_retries,
            crash_retries=crash_retries)
        # dead-letter records persist next to the result cache so one
        # directory carries the whole service state; memory-only else
        dl_root = cache_dir or getattr(self.cache, "root", None)
        self.dead_letter = DeadLetterQueue(
            os.path.join(dl_root, DEAD_LETTER_DIRNAME)
            if self.cache is not None and dl_root else None)
        # trips after `overload_threshold` dead-letters with no
        # successful completion in between; while open, submit() sheds
        # work that would need to run
        self._overload = CircuitBreaker(
            "service.admission",
            failure_threshold=overload_threshold,
            cooldown_s=overload_cooldown_s)
        # per-job flow observer (the HTTP server streams live task
        # events through this); called as factory(job, key)
        self._observer_factory = None
        self._memory: Dict[str, Any] = {}
        self._pending: Dict[str, _Pending] = {}
        self._lock = threading.Lock()
        self._listeners: List[Any] = []

    @property
    def overload_state(self) -> str:
        """Admission breaker state: 'closed', 'half-open' or 'open'."""
        return self._overload.state

    # ------------------------------------------------------------------
    # Lifecycle listeners (the HTTP front end's event feed).
    # ------------------------------------------------------------------
    def add_listener(self, listener) -> None:
        """Register ``listener(event, job, key, info)``.

        Events: ``"lookup"`` (info carries ``source``), ``"scheduled"``
        (the job will run on the pool), ``"done"`` (terminal; info
        carries ``status``, ``attempts``, ``wall_s`` and ``error``).
        Listeners run on service/driver threads and must not block;
        exceptions are swallowed.
        """
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def set_tracer_factory(self, factory) -> None:
        """Install (or clear) the per-job flow-observer factory.

        ``factory(job, key)`` must return a
        :class:`~repro.flow.task.FlowObserver`; it applies to
        thread-pool executions scheduled after the call (process
        workers run their flows unobserved).
        """
        self._observer_factory = factory

    @staticmethod
    def _served(job: FlowJob, source: str, event: str) -> None:
        """Account one submission answered without running a flow."""
        obs.event("service.lookup", source=source,
                  app=job.app, mode=job.mode)
        _EVENTS.inc(event=event)
        _JOB_WALL.observe(0.0, source=source)

    def _notify(self, event: str, job: FlowJob, key: str,
                **info: Any) -> None:
        for listener in list(self._listeners):
            try:
                listener(event, job, key, dict(info))
            except Exception:
                pass  # a broken listener must never take down a job

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """Live service state for health endpoints and operators."""
        import repro

        with self._lock:
            pending = len(self._pending)
            memory = len(self._memory)
        cache_stats = None
        if self.cache is not None:
            try:
                cache_stats = {
                    "entries": len(self.cache),
                    "bytes": self.cache.size_bytes(),
                    "quarantined": sum(
                        1 for _ in self.cache.quarantined()),
                    "hits": self.cache.stats.hits,
                    "misses": self.cache.stats.misses,
                    "writes": self.cache.stats.writes,
                    "corrupt": self.cache.stats.corrupt,
                }
            except OSError:
                cache_stats = None     # a sick disk must not fail health
        return {
            # the router refuses mixed-version runners off this field
            "version": repro.__version__,
            "overload": self._overload.snapshot(),
            "scheduler": {
                "mode": self.scheduler.mode,
                "workers": self.scheduler.workers,
                "inflight": self.scheduler.inflight,
                "pool_rebuilds": self.scheduler.pool_rebuilds,
            },
            "pending_jobs": pending,
            "memory_entries": memory,
            "cache_dir": getattr(self.cache, "root", None),
            "cache": cache_stats,
            "dead_letter": len(self.dead_letter),
        }

    def lookup(self, job: FlowJob) -> Optional[ServiceResult]:
        """A result this service can serve *without* scheduling work.

        Checks memory, the disk cache, and in-flight dedup; returns
        None when the job would have to run.  Never trips admission
        control -- the HTTP front end uses this to keep serving cached
        results while shedding new work.
        """
        key = job.key()
        with self._lock:
            held = self._held(job, key)
        if held is not None:
            return held
        record = self._read_cache(key)
        with self._lock:
            held = self._held(job, key)
            if held is None and record is not None:
                self._memory[key] = record
                held = ServiceResult(job, "cache-disk", value=record)
        return held

    def _held(self, job: FlowJob, key: str,
              served: bool = False) -> Optional[ServiceResult]:
        """The memory hit or in-flight join for ``key`` (lock held);
        ``served`` counts and announces it as a submission's answer."""
        if key in self._memory:
            held = ServiceResult(job, "cache-memory", value=self._memory[key])
            event = "cache_hit_memory"
        elif key in self._pending:
            held = ServiceResult(job, "inflight", pending=self._pending[key])
            event = "dedup"
        else:
            return None
        if served:
            self._served(job, held.source, event)
            self._notify("lookup", job, key, source=held.source)
        return held

    def _read_cache(self, key: str) -> Optional[Any]:
        # outside the lock: a cache backend may go to fleet peers, and a
        # slow peer must not stall lookups of keys this node holds
        return self.cache.get(key) if self.cache is not None else None

    # ------------------------------------------------------------------
    def job_for(self, app: str, mode: str, **kwargs) -> FlowJob:
        """A job matching this service's engine configuration."""
        return FlowJob(app=app, mode=mode,
                       intensity_threshold=self.engine.intensity_threshold,
                       **kwargs)

    def submit(self, job: FlowJob,
               obs_parent: Optional[Dict[str, str]] = None
               ) -> ServiceResult:
        key = job.key()
        with self._lock:
            held = self._held(job, key, served=True)
        if held is not None:
            return held
        record = self._read_cache(key)
        with self._lock:
            # the cache read ran unlocked: another submit may have
            # started or finished this key meanwhile
            held = self._held(job, key, served=True)
            if held is not None:
                return held
            if record is not None:
                self._served(job, "cache-disk", "cache_hit_disk")
                self._memory[key] = record
                self._notify("lookup", job, key, source="cache-disk")
                return ServiceResult(job, "cache-disk", value=record)
            if self.cache is not None:
                _EVENTS.inc(event="cache_miss")
            if self.dead_letter.contains(key):
                # quarantined payloads never reach the pool again
                self._served(job, "dead-letter", "dead_letter_hit")
                record = self.dead_letter.get(key) or {}
                refused = _Pending(job, key)
                refused.resolve(error=JobQuarantined(
                    f"{job.label} is dead-lettered "
                    f"({record.get('reason', 'unknown')}); "
                    f"release it via `repro service dead-letter --clear`",
                    key=key, crashes=record.get("crashes", 0)))
                self._notify("lookup", job, key, source="dead-letter")
                return ServiceResult(job, "dead-letter", pending=refused)
            if not self._overload.allow():
                obs.event("service.overloaded", app=job.app, mode=job.mode)
                _EVENTS.inc(event="overload_rejected")
                self._notify("lookup", job, key, source="shed",
                             retry_after_s=self._overload.cooldown_s)
                raise ServiceOverloaded(
                    f"service overloaded (admission breaker open after "
                    f"{self._overload.trips} trip(s)); shedding "
                    f"{job.label}",
                    retry_after_s=self._overload.cooldown_s)
            pending = _Pending(job, key, obs_parent=obs_parent)
            self._pending[key] = pending
        return self._schedule(pending)

    def _schedule(self, pending: _Pending) -> ServiceResult:
        job = pending.job
        if self.scheduler.mode == "process":
            # the extra arg rides outside spec(): it must not perturb
            # the content hash.  Workers inherit $REPRO_TRACE_DIR sinks
            # on their own; collect_obs ships spans back for adoption.
            fn, args = execute_job_payload, (job.spec(), obs.enabled())
        else:
            parent = pending.obs_ctx
            factory = self._observer_factory

            def fn():
                with obs.span("service.job", parent=parent,
                              app=job.app, mode=job.mode,
                              key=pending.key[:12]):
                    observer = (factory(job, pending.key)
                                if factory is not None else None)
                    return execute_job(job, engine=self._engine_for(job),
                                       observer=observer)
            args = ()
        handle, created = self.scheduler.submit(
            pending.key, fn, *args,
            timeout=job.timeout_s, retries=job.retries)
        pending.handle = handle
        if created:
            _EVENTS.inc(event="jobs_run")
        self._notify("scheduled", job, pending.key, created=created)
        handle.add_done_callback(
            lambda done: self._complete(pending, done))
        return ServiceResult(job, "run", pending=pending)

    def _engine_for(self, job: FlowJob) -> FlowEngine:
        if self.engine._strategy_override is not None:
            return self.engine
        if job.intensity_threshold == self.engine.intensity_threshold:
            return self.engine
        return FlowEngine(intensity_threshold=job.intensity_threshold)

    # ------------------------------------------------------------------
    def _complete(self, pending: _Pending, handle: JobHandle) -> None:
        """Driver-thread callback: convert, persist, account, release."""
        job = pending.job
        if handle.status is not JobStatus.SUCCEEDED:
            if handle.status is JobStatus.QUARANTINED:
                self.dead_letter.add(
                    pending.key, job.spec(),
                    reason=str(handle.error), attempts=handle.attempts,
                    crashes=handle.crashes)
                _EVENTS.inc(event="dead_letter")
                # each dead-letter is an admission-breaker strike
                self._overload.record_failure()
            _EVENTS.inc(event="jobs_failed")
            _JOB_WALL.observe(handle.wall_s, source="run")
            with self._lock:
                self._pending.pop(pending.key, None)
            pending.resolve(error=handle.error)
            self._notify("done", job, pending.key,
                         status=handle.status.value,
                         attempts=handle.attempts, wall_s=handle.wall_s,
                         error=str(handle.error) if handle.error else None)
            return
        raw = handle._result
        try:
            if isinstance(raw, dict):          # process-pool payload
                result_dict = raw["result"]
                value = result_from_dict(result_dict)
                if raw.get("obs_spans"):
                    obs.adopt_spans(raw["obs_spans"], pending.obs_ctx)
            else:                              # in-process FlowResult
                value, result_dict = raw, None
            if self.cache is not None and self._cacheable:
                if result_dict is None:
                    result_dict = result_to_dict(value,
                                                 include_sources=True)
                try:
                    self.cache.put(pending.key, job.spec(), result_dict)
                    _EVENTS.inc(event="cache_write")
                except (faults.InjectedFault, OSError) as exc:
                    # degrade to an uncached result: the computed value
                    # must never be lost to a persistence failure
                    obs.event("service.cache_write_failed",
                              key=pending.key[:12],
                              error=type(exc).__name__)
                    _EVENTS.inc(event="cache_write_failed")
            self._overload.record_success()
            _JOB_WALL.observe(handle.wall_s, source="run")
            with self._lock:
                if self._cacheable:
                    self._memory[pending.key] = value
                self._pending.pop(pending.key, None)
            pending.resolve(value=value)
            self._notify("done", job, pending.key, status="succeeded",
                         attempts=handle.attempts, wall_s=handle.wall_s,
                         error=None)
        except BaseException as exc:
            with self._lock:
                self._pending.pop(pending.key, None)
            pending.resolve(error=exc)
            self._notify("done", job, pending.key, status="failed",
                         attempts=handle.attempts, wall_s=handle.wall_s,
                         error=f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    def run(self, job: FlowJob, timeout: Optional[float] = None) -> Any:
        """Submit and block for one job's result."""
        return self.submit(job).result(timeout)

    def run_pair(self, app: str, mode: str,
                 timeout: Optional[float] = None) -> Any:
        return self.run(self.job_for(app, mode), timeout=timeout)

    def submit_many(self, jobs: Iterable[FlowJob]) -> List[ServiceResult]:
        """Submit jobs highest-priority first."""
        ordered = sorted(jobs, key=lambda j: (-j.priority, j.app, j.mode))
        return [self.submit(job) for job in ordered]

    def stream(self, jobs: Iterable[FlowJob],
               timeout: Optional[float] = None
               ) -> Iterable[Tuple[ServiceResult, Any, Optional[BaseException]]]:
        """Yield ``(submission, result, error)`` in completion order.

        Cached results come first (they are already complete); executed
        jobs follow as the pool finishes them.
        """
        submissions = self.submit_many(jobs)
        ready = [s for s in submissions if s.done()]
        waiting = [s for s in submissions if not s.done()]
        for submission in ready:
            yield self._outcome(submission, timeout=0)
        if not waiting:
            return
        import queue as _queue

        done: "_queue.Queue[ServiceResult]" = _queue.Queue()
        for submission in waiting:
            handle = submission._pending.handle
            if handle is not None:
                handle.add_done_callback(lambda _h, s=submission:
                                         done.put(s))
            else:
                # submission joined a job whose handle was still being
                # registered; _outcome blocks on its event instead
                done.put(submission)
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        for _ in range(len(waiting)):
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            submission = done.get(timeout=remaining)
            yield self._outcome(submission, timeout=remaining)

    @staticmethod
    def _outcome(submission: ServiceResult,
                 timeout: Optional[float]):
        try:
            return submission, submission.result(timeout), None
        except BaseException as exc:
            return submission, None, exc

    # ------------------------------------------------------------------
    def close(self, cancel_pending: bool = False) -> None:
        self.scheduler.shutdown(wait=not cancel_pending,
                                cancel_pending=cancel_pending)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        # on an exception (e.g. KeyboardInterrupt mid-batch) drop queued
        # jobs rather than draining them; running attempts still finish
        self.close(cancel_pending=exc_type is not None)
        return False
