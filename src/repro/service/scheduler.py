"""Worker-pool job scheduler: parallelism, dedup, timeout, crash
recovery.

Two executor layers:

- a **work pool** (``ProcessPoolExecutor`` when requested/available,
  ``ThreadPoolExecutor`` fallback) that runs the job payloads;
- a **driver pool** of lightweight threads, one per in-flight job,
  that wraps each job with the control policy: the attempt timeout,
  crash re-queues, and cancellation checks between attempts.

An attempt that raises or times out ends the job as :class:`JobFailed`
or :class:`JobTimeout`; only an attempt that a pool breakage
interrupted runs again (below).  A flow is deterministic, so a flow
that raised once would raise again; a caller that wants another try
resubmits the job once it is terminal.

Identical jobs (same content key) submitted while one is in flight
join the existing :class:`JobHandle` instead of running twice -- the
persistent cache handles the across-run case, this handles the
within-run case.

Timeout semantics: a timed-out attempt is *abandoned* (neither threads
nor pool processes can be killed mid-task portably); the handle still
resolves promptly with :class:`JobTimeout` so callers never block on a
hung job.  An abandoned attempt that is still running occupies a pool
slot, tracked by the ``repro_scheduler_abandoned_slots`` gauge until
the stuck callable returns.  In **process** mode the slot is always
*reclaimed*: the pool is recycled (fresh workers swapped in, the old
workers terminated), so a hung payload cannot starve the pool --
attempts that were in flight on the old pool are re-queued through the
crash-recovery path below.  In thread mode the gauge is the only
remedy (threads cannot be killed).

Worker-crash recovery: a dead worker process surfaces as
``BrokenProcessPool`` (on submit or while waiting on an attempt).  The
scheduler rebuilds the pool exactly once per breakage and re-queues
the interrupted attempt -- the job did not fail, the worker did.  The
pool cannot tell which payload killed it, so a breakage is charged
only to an attempt that was alone on the pool when it broke.  Every
attempt a breakage interrupted re-runs alone -- other attempts wait
for it to finish -- so an innocent job succeeds and the culprit breaks
the pool by itself.  A job charged more than ``crash_retries``
breakages resolves as an ordinary :class:`JobFailed` naming its crash
count, so every job terminates.  A pool recycled after a timeout was
broken on purpose: that breakage is charged to no one.  A job
cancelled while its re-queued attempt waits for the pool never starts
that attempt.

Flow execution is pure Python, so the thread pool gives concurrency
but not CPU parallelism (GIL); the process pool gives real parallelism
on multi-core hosts at the cost of pickling job payloads.  ``mode=
"auto"`` picks processes when more than one worker is requested and
the platform supports it.
"""

from __future__ import annotations

import enum
import queue
import threading
import time
import weakref
from concurrent.futures import (
    BrokenExecutor, CancelledError, Future, ThreadPoolExecutor,
    TimeoutError as FutureTimeout,
)
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import obs

_QUEUE_WAIT = obs.REGISTRY.histogram(
    "repro_scheduler_queue_wait_seconds",
    "delay between job submission and its first attempt starting")
_ATTEMPTS = obs.REGISTRY.counter(
    "repro_scheduler_attempts_total",
    "job attempts by per-attempt outcome",
    ("outcome",))
_JOBS = obs.REGISTRY.counter(
    "repro_scheduler_jobs_total",
    "jobs by terminal status",
    ("status",))
_DEDUP = obs.REGISTRY.counter(
    "repro_scheduler_dedup_joins_total",
    "submissions that joined an identical in-flight job")
_ABANDONED = obs.REGISTRY.gauge(
    "repro_scheduler_abandoned_slots",
    "pool slots occupied by timed-out attempts still running")
_POOL_REBUILDS = obs.REGISTRY.counter(
    "repro_scheduler_pool_rebuilds_total",
    "work-pool replacements by trigger",
    ("reason",))


class JobStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    TIMEOUT = "timeout"
    CANCELLED = "cancelled"


class JobError(Exception):
    """Base of terminal job outcomes raised by :meth:`JobHandle.result`."""


class JobFailed(JobError):
    """The job raised (cause chained), or the worker pool broke under
    it more than ``crash_retries`` times."""


class JobTimeout(JobError):
    """The job's attempt exceeded its time budget.

    When the timeout comes from a *client-side* wait budget
    (``ReproClient.max_wait_s``), ``status``/``attempts`` carry the
    job's last observed telemetry -- mirroring
    :class:`JobResultPending` -- so the message says where the job was
    when the client gave up, not just that it did.
    """

    def __init__(self, message: str, status: Optional[str] = None,
                 attempts: Optional[int] = None):
        if status is not None or attempts is not None:
            message += (f" (last observed status={status}, "
                        f"attempts={attempts})")
        super().__init__(message)
        self.status = status
        self.attempts = attempts


class JobCancelled(JobError):
    """The job was cancelled before it produced a result."""


# ``concurrent.futures.TimeoutError`` is the builtin ``TimeoutError``
# from 3.11 on but a distinct class before; base the pending error on
# both so every caller's ``except TimeoutError`` keeps working.
_PENDING_BASES = ((FutureTimeout,) if FutureTimeout is TimeoutError
                  else (FutureTimeout, TimeoutError))


class JobResultPending(*_PENDING_BASES):
    """``result(timeout)`` expired but the job is still in flight.

    Unlike a bare ``TimeoutError`` this carries the job's live
    telemetry -- key, status, attempt count, wall time so far -- so
    callers (and batch error rows) can report something actionable.
    """

    def __init__(self, key: str, status: str, attempts: int,
                 wait_s: Optional[float], label: str = ""):
        what = label or f"job {key[:12]}"
        super().__init__(
            f"{what} not done within {wait_s}s "
            f"(status={status}, attempts={attempts})")
        self.key = key
        self.status = status
        self.attempts = attempts
        self.wait_s = wait_s


class JobHandle:
    """Future-like view of one scheduled job."""

    def __init__(self, key: str, gate: threading.Condition):
        self.key = key
        self.status = JobStatus.PENDING
        self.attempts = 0
        self.crashes = 0
        self.error: Optional[JobError] = None
        self.wall_s: float = 0.0
        self.submitted_at: float = time.perf_counter()
        self.queue_wait_s: float = 0.0
        self._result: Any = None
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._callbacks: List[Callable[["JobHandle"], None]] = []
        self._cancel_requested = False
        #: the scheduler's admission gate, woken by cancel()
        self._gate = gate
        self._driver_future: Optional[Future] = None
        self._attempt_future: Optional[Future] = None

    # ------------------------------------------------------------------
    def done(self) -> bool:
        return self._done.is_set()

    def cancelled(self) -> bool:
        return self.status is JobStatus.CANCELLED

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the outcome; raises the terminal JobError on failure.

        When the wait itself expires the raised
        :class:`JobResultPending` carries the job's current status and
        attempt count (it is still a ``TimeoutError``).
        """
        if not self._done.wait(timeout):
            raise JobResultPending(self.key, self.status.value,
                                   self.attempts, timeout)
        if self.status is JobStatus.SUCCEEDED:
            return self._result
        raise self.error

    def cancel(self) -> bool:
        """Request cancellation; True if the job will not produce a result.

        A queued job is cancelled immediately; a running job is
        interrupted at the next attempt boundary (the in-flight attempt
        is abandoned, see module docstring).
        """
        with self._lock:
            if self.done():
                return self.cancelled()
            self._cancel_requested = True
            driver = self._driver_future
            attempt = self._attempt_future
        if driver is not None and driver.cancel():
            # never started: resolve here, the driver will not run
            self._finish(JobStatus.CANCELLED,
                         error=JobCancelled(f"job {self.key[:12]} "
                                            f"cancelled before start"))
            return True
        if attempt is not None:
            attempt.cancel()
        # an attempt waiting in the scheduler's _admit sees it at once
        with self._gate:
            self._gate.notify_all()
        return True

    def add_done_callback(self,
                          callback: Callable[["JobHandle"], None]) -> None:
        with self._lock:
            if not self.done():
                self._callbacks.append(callback)
                return
        callback(self)

    # ------------------------------------------------------------------
    def _finish(self, status: JobStatus, result: Any = None,
                error: Optional[JobError] = None,
                wall_s: float = 0.0) -> None:
        with self._lock:
            if self.done():
                return
            self.status = status
            self._result = result
            self.error = error
            self.wall_s = wall_s
            callbacks = list(self._callbacks)
            self._callbacks.clear()
            self._done.set()
        for callback in callbacks:
            callback(self)

    def __repr__(self):
        return (f"<JobHandle {self.key[:12]} {self.status.value} "
                f"attempts={self.attempts}>")


def _make_work_pool(mode: str, workers: int):
    """Build the work executor; returns (executor, resolved_mode, note)."""
    if mode not in ("thread", "process", "auto"):
        raise ValueError(f"unknown scheduler mode {mode!r}")
    want_processes = (mode == "process"
                      or (mode == "auto" and workers > 1))
    if want_processes:
        try:
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor

            if "fork" in mp.get_all_start_methods():
                ctx = mp.get_context("fork")
            else:
                ctx = mp.get_context()
            return (ProcessPoolExecutor(max_workers=workers,
                                        mp_context=ctx),
                    "process", None)
        except (ImportError, OSError, NotImplementedError,
                PermissionError, ValueError) as exc:
            note = (f"process pool unavailable "
                    f"({type(exc).__name__}: {exc}); using threads")
            return (ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-work"),
                "thread", note)
    return (ThreadPoolExecutor(max_workers=workers,
                               thread_name_prefix="repro-work"),
            "thread", None)


class JobScheduler:
    """Runs keyed jobs on a bounded worker pool with a timeout."""

    def __init__(self, workers: int = 1, mode: str = "auto",
                 default_timeout: Optional[float] = None,
                 crash_retries: int = 2):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if crash_retries < 0:
            raise ValueError(
                f"crash_retries must be >= 0, got {crash_retries}")
        self.workers = workers
        self.default_timeout = default_timeout
        #: pool breakages one job may ride out before it fails
        self.crash_retries = crash_retries
        self._pool, self.mode, self.fallback_note = \
            _make_work_pool(mode, workers)
        self._drivers = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-drive")
        self._lock = threading.Lock()
        #: admission to the work pool: an attempt that must run alone
        #: waits for the pool to empty, and holds every other back
        self._gate = threading.Condition(self._lock)
        #: attempts in flight on the current pool -> runs alone
        self._live: Dict[JobHandle, bool] = {}
        self._solo_waiting = 0
        #: dead pool -> frozenset of the attempts in flight on it when
        #: it was replaced (empty when the breakage was deliberate)
        self._broken = weakref.WeakKeyDictionary()
        self._inflight: Dict[str, JobHandle] = {}
        self.dedup_joins = 0
        self.pool_rebuilds = 0
        self._closed = False

    @property
    def inflight(self) -> int:
        """Jobs currently queued or running (dedup-joined jobs count
        once)."""
        with self._lock:
            return len(self._inflight)

    # ------------------------------------------------------------------
    def submit(self, key: str, fn: Callable, *args,
               timeout: Optional[float] = None,
               **kwargs) -> Tuple[JobHandle, bool]:
        """Schedule ``fn(*args, **kwargs)`` under ``key``.

        Returns ``(handle, created)``; ``created`` is False when an
        identical job was already in flight and this call joined it.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is shut down")
            existing = self._inflight.get(key)
            if existing is not None and not existing.done():
                self.dedup_joins += 1
                _DEDUP.inc()
                return existing, False
            handle = JobHandle(key, self._gate)
            self._inflight[key] = handle
        handle.add_done_callback(self._retire)
        timeout = self.default_timeout if timeout is None else timeout
        driver = self._drivers.submit(
            self._drive, handle, fn, args, kwargs, timeout)
        with handle._lock:
            handle._driver_future = driver
        # cancel() may have raced the driver registration
        if handle._cancel_requested and driver.cancel():
            handle._finish(JobStatus.CANCELLED,
                           error=JobCancelled(f"job {key[:12]} cancelled"))
        return handle, True

    def _retire(self, handle: JobHandle) -> None:
        with self._lock:
            if self._inflight.get(handle.key) is handle:
                del self._inflight[handle.key]

    # ------------------------------------------------------------------
    # Pool replacement (worker death / hung-slot reclamation).
    # ------------------------------------------------------------------
    def _replace_pool(self, dead, reason: str,
                      kill_workers: bool = False) -> bool:
        """Swap a fresh work pool in for ``dead``; idempotent per pool.

        Several driver threads may observe the same breakage; only the
        first to arrive rebuilds (the swap is compare-and-set on the
        pool object) and records which attempts were in flight on the
        dead pool.  With ``kill_workers`` the old pool's worker
        processes are terminated best-effort -- that is what turns a
        hung-slot recycle into a reclaimed slot, and it deliberately
        breaks the old pool so any attempt still riding it re-queues
        through the crash path onto the new pool, charged nothing.
        """
        with self._gate:
            if self._closed or self._pool is not dead:
                return False
            self._pool, _resolved, _note = _make_work_pool(
                self.mode, self.workers)
            self.pool_rebuilds += 1
            self._broken[dead] = (frozenset() if kill_workers
                                  else frozenset(self._live))
            self._live = {}
            self._gate.notify_all()
        _POOL_REBUILDS.inc(reason=reason)
        obs.event("scheduler.pool_rebuild", reason=reason)
        if kill_workers:
            procs = getattr(dead, "_processes", None)
            if procs:
                for proc in list(procs.values()):
                    try:
                        proc.terminate()
                    except Exception:
                        pass
        try:
            dead.shutdown(wait=False)
        except Exception:
            pass
        return True

    def _admit(self, handle: JobHandle, solo: bool):
        """Wait until ``handle``'s next attempt may use the work pool,
        and return the pool.  A ``solo`` attempt waits for the pool to
        empty; while one waits or runs, no other attempt is admitted.
        Returns None, admitting nothing, as soon as the job is
        cancelled."""
        with self._gate:
            if solo:
                self._solo_waiting += 1
                while self._live and not handle._cancel_requested:
                    self._gate.wait()
                self._solo_waiting -= 1
            else:
                while ((self._solo_waiting or any(self._live.values()))
                       and not handle._cancel_requested):
                    self._gate.wait()
            if handle._cancel_requested:
                self._gate.notify_all()
                return None
            self._live[handle] = solo
            return self._pool

    def _release(self, handle: JobHandle) -> None:
        with self._gate:
            self._live.pop(handle, None)
            self._gate.notify_all()

    # ------------------------------------------------------------------
    def _drive(self, handle: JobHandle, fn: Callable, args, kwargs,
               timeout: Optional[float]) -> None:
        """Run ``handle``'s job once.  The loop repeats only to re-queue
        an attempt that a pool breakage interrupted; an attempt that
        raises or times out is terminal."""
        start = time.perf_counter()
        handle.queue_wait_s = start - handle.submitted_at
        _QUEUE_WAIT.observe(handle.queue_wait_s)
        error: Optional[JobError] = None
        solo = False      # once a breakage hits it, it runs alone
        while error is None and not handle._cancel_requested:
            handle.status = JobStatus.RUNNING
            pool = self._admit(handle, solo)
            if pool is None:
                break
            handle.attempts += 1
            try:
                try:
                    future = pool.submit(fn, *args, **kwargs)
                except BrokenExecutor:
                    # the pool died before this attempt even queued
                    error = self._on_crash(handle, pool)
                    solo = True
                    continue
                except RuntimeError as exc:   # pool shut down under us
                    error = JobCancelled(f"job {handle.key[:12]}: {exc}")
                    break
                with handle._lock:
                    handle._attempt_future = future
                try:
                    result = future.result(timeout)
                except FutureTimeout:
                    if not future.cancel():
                        # the attempt is genuinely running: its slot is
                        # occupied until the stuck callable returns
                        _ABANDONED.inc()
                        future.add_done_callback(
                            lambda _f: _ABANDONED.dec())
                        if self.mode == "process":
                            self._replace_pool(pool,
                                               reason="timeout-reclaim",
                                               kill_workers=True)
                    _ATTEMPTS.inc(outcome="timeout")
                    error = JobTimeout(
                        f"job {handle.key[:12]} exceeded {timeout}s")
                except CancelledError:
                    _ATTEMPTS.inc(outcome="cancelled")
                    error = JobCancelled(
                        f"job {handle.key[:12]} attempt cancelled")
                except BrokenExecutor:
                    # a worker died mid-attempt: recover the pool and
                    # re-queue the attempt alone
                    error = self._on_crash(handle, pool)
                    solo = True
                except BaseException as exc:
                    _ATTEMPTS.inc(outcome="error")
                    error = JobFailed(
                        f"job {handle.key[:12]} failed: {exc!r}")
                    error.__cause__ = exc
                else:
                    if not handle._cancel_requested:
                        _ATTEMPTS.inc(outcome="ok")
                        _JOBS.inc(status="succeeded")
                        handle._finish(JobStatus.SUCCEEDED, result=result,
                                       wall_s=time.perf_counter() - start)
                        return
                    # cancel() already promised "no result" to its
                    # caller; the attempt racing to completion must not
                    # un-cancel the job
                    _ATTEMPTS.inc(outcome="cancelled")
                    error = JobCancelled(
                        f"job {handle.key[:12]} cancelled while running")
            finally:
                self._release(handle)
        if handle._cancel_requested \
                and not isinstance(error, JobCancelled):
            error = JobCancelled(
                f"job {handle.key[:12]} cancelled after "
                f"{handle.attempts} attempt"
                f"{'s' if handle.attempts != 1 else ''}")
        status = (JobStatus.CANCELLED
                  if isinstance(error, JobCancelled)
                  else JobStatus.TIMEOUT
                  if isinstance(error, JobTimeout)
                  else JobStatus.FAILED)
        _JOBS.inc(status=status.value)
        handle._finish(status, error=error,
                       wall_s=time.perf_counter() - start)

    def _on_crash(self, handle: JobHandle, pool) -> Optional[JobError]:
        """One pool breakage observed by ``handle``'s driver.

        The breakage counts as a crash of ``handle`` only when its
        attempt was alone on the pool when it broke.  Returns the
        terminal error once the crash budget is spent, else None: the
        attempt is re-queued on the rebuilt pool.
        """
        _ATTEMPTS.inc(outcome="crash")
        self._replace_pool(pool, reason="worker-crash")
        with self._lock:
            # no record: the scheduler closed before it could rebuild
            suspects = self._broken.get(pool, frozenset((handle,)))
        if suspects != {handle}:
            obs.event("scheduler.worker_crash", key=handle.key[:12],
                      crashes=handle.crashes, charged=False)
            return None
        handle.crashes += 1
        obs.event("scheduler.worker_crash", key=handle.key[:12],
                  crashes=handle.crashes, charged=True)
        if handle.crashes > self.crash_retries:
            return JobFailed(
                f"job {handle.key[:12]} failed: the worker pool broke "
                f"under it {handle.crashes} times (crash budget "
                f"{self.crash_retries})")
        return None

    # ------------------------------------------------------------------
    @staticmethod
    def as_completed(handles: Iterable[JobHandle],
                     timeout: Optional[float] = None
                     ) -> Iterator[JobHandle]:
        """Yield handles in completion order (like futures.as_completed)."""
        handles = list(handles)
        done: "queue.Queue[JobHandle]" = queue.Queue()
        for handle in handles:
            handle.add_done_callback(done.put)
        deadline = None if timeout is None else time.monotonic() + timeout
        for _ in range(len(handles)):
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            try:
                yield done.get(timeout=remaining)
            except queue.Empty:
                raise FutureTimeout(
                    f"jobs not done within {timeout}s") from None

    def shutdown(self, wait: bool = True,
                 cancel_pending: bool = False) -> None:
        with self._lock:
            self._closed = True
            inflight = list(self._inflight.values())
            pool = self._pool
        if cancel_pending:
            for handle in inflight:
                handle.cancel()
        self._drivers.shutdown(wait=wait)
        pool.shutdown(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown(wait=True)
        return False
