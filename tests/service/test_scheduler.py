"""JobScheduler tests: parallelism, dedup, timeout, failure, cancel.

Timing discipline: fake tasks block on Events (released by the test)
rather than sleeping, so nothing here waits anywhere near 1s in CI.
"""

import sys
import threading

import pytest

from repro.service.scheduler import (
    JobCancelled, JobFailed, JobScheduler, JobStatus, JobTimeout,
)


@pytest.fixture
def scheduler():
    sched = JobScheduler(workers=2, mode="thread")
    yield sched
    sched.shutdown(wait=True)


class TestExecution:
    def test_runs_and_returns(self, scheduler):
        handle, created = scheduler.submit("k1", lambda: 41 + 1)
        assert created
        assert handle.result(timeout=5) == 42
        assert handle.status is JobStatus.SUCCEEDED
        assert handle.attempts == 1

    def test_jobs_run_in_parallel(self, scheduler):
        """Two jobs both enter RUNNING at once on a 2-worker pool."""
        both_started = threading.Barrier(3, timeout=5)
        release = threading.Event()

        def task():
            both_started.wait()
            release.wait(5)
            return "done"

        h1, _ = scheduler.submit("a", task)
        h2, _ = scheduler.submit("b", task)
        both_started.wait()      # would time out if the pool were serial
        release.set()
        assert h1.result(5) == "done"
        assert h2.result(5) == "done"

    def test_as_completed_yields_in_finish_order(self, scheduler):
        gate_a = threading.Event()

        def slow():
            gate_a.wait(5)
            return "slow"

        h_slow, _ = scheduler.submit("slow", slow)
        h_fast, _ = scheduler.submit("fast", lambda: "fast")
        ordered = []
        for handle in JobScheduler.as_completed([h_slow, h_fast],
                                                timeout=5):
            ordered.append(handle.key)
            gate_a.set()
        assert ordered == ["fast", "slow"]

    def test_pool_admission_drains_under_contention(self):
        """More drivers than cores and a thread switch every few
        bytecodes: every job completes and the admission gate ends
        empty (a lost release would hang a job or leave it behind)."""
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        sched = JobScheduler(workers=8, mode="thread")
        try:
            handles = [sched.submit(f"k{i}", pow, i, 2)[0]
                       for i in range(400)]
            assert [h.result(timeout=30) for h in handles] \
                == [i * i for i in range(400)]
        finally:
            sys.setswitchinterval(saved)
            sched.shutdown(wait=True)
        assert sched._live == {} and sched._solo_waiting == 0


class TestDedup:
    def test_identical_inflight_jobs_share_one_handle(self, scheduler):
        release = threading.Event()
        runs = []

        def task():
            runs.append(1)
            release.wait(5)
            return "x"

        h1, created1 = scheduler.submit("same", task)
        h2, created2 = scheduler.submit("same", task)
        assert created1 and not created2
        assert h1 is h2
        assert scheduler.dedup_joins == 1
        release.set()
        assert h1.result(5) == "x"
        assert len(runs) == 1

    def test_completed_key_can_run_again(self, scheduler):
        h1, _ = scheduler.submit("k", lambda: 1)
        h1.result(5)
        h2, created = scheduler.submit("k", lambda: 2)
        assert created and h2 is not h1
        assert h2.result(5) == 2


class TestTimeout:
    def test_hanging_job_times_out(self, scheduler):
        hang = threading.Event()
        handle, _ = scheduler.submit("hang", lambda: hang.wait(5),
                                     timeout=0.05)
        with pytest.raises(JobTimeout):
            handle.result(timeout=5)
        assert handle.status is JobStatus.TIMEOUT
        hang.set()               # let the abandoned worker finish fast

    def test_resubmission_after_timeout_runs_again(self, scheduler):
        """The timed-out attempt is terminal; a resubmission of the
        same key is a new job that runs the payload again."""
        gate = threading.Event()
        calls = []

        def hangs_once():
            calls.append(1)
            if len(calls) == 1:
                gate.wait(5)     # first run: hangs past the timeout
            return "recovered"

        first, _ = scheduler.submit("fh", hangs_once, timeout=0.05)
        with pytest.raises(JobTimeout):
            first.result(timeout=5)
        assert first.attempts == 1 and len(calls) == 1
        second, created = scheduler.submit("fh", hangs_once, timeout=5)
        assert created and second is not first
        assert second.result(timeout=5) == "recovered"
        assert second.attempts == 1 and len(calls) == 2
        gate.set()


class TestFailure:
    def test_raising_job_runs_once_and_fails_with_cause(self, scheduler):
        """No retry and no backoff sleep: the job ends after one run."""
        calls = []

        def always_fails():
            calls.append(1)
            raise ValueError("nope")

        handle, _ = scheduler.submit("bad", always_fails)
        with pytest.raises(JobFailed) as excinfo:
            handle.result(timeout=5)
        assert handle.status is JobStatus.FAILED
        assert handle.attempts == 1 and len(calls) == 1
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert handle.wall_s < 0.25

    def test_resubmission_after_failure_runs_again(self, scheduler):
        calls = []

        def fails_once():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return "ok"

        first, _ = scheduler.submit("flaky", fails_once)
        with pytest.raises(JobFailed):
            first.result(timeout=5)
        second, created = scheduler.submit("flaky", fails_once)
        assert created and second is not first
        assert second.result(timeout=5) == "ok"
        assert (first.attempts, second.attempts) == (1, 1)
        assert len(calls) == 2


class TestCancellation:
    def test_queued_job_cancels_immediately(self):
        sched = JobScheduler(workers=1, mode="thread")
        try:
            block = threading.Event()
            running, _ = sched.submit("busy", lambda: block.wait(5))
            queued, _ = sched.submit("queued", lambda: "never")
            assert queued.cancel()
            with pytest.raises(JobCancelled):
                queued.result(timeout=5)
            assert queued.status is JobStatus.CANCELLED
            block.set()
            running.result(timeout=5)
        finally:
            sched.shutdown(wait=True)

    def test_cancel_after_done_is_false(self, scheduler):
        handle, _ = scheduler.submit("done", lambda: 7)
        handle.result(timeout=5)
        assert handle.cancel() is False


class TestFallback:
    def test_thread_mode_resolves_to_threads(self, scheduler):
        assert scheduler.mode == "thread"
        assert scheduler.fallback_note is None

    def test_auto_with_one_worker_uses_threads(self):
        sched = JobScheduler(workers=1, mode="auto")
        try:
            assert sched.mode == "thread"
        finally:
            sched.shutdown(wait=True)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            JobScheduler(workers=0)
        with pytest.raises(ValueError):
            JobScheduler(workers=1, mode="fiber")
