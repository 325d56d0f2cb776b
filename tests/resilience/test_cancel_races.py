"""Cancellation races: cancel landing in the scheduler's windows.

Each test aims ``cancel()`` at a specific gap in the job lifecycle --
a crash re-queue waiting for the pool, behind a dedup join, racing
submission itself -- and asserts the invariant that matters: every handle resolves, no
waiter hangs, and a cancelled job reports CANCELLED exactly once.
"""

import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.service.scheduler import (
    JobCancelled, JobScheduler, JobStatus,
)


@pytest.fixture
def scheduler():
    sched = JobScheduler(workers=2, mode="thread")
    yield sched
    sched.shutdown(wait=True)


class TestCancelBetweenAttempts:
    def test_cancel_in_solo_wait_skips_rerun(self, scheduler):
        """A breakage interrupts two attempts; one re-runs alone while
        the other waits for the pool to empty.  Cancel lands in that
        wait: the waiting attempt must never start again.

        The payloads raise ``BrokenProcessPool`` themselves, which is
        what the driver sees from a process pool whose worker died, so
        the order of events is fixed by the test."""
        shared_rerun = threading.Event()
        victim_started = threading.Event()
        release = threading.Event()
        victim_calls = []
        shared_calls = []

        def shared():
            shared_calls.append(1)
            if len(shared_calls) == 1:
                assert victim_started.wait(5)
                raise BrokenProcessPool("worker died")
            shared_rerun.set()      # re-running alone on the new pool
            assert release.wait(5)
            return "shared"

        def victim():
            victim_calls.append(1)
            if len(victim_calls) == 1:
                victim_started.set()
                assert shared_rerun.wait(5)
                raise BrokenProcessPool("worker died")
            return "ran again"

        first, _ = scheduler.submit("shared", shared)
        handle, _ = scheduler.submit("victim", victim)
        deadline = time.monotonic() + 5
        while scheduler._solo_waiting == 0:
            assert time.monotonic() < deadline, "victim never re-queued"
            time.sleep(0.005)
        assert handle.cancel()
        release.set()
        with pytest.raises(JobCancelled):
            handle.result(timeout=5)
        assert handle.status is JobStatus.CANCELLED
        assert len(victim_calls) == 1 and handle.attempts == 1
        # neither breakage was charged: both attempts were on the pool
        assert handle.crashes == 0 and first.crashes == 0
        assert first.result(timeout=5) == "shared"
        assert first.attempts == 2
        assert scheduler._live == {} and scheduler._solo_waiting == 0


    def test_cancel_in_solo_wait_resolves_without_the_holder(
            self, scheduler):
        """The same wait, but the re-run holding the pool does not end:
        the cancelled job must resolve at once, not when the holder
        releases the pool."""
        shared_rerun = threading.Event()
        victim_started = threading.Event()
        release = threading.Event()
        shared_calls = []

        def shared():
            shared_calls.append(1)
            if len(shared_calls) == 1:
                assert victim_started.wait(5)
                raise BrokenProcessPool("worker died")
            shared_rerun.set()      # re-running alone on the new pool
            assert release.wait(5)
            return "shared"

        def victim():
            victim_started.set()
            assert shared_rerun.wait(5)
            raise BrokenProcessPool("worker died")

        first, _ = scheduler.submit("shared", shared)
        handle, _ = scheduler.submit("victim", victim)
        deadline = time.monotonic() + 5
        while scheduler._solo_waiting == 0:
            assert time.monotonic() < deadline, "victim never re-queued"
            time.sleep(0.005)
        try:
            assert handle.cancel()
            with pytest.raises(JobCancelled):
                handle.result(timeout=1.0)
            assert handle.status is JobStatus.CANCELLED
            assert handle.attempts == 1
            assert scheduler._solo_waiting == 0
        finally:
            release.set()
        assert first.result(timeout=5) == "shared"
        assert scheduler._live == {}


class TestCancelBehindDedupJoin:
    def test_joiner_sees_cancellation_of_the_shared_job(self, scheduler):
        release = threading.Event()
        started = threading.Event()

        def task():
            started.set()
            release.wait(5)
            return "x"

        first, created1 = scheduler.submit("shared", task)
        assert started.wait(5)
        joined, created2 = scheduler.submit("shared", task)
        assert created1 and not created2
        assert joined is first          # one handle, two waiters
        waiter_error = []
        waiter_done = threading.Event()

        def wait_on_join():
            try:
                joined.result(timeout=5)
            except BaseException as exc:
                waiter_error.append(exc)
            waiter_done.set()

        thread = threading.Thread(target=wait_on_join)
        thread.start()
        first.cancel()
        release.set()                   # in-flight attempt drains
        assert waiter_done.wait(5)
        thread.join(5)
        assert waiter_error and isinstance(waiter_error[0], JobCancelled)
        assert first.status is JobStatus.CANCELLED

    def test_cancelled_key_can_be_resubmitted(self, scheduler):
        release = threading.Event()
        handle, _ = scheduler.submit("key", release.wait, 5)
        handle.cancel()
        release.set()
        with pytest.raises(JobCancelled):
            handle.result(timeout=5)
        fresh, created = scheduler.submit("key", lambda: "second life")
        assert created and fresh is not handle
        assert fresh.result(timeout=5) == "second life"


class TestCancelDuringSubmission:
    def test_cancel_racing_submit_never_hangs(self, scheduler):
        """Hammer the submit/cancel race; every handle must resolve."""
        outcomes = []
        for i in range(50):
            handle, _ = scheduler.submit(f"race{i}", lambda: "ran")
            handle.cancel()
            try:
                outcomes.append(handle.result(timeout=5))
            except JobCancelled:
                outcomes.append("cancelled")
        assert len(outcomes) == 50
        assert set(outcomes) <= {"ran", "cancelled"}

    def test_cancel_from_another_thread_during_submit(self, scheduler):
        """Cancel fired concurrently with submit() itself."""
        for i in range(20):
            barrier = threading.Barrier(2, timeout=5)
            holder = {}
            ready = threading.Event()

            def canceller():
                barrier.wait()
                ready.wait(5)
                holder["handle"].cancel()

            thread = threading.Thread(target=canceller)
            thread.start()
            barrier.wait()
            handle, _ = scheduler.submit(f"t{i}", lambda: "ran")
            holder["handle"] = handle
            ready.set()
            try:
                result = handle.result(timeout=5)
                assert result == "ran"
            except JobCancelled:
                assert handle.status is JobStatus.CANCELLED
            thread.join(5)

    def test_queued_behind_busy_pool_cancels_cleanly(self):
        sched = JobScheduler(workers=1, mode="thread")
        try:
            block = threading.Event()
            busy, _ = sched.submit("busy", block.wait, 5)
            queued, _ = sched.submit("queued", lambda: "never")
            assert queued.cancel()
            with pytest.raises(JobCancelled):
                queued.result(timeout=5)
            block.set()
            assert busy.result(timeout=5) is True
        finally:
            sched.shutdown(wait=True)
