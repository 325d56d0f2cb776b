"""Worker-crash containment and timeout-slot reclamation.

The crash payloads below hard-exit the pool worker (``os._exit``), the
same failure shape a segfault or OOM-kill produces, so these tests
exercise the real ``BrokenProcessPool`` recovery path end to end.
Process-pool tests skip on hosts without multiprocessing support.
"""

import os
import threading
import time

import pytest

from repro.service.scheduler import (
    JobFailed, JobResultPending, JobScheduler, JobStatus, JobTimeout,
    _ABANDONED,
)


def _ok(x):
    return x * 2


def _crash_once(sentinel):
    """Hard-kill the worker on first call, succeed afterwards."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("crashed")
        os._exit(9)
    return "recovered"


def _crash_always():
    os._exit(9)


def _sleep_forever():
    time.sleep(60)


def _hold_slot(name):
    """An innocent payload holding its pool slot for a second."""
    time.sleep(1.0)
    return name


@pytest.fixture
def process_scheduler():
    sched = JobScheduler(workers=2, mode="process")
    if sched.mode != "process":
        sched.shutdown(wait=True)
        pytest.skip("process pool unavailable on this host")
    yield sched
    sched.shutdown(wait=False)


class TestCrashRecovery:
    def test_worker_death_is_recovered_not_fatal(self, process_scheduler,
                                                 tmp_path):
        sentinel = str(tmp_path / "crashed.flag")
        handle, _ = process_scheduler.submit("crashy", _crash_once,
                                             sentinel)
        assert handle.result(timeout=60) == "recovered"
        assert handle.status is JobStatus.SUCCEEDED
        assert handle.crashes == 1
        # the crash re-queue is a real submission, counted as one
        assert handle.attempts == 2
        assert process_scheduler.pool_rebuilds >= 1

    def test_poison_payload_fails_once_its_crash_budget_is_spent(
            self, process_scheduler):
        done = []
        handle, _ = process_scheduler.submit("poison", _crash_always)
        handle.add_done_callback(done.append)
        with pytest.raises(JobFailed, match=r"3 times \(crash budget 2\)"):
            handle.result(timeout=60)
        # exactly one terminal state, reached once
        assert handle.status is JobStatus.FAILED
        assert done == [handle]
        # crash budget (2) + the final straw
        assert handle.crashes == 3
        assert process_scheduler.inflight == 0

    def test_a_crash_is_charged_to_the_crasher_not_its_neighbours(self):
        # three slots: both innocent jobs are in flight on the pool
        # when the poison payload first breaks it
        sched = JobScheduler(workers=3, mode="process", crash_retries=2)
        if sched.mode != "process":
            sched.shutdown(wait=True)
            pytest.skip("process pool unavailable on this host")
        try:
            innocent = [sched.submit(name, _hold_slot, name)[0]
                        for name in ("nbody", "bezier")]
            crasher, _ = sched.submit("kmeans", _crash_always)
            with pytest.raises(JobFailed, match=r"3 times"):
                crasher.result(timeout=120)
            assert crasher.crashes == sched.crash_retries + 1
            for handle in innocent:
                assert handle.result(timeout=120) == handle.key
                assert handle.status is JobStatus.SUCCEEDED
                assert handle.crashes == 0
        finally:
            sched.shutdown(wait=False)

    def test_mid_batch_crash_loses_no_results(self, process_scheduler,
                                              tmp_path):
        """The acceptance regression: a BrokenProcessPool mid-batch must
        resolve every outstanding handle and lose zero results."""
        done_before = [process_scheduler.submit(f"pre{i}", _ok, i)[0]
                       for i in range(3)]
        for i, handle in enumerate(done_before):
            assert handle.result(timeout=60) == i * 2
        sentinel = str(tmp_path / "crashed.flag")
        crasher, _ = process_scheduler.submit("mid", _crash_once, sentinel)
        after = [process_scheduler.submit(f"post{i}", _ok, 10 + i)[0]
                 for i in range(4)]
        assert crasher.result(timeout=60) == "recovered"
        for i, handle in enumerate(after):
            assert handle.result(timeout=60) == (10 + i) * 2
        # results completed before the crash are untouched
        for i, handle in enumerate(done_before):
            assert handle.result(timeout=0) == i * 2


class TestTimeoutReclamation:
    def test_abandoned_thread_slot_is_gauged(self):
        sched = JobScheduler(workers=1, mode="thread")
        try:
            base = _ABANDONED.get()
            release = threading.Event()
            handle, _ = sched.submit("hang", release.wait, 30,
                                     timeout=0.05)
            with pytest.raises(JobTimeout):
                handle.result(timeout=10)
            assert _ABANDONED.get() == base + 1
            release.set()
            deadline = time.monotonic() + 5
            while _ABANDONED.get() > base \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _ABANDONED.get() == base   # done-callback decrement
        finally:
            sched.shutdown(wait=True)

    def test_process_timeout_recycles_the_pool(self, process_scheduler):
        handle, _ = process_scheduler.submit("stuck", _sleep_forever,
                                             timeout=0.3)
        with pytest.raises(JobTimeout):
            handle.result(timeout=30)
        assert process_scheduler.pool_rebuilds >= 1
        # the recycled pool serves new work promptly: the hung worker
        # was terminated rather than left squatting on the slot
        fresh, _ = process_scheduler.submit("after", _ok, 21)
        assert fresh.result(timeout=60) == 42


class TestResultPending:
    def test_result_timeout_carries_live_status(self):
        sched = JobScheduler(workers=1, mode="thread")
        try:
            release = threading.Event()
            handle, _ = sched.submit("slow", release.wait, 30)
            with pytest.raises(JobResultPending) as excinfo:
                handle.result(timeout=0.05)
            err = excinfo.value
            assert err.key == "slow"
            assert err.status in ("pending", "running")
            assert err.attempts in (0, 1)
            # contract: existing except TimeoutError callers still work
            assert isinstance(err, TimeoutError)
            release.set()
            assert handle.result(timeout=10) is True
        finally:
            sched.shutdown(wait=True)
