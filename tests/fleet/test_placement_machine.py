"""The router's placement core as a Hypothesis state machine.

No sockets: three in-memory runners answer the router's requests (a
submit answer names the job's status in its header and inlines a done
key's result, as a real runner's does), and the rules drive the same code paths a live fleet does -- the one
mutation path (``_commit`` through :func:`apply_record`), orphan
re-routing (:func:`orphans`), owner-only placement on the hash ring,
crash recovery (:func:`plan_recovery`) and the standby's tail fold --
against a real :class:`RouterJournal` and lease in a temp directory.

Rules: submit, complete, runner loss, amnesiac restart, crash after
any journal record (a restart replays exactly the record prefix on
disk), takeover by a standby, takeover before the standby tailed a
caller's fresh ``place`` record, and a stale primary whose next append
raises :class:`FencedOut`.  After every step: every accepted key has
an entry, no caller's job is lost, a caller whose submit carried the
result reads nothing more, a settled key stays settled, no key runs
twice at once, and every runner's ``inflight`` equals its undone
entries plus open forwards.

Callers are real :class:`ReproClient` objects whose ``run_flow`` runs
in a thread of its own and parks at every poll, so a job can be lost
between a caller's submit and its next read -- and only the client's
own rule (resubmit on ``JobNotFound``) keeps it.
"""

import asyncio
import json
import shutil
import tempfile
import threading
import urllib.error

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule,
)

from repro.client import ReproClient
from repro.fleet.durable import RouterJournal, inflight_counts, orphans
from repro.fleet.router import FleetRouter
from repro.flow.serialize import FlowResultRecord
from repro.server import protocol
from repro.server.protocol import JobNotFound
from tests.fleet.conftest import offline

RUNNERS = [f"http://10.7.7.{i}:7000" for i in range(1, 4)]
KEYS = [f"{i:02d}" * 32 for i in range(6)]


#: the finished result every done key serves
RESULT = {"app": "kmeans", "mode": "informed", "reference_time_s": 1.0}


def _encode(data):
    return json.dumps(data).encode("utf-8")


class Crash(BaseException):
    """The router process dies right after a journal append."""


class Stopped(BaseException):
    """The example ended with this caller still waiting."""


class Fleet:
    """Three runners' memory: alive or not, and each key's state."""

    def __init__(self):
        self.alive = {url: True for url in RUNNERS}
        self.jobs = {url: {} for url in RUNNERS}    # key -> running|done
        #: each runner's disk cache: survives its restarts
        self.results = {url: set() for url in RUNNERS}

    def exchange(self, url, method, path, payload=None, headers=None,
                 timeout_s=None):
        """One runner's answer, undecoded; a submit answer names the
        job's status in its header and inlines a done key's result."""
        if not self.alive[url]:
            raise urllib.error.URLError("connection refused")
        jobs = self.jobs[url]
        if method == "POST":
            key = payload["key"]
            fresh = key not in jobs
            if key in self.results[url]:
                jobs[key] = "done"    # a cache hit, recorded as a job
            jobs.setdefault(key, "running")
            done = jobs[key] == "done"
            record = {"id": key, "done": done}
            if done:
                record["result"] = RESULT
            return (201 if fresh else 200), _encode(record), {
                protocol.JOB_STATUS_HEADER:
                    "succeeded" if done else "running"}
        if path == "/healthz":
            return 200, _encode({"status": "ok", "version": None}), {}
        if path.startswith("/v1/obs/spans"):
            return 200, _encode({"spans": [], "next": 0}), {}
        key = path.split("/")[3]
        if key not in jobs:
            return 404, _encode({"error": {"code": "not_found"}}), {}
        done = jobs[key] == "done"
        return 200, _encode({"id": key, "done": done,
                             "status": "succeeded" if done
                             else "running"}), {}

    def running(self, key):
        return [url for url in RUNNERS
                if self.alive[url] and self.jobs[url].get(key) == "running"]


async def _direct(fn, *args):
    return fn(*args)


class Caller:
    """One ``ReproClient.run_flow`` for one key against whichever
    router is primary, parked at every sleep (a poll or a retry) until
    the machine lets it make its next request."""

    def __init__(self, machine, key):
        self.machine = machine
        self.key = key
        self.outcome = None           # the record, or what it raised
        self.done = False
        #: reads since the latest submit answer that carried a result
        #: (None: the latest submit answer carried none)
        self.reads_after_inline = None
        self._stopped = False
        self._turn = threading.Semaphore(0)
        self._parked = threading.Semaphore(0)
        client = ReproClient("http://router.invalid", max_retries=50,
                             jitter=0.0)
        client._request_once = self._request
        client._sleep = self._park
        self._thread = threading.Thread(target=self._main,
                                        args=(client,), daemon=True)
        self._thread.start()
        self._wait()                  # submit, first read, then park

    def _main(self, client):
        try:
            self.outcome = client.run_flow("kmeans", key=self.key)
        except Stopped:
            pass
        except Exception as exc:      # noqa: BLE001 -- an invariant
            self.outcome = exc        # fails on it
        finally:
            self.done = True
            self._parked.release()

    def _park(self, delay):
        self._parked.release()
        self._turn.acquire()
        if self._stopped:
            raise Stopped

    def _wait(self):
        assert self._parked.acquire(timeout=30), f"caller {self.key} hung"

    def poll(self):
        """Let the caller make its next request(s), then park again."""
        if not self.done:
            self._turn.release()
            self._wait()

    def stop(self):
        if not self.done:
            self._stopped = True
            self._turn.release()
            self._thread.join(30)
            assert not self._thread.is_alive(), f"caller {self.key} hung"

    def _request(self, method, path, payload=None):
        """The router's HTTP surface, minus the sockets."""
        machine, router, key = self.machine, self.machine.primary, self.key
        if method == "POST":
            outcome = machine._run(router, router._forward_submit(
                key, payload))
            if outcome is None:       # no routable runner, or a crash
                return 503, protocol._body(
                    "unavailable", "no routable runner"), {}
            status, data = outcome[1], outcome[2]
            if isinstance(data, bytes):     # relayed runner bytes
                data = json.loads(data)
            self.reads_after_inline = 0 if "result" in data else None
            return status, data, {}
        if self.reads_after_inline is not None:
            self.reads_after_inline += 1
        try:
            outcome = machine._run(router, router._forward_job_read(
                key, f"/v1/jobs/{key}"))
        except JobNotFound as exc:
            return (*protocol.error_to_payload(exc), {})
        if outcome is None:
            return 503, protocol._body("unavailable", "router crashed"), {}
        status, data = outcome
        if status == 200 and data.get("done"):
            return 200, dict(RESULT), {}
        if status == 200:
            return 202, protocol._body("pending", "running", key=key,
                                       status="running"), {}
        return status, data, {}


class PlacementMachine(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="placement-")
        self.fleet = Fleet()
        self.nodes = 0
        self.crash_after = None
        self.accepted = set()
        self.settled = {}             # key -> status when first settled
        self.stale = None
        self.callers = {}             # key -> its latest Caller
        self.standby = self._standby()
        self._boot_primary(self._name())

    def teardown(self):
        for caller in self.callers.values():
            caller.stop()
        for router in (self.primary, self.standby, self.stale):
            if router is not None:
                router.journal.close()
        shutil.rmtree(self.root, ignore_errors=True)

    # -- plumbing -------------------------------------------------------

    def _name(self):
        self.nodes += 1
        return f"node{self.nodes}"

    def _router(self, name, standby=False):
        """A router over the in-memory fleet whose journal appends can
        be armed to crash the process right after a record lands."""
        router = FleetRouter(
            RUNNERS, expected_version="", obs_buffer=0,
            journal=RouterJournal(self.root, name=name, compact_every=5),
            node_name=name,
            standby_of="http://10.7.7.9:7000" if standby else None)
        offline(router)._executor.shutdown(wait=False)
        router._in_executor = _direct
        for url, handle in router.handles.items():
            handle.exchange = (lambda url: lambda *a, **kw:
                               self.fleet.exchange(url, *a, **kw))(url)
        append = router.journal.append

        def crashing_append(*args, **kwargs):
            record = append(*args, **kwargs)
            if self.crash_after is not None:
                self.crash_after -= 1
                if self.crash_after == 0:
                    self.crash_after = None
                    raise Crash
            return record

        router.journal.append = crashing_append
        return router

    def _standby(self):
        router = self._router(self._name(), standby=True)
        router._reset(router.journal.open(False))
        router._tail_cursor = router.journal.seq
        return router

    def _boot_primary(self, name):
        """What ``start()`` does before binding: replay, probe, recover."""
        router = self._router(name)
        router._reset(router.journal.open(True))
        self.primary = router
        self._run(router, router._recover())
        self._assert_placed()

    def _assert_placed(self):
        """Every undone entry runs on its live runner -- unless no
        runner is left to take it."""
        router = self.primary
        if not router.routable():
            return
        for key, entry in router._placements.items():
            if not entry["done"]:
                assert entry["runner"] in self.fleet.running(key), key

    def _restart(self):
        """The primary crashed: boot a new process on its journal."""
        self.primary.journal.close()
        self._boot_primary(self.primary.node_name)

    def _run(self, router, coro):
        async def main():
            router._loop = asyncio.get_running_loop()
            return await coro

        try:
            return asyncio.run(main())
        except Crash:
            self._restart()
            return None

    def _tail(self):
        journal = self.primary.journal
        self.standby._apply_tail(journal.tail(self.standby._tail_cursor))

    def _probe(self, times=1):
        for _ in range(times):
            self._run(self.primary, self.primary._probe_all())

    # -- rules ----------------------------------------------------------

    @rule(key=st.sampled_from(KEYS))
    def submit(self, key):
        outcome = self._run(self.primary, self.primary._forward_submit(
            key, {"app": "kmeans", "key": key}))
        if outcome is not None and outcome[1] in (200, 201):
            self.accepted.add(key)

    @rule(runner=st.sampled_from(RUNNERS))
    def complete(self, runner):
        for key, state in self.fleet.jobs[runner].items():
            if state == "running" and self.fleet.alive[runner]:
                self.fleet.jobs[runner][key] = "done"
                self.fleet.results[runner].add(key)

    @rule(key=st.sampled_from(KEYS))
    def read(self, key):
        if key in self.accepted:
            self._run(self.primary, self.primary._forward_job_read(
                key, f"/v1/jobs/{key}"))

    @rule(runner=st.sampled_from(RUNNERS))
    def runner_loss(self, runner):
        detected = self.primary.handles[runner].state != "unhealthy"
        self.fleet.alive[runner] = False
        self.fleet.jobs[runner] = {}
        self._probe(times=2)          # two missed probes evict
        if detected and self.primary.routable():
            # the probe that saw it die re-routed its jobs
            assert not orphans(self.primary._placements, runner)

    @rule(runner=st.sampled_from(RUNNERS))
    def amnesiac_restart(self, runner):
        self.fleet.alive[runner] = True
        self.fleet.jobs[runner] = {}
        self._probe()

    @rule(records=st.integers(1, 3))
    def arm_crash(self, records):
        self.crash_after = records

    @rule()
    def crash_now(self):
        self.crash_after = None
        self._restart()

    def _promote(self):
        if self.stale is not None:
            self.stale.journal.close()
        # the old primary lives on, stale; a new standby tails the new
        self.stale, self.primary = self.primary, self.standby
        self._run(self.primary, self.primary._takeover())
        assert self.primary.role == "primary"
        self.standby = self._standby()

    @rule()
    def takeover(self):
        self._tail()
        self._promote()

    @rule(key=st.sampled_from(KEYS))
    def takeover_without_final_tail(self, key):
        """A caller's submit is accepted; the primary dies before the
        standby tails its ``place`` record, and the job's runner
        restarts too: no router and no runner knows the job."""
        if key in self.callers:
            self.callers[key].stop()
        self.callers[key] = Caller(self, key)
        runner = (self.primary._placements.get(key) or {}).get("runner")
        self._promote()
        if runner is not None:
            self.amnesiac_restart(runner)

    @rule()
    def callers_poll(self):
        for caller in self.callers.values():
            caller.poll()

    @precondition(lambda self: self.stale is not None
                  and self.stale.role != "fenced")
    @rule(key=st.sampled_from(KEYS))
    def stale_primary_writes(self, key):
        seq = self.stale.journal.seq
        self.stale._commit("done", key, status="succeeded")
        assert self.stale.role == "fenced"
        assert self.stale.journal.seq == seq
        with pytest.raises(Exception, match="fenced out"):
            self.stale._shed_unless_primary()

    @rule()
    def drain(self):
        """Heal the fleet and poll every job until it settles."""
        for url in RUNNERS:
            if not self.fleet.alive[url]:
                self.fleet.alive[url] = True
                self.fleet.jobs[url] = {}
        self.crash_after = None
        self._probe()
        for _ in range(3):
            for url in RUNNERS:
                self.complete(url)
            for key in sorted(self.accepted):
                self.read(key)
        for key in self.accepted:
            assert self.primary._placements[key]["done"], key
        for _ in range(4):
            for url in RUNNERS:
                self.complete(url)
            self.callers_poll()
        for key, caller in self.callers.items():
            assert isinstance(caller.outcome, FlowResultRecord), key

    # -- invariants -----------------------------------------------------

    @invariant()
    def every_reader_folds_the_same_table(self):
        self._tail()
        assert self.primary._placements == self.primary.journal.table
        assert self.standby._placements == self.primary.journal.table

    @invariant()
    def no_accepted_key_is_lost(self):
        for key in self.accepted:
            assert key in self.primary._placements, key

    @invariant()
    def no_caller_loses_its_job(self):
        """No accepted key lost, from the caller's view: its
        ``run_flow`` never raises (``JobNotFound`` is the loss)."""
        for key, caller in self.callers.items():
            assert not isinstance(caller.outcome, BaseException), (
                key, caller.outcome)

    @invariant()
    def a_done_submit_finishes_in_one_request(self):
        """A submit answer that inlined the result ends ``run_flow``
        with no read."""
        for key, caller in self.callers.items():
            if caller.reads_after_inline is not None:
                assert caller.reads_after_inline == 0, key
                assert isinstance(caller.outcome, FlowResultRecord), key

    @invariant()
    def settled_keys_stay_settled(self):
        for key, entry in self.primary._placements.items():
            if key in self.settled:
                assert entry["done"], key
                assert entry["status"] in (None, self.settled[key])
            elif entry["done"]:
                self.settled[key] = entry["status"]

    @invariant()
    def no_key_runs_twice(self):
        for key in KEYS:
            assert len(self.fleet.running(key)) <= 1, key

    @invariant()
    def inflight_is_derived(self):
        for router in (self.primary, self.standby):
            assert not router._open and not router._forwarding
            derived = inflight_counts(router._placements, router._open)
            for url, handle in router.handles.items():
                assert handle.inflight == derived[url], url


PlacementMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=25, deadline=None,
    derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow])
test_placement_machine = PlacementMachine.TestCase
