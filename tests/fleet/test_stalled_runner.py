"""A partitioned runner: alive on the socket, silent on the wire.

``SIGSTOP`` (the chaos runner's partition) leaves a runner's listening
socket accepting connections while nothing answers them.  Here the
same stall is made in-process by parking the runner's event loop on an
event, so connects succeed and every read hangs.  The router must
answer a job-state read within its probe timeout (rerouting the job),
and the client must treat a read timeout like a connect error.
"""

import threading
import time

import pytest

from repro.client import ReproClient
from repro.config import ReproConfig
from repro.service.scheduler import JobResultPending

#: the router's per-handle request timeout (RunnerHandle default) plus
#: slack for the reroute; well under the client's 60 s read timeout
READ_BOUND_S = 15.0


@pytest.fixture
def stalled_fleet(live_server_factory, live_router_factory):
    a = live_server_factory(config=ReproConfig(workers=1))
    b = live_server_factory(config=ReproConfig(workers=1))
    router = live_router_factory([a.url, b.url])
    release = threading.Event()

    def stall(server):
        server.loop.call_soon_threadsafe(release.wait, 120)

    yield a, b, router, stall
    release.set()                      # un-park before teardown stops it


def test_result_read_through_router_answers_despite_stalled_runner(
        stalled_fleet):
    a, b, router, stall = stalled_fleet
    client = ReproClient(router.url, backoff_s=0.05, poll_interval_s=0.05)
    key = client.submit("kmeans", scale=1.37)["id"]
    placed = router.router._placements[key]["runner"]
    victim, survivor = (a, b) if placed == a.url else (b, a)
    stall(victim)

    deadline = time.monotonic() + 120
    record = None
    while record is None:
        assert time.monotonic() < deadline, "job never finished"
        started = time.monotonic()
        try:
            record = client.result(key)
        except JobResultPending:
            pass                       # 202: rerouted or still running
        elapsed = time.monotonic() - started
        assert elapsed < READ_BOUND_S, f"result read took {elapsed:.1f}s"
        time.sleep(0.05)
    assert record.app_name == "kmeans"
    assert router.router._placements[key]["runner"] == survivor.url
    assert router.router.handles[victim.url].state == "unhealthy"


def test_client_rotates_past_an_endpoint_whose_read_times_out(
        stalled_fleet):
    a, b, _, stall = stalled_fleet
    stall(a)
    client = ReproClient([a.url, b.url], timeout_s=1.0, backoff_s=0.05)
    # the stalled endpoint accepts the connection but never answers
    assert "kmeans" in {app["name"] for app in client.apps()}
    assert client.base_url == b.url
