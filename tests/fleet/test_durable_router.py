"""FleetRouter durability: journal, restart recovery, warm standby.

Everything here runs against real runners through live routers -- the
same wire a chaos run exercises, minus the SIGKILLs (those live in
``scripts/chaos_fleet.py``; the byte-level crash points live in
``test_journal.py``).
"""

import asyncio
import os
import time

import pytest

from repro.client import ReproClient
from repro.server.protocol import JobNotFound
from repro.config import ReproConfig
from repro.fleet.durable import LeaseFile
from tests.fleet.conftest import LiveRouter


def wait_until(predicate, timeout_s=20.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError("condition not met within "
                         f"{timeout_s:.0f}s: {predicate}")


def finished(client, key, timeout_s=120.0):
    """Poll the job until its terminal record lands; returns it."""

    def poll():
        record = client.status(key)
        return record if record.get("done") else None

    return wait_until(poll, timeout_s)


@pytest.fixture
def durable_fleet(tmp_path, live_server_factory, live_router_factory):
    a = live_server_factory(config=ReproConfig(workers=1))
    b = live_server_factory(config=ReproConfig(workers=1))
    journal_dir = str(tmp_path / "journal")
    router = live_router_factory([a.url, b.url],
                                 journal_dir=journal_dir)
    client = ReproClient(router.url, backoff_s=0.05,
                         poll_interval_s=0.05)
    return a, b, router, client, journal_dir


# ----------------------------------------------------------------------
# Journal writes on the placement path
# ----------------------------------------------------------------------

def test_placements_and_settlement_are_journaled(durable_fleet):
    _, _, router, client, _ = durable_fleet
    key = client.submit("kmeans", "informed", scale=1.03)["id"]
    table = router.router.journal.table
    assert key in table and table[key]["runner"]
    assert table[key]["payload"]["app"] == "kmeans"
    assert finished(client, key)["status"] == "succeeded"
    entry = wait_until(lambda: (router.router.journal.table[key]
                                if router.router.journal
                                .table[key]["done"] else None))
    assert entry["status"] == "succeeded"


def test_journal_endpoint_serves_the_tail(durable_fleet):
    _, _, router, client, _ = durable_fleet
    key = client.submit("kmeans", "informed", scale=1.05)["id"]
    status, data, _ = client._request_once("GET", "/v1/journal?since=0")
    assert status == 200 and data["role"] == "primary"
    if data["reset"]:
        assert key in data["placements"]
    else:
        assert any(r["key"] == key for r in data["records"])
    # a cursor at the head sees nothing new
    status, ahead, _ = client._request_once(
        "GET", f"/v1/journal?since={data['next']}")
    assert status == 200 and ahead["records"] == []


def test_resubmitting_a_settled_job_appends_no_record(
        durable_fleet, live_router_factory):
    a, b, router, client, journal_dir = durable_fleet
    key = client.submit("kmeans", "informed", scale=1.06)["id"]
    assert finished(client, key)["status"] == "succeeded"
    journal = router.router.journal
    wait_until(lambda: journal.table[key]["done"])
    records = journal.seq
    for _ in range(3):
        assert client.submit("kmeans", "informed", scale=1.06)["id"] == key
    assert journal.seq == records
    router.stop()

    reborn = live_router_factory([a.url, b.url],
                                 journal_dir=journal_dir)
    client2 = ReproClient(reborn.url, backoff_s=0.05,
                          poll_interval_s=0.05)
    assert finished(client2, key, 60)["status"] == "succeeded"


# ----------------------------------------------------------------------
# Restart recovery
# ----------------------------------------------------------------------

def test_restarted_router_serves_journaled_jobs(
        durable_fleet, live_router_factory):
    a, b, router, client, journal_dir = durable_fleet
    key = client.submit("kmeans", "informed", scale=1.07)["id"]
    assert finished(client, key)["status"] == "succeeded"
    router.stop()                      # the primary dies

    reborn = live_router_factory([a.url, b.url],
                                 journal_dir=journal_dir)
    client2 = ReproClient(reborn.url, backoff_s=0.05,
                          poll_interval_s=0.05)
    # replay + reconciliation restored the placement: the read
    # forwards straight to the runner that still holds the result
    assert finished(client2, key, 60)["status"] == "succeeded"
    assert reborn.router._placements[key]["runner"] in (a.url, b.url)


# ----------------------------------------------------------------------
# Warm standby: tail, shed, takeover
# ----------------------------------------------------------------------

def test_standby_mirrors_and_sheds_until_takeover(
        durable_fleet, live_router_factory):
    a, b, router, client, _ = durable_fleet
    standby = live_router_factory([a.url, b.url],
                                  standby_of=router.url,
                                  tail_interval_s=0.05)
    key = client.submit("kmeans", "informed", scale=1.09)["id"]
    finished(client, key)
    mirror = wait_until(
        lambda: (standby.router._placements.get(key) or {}).get("done")
        and standby.router._placements[key])
    assert mirror["status"] == "succeeded"
    # job traffic sheds with a retryable 503 while tailing
    shed = ReproClient(standby.url, max_retries=0)
    status, data, _ = shed._request_once("GET", f"/v1/jobs/{key}")
    assert status == 503 and data["error"]["code"] == "unavailable"
    assert "standby" in data["error"]["message"]


def test_standby_takes_over_and_serves_journaled_jobs(
        durable_fleet, live_router_factory, tmp_path):
    a, b, router, client, journal_dir = durable_fleet
    standby = live_router_factory([a.url, b.url],
                                  standby_of=router.url,
                                  journal_dir=journal_dir,
                                  tail_interval_s=0.05,
                                  takeover_after=2)
    key = client.submit("kmeans", "informed", scale=1.11)["id"]
    finished(client, key)
    wait_until(lambda: (standby.router.journal.table.get(key)
                        or {}).get("done"))
    old_term = router.router.journal.term
    router.stop()                      # primary goes dark mid-flight

    wait_until(lambda: standby.router.role == "primary")
    assert standby.router.journal.term > old_term
    # the promoted standby serves the job it only ever mirrored
    client2 = ReproClient(standby.url, backoff_s=0.05,
                          poll_interval_s=0.05)
    assert finished(client2, key, 60)["status"] == "succeeded"


def test_takeover_sheds_until_journaled_jobs_are_recovered(
        durable_fleet, live_router_factory):
    # the promoted standby leaves `standby` before it has probed the
    # runners and reconciled its table; a slow probe pass widens that
    # window, and a status request inside it must be shed (retryable),
    # not answered JobNotFound
    a, b, router, client, journal_dir = durable_fleet
    standby = live_router_factory([a.url, b.url],
                                  standby_of=router.url,
                                  journal_dir=journal_dir,
                                  tail_interval_s=0.05,
                                  takeover_after=2)
    key = client.submit("kmeans", "informed", scale=1.17)["id"]
    finished(client, key)
    wait_until(lambda: (standby.router.journal.table.get(key)
                        or {}).get("done"))
    probe_all = standby.router._probe_all

    async def slow_probe_all():
        await asyncio.sleep(0.5)
        await probe_all()

    standby.router._probe_all = slow_probe_all
    router.stop()
    wait_until(lambda: standby.router.role == "recovering")
    shed = ReproClient(standby.url, max_retries=0)
    status, data, _ = shed._request_once("GET", f"/v1/jobs/{key}")
    assert status == 503 and "taking over" in data["error"]["message"]
    client2 = ReproClient(standby.url, backoff_s=0.05,
                          poll_interval_s=0.05)
    assert client2.status(key)["status"] == "succeeded"
    assert standby.router.role == "primary"


def test_client_endpoint_list_fails_over_to_the_serving_node(
        durable_fleet, live_router_factory):
    a, b, router, client, journal_dir = durable_fleet
    standby = live_router_factory([a.url, b.url],
                                  standby_of=router.url,
                                  journal_dir=journal_dir,
                                  tail_interval_s=0.05,
                                  takeover_after=2)
    key = client.submit("kmeans", "informed", scale=1.13)["id"]
    finished(client, key)
    wait_until(lambda: (standby.router.journal.table.get(key)
                        or {}).get("done"))
    router.stop()
    wait_until(lambda: standby.router.role == "primary")
    # one client, both endpoints: rotation lands on the survivor
    both = ReproClient([router.url, standby.url], backoff_s=0.05,
                       poll_interval_s=0.05)
    assert finished(both, key, 60)["status"] == "succeeded"


# ----------------------------------------------------------------------
# Fencing on the live append path
# ----------------------------------------------------------------------

def test_fenced_primary_sheds_job_traffic(durable_fleet):
    _, _, router, client, journal_dir = durable_fleet
    # a newer writer takes the lease behind the router's back
    LeaseFile(os.path.join(journal_dir, "lease.json")).acquire("usurper")
    # the next journaled mutation trips FencedOut and latches `fenced`
    client.submit("kmeans", "informed", scale=1.17)
    wait_until(lambda: router.router.role == "fenced")
    shed = ReproClient(router.url, max_retries=0)
    status, data, _ = shed._request_once("POST", "/v1/jobs",
                                         {"app": "kmeans"})
    assert status == 503 and data["error"]["code"] == "unavailable"
    assert "fenced" in data["error"]["message"]
    health = shed.health()
    assert health["fenced"] is True and health["status"] == "degraded"


# ----------------------------------------------------------------------
# Scatter-adopt: healing a placement the journal never recorded
# ----------------------------------------------------------------------

def test_scatter_adopt_heals_a_forgotten_placement(durable_fleet):
    a, _, router, client, _ = durable_fleet
    direct = ReproClient(a.url, backoff_s=0.05, poll_interval_s=0.05)
    key = direct.submit("kmeans", "informed", scale=1.19)["id"]
    finished(direct, key)
    assert key not in router.router._placements
    before = router.router._m_readopts.get()
    # the router has never seen this job (torn `place` record after a
    # crash looks the same) -- the read path asks every runner
    record = client.status(key)
    assert record["done"] and record["status"] == "succeeded"
    assert router.router._m_readopts.get() == before + 1
    adopted = router.router._placements[key]
    assert adopted["runner"] == a.url and adopted["payload"] is None
    # payload-less placements cannot be resubmitted when their runner
    # dies -- they surface as a 404 telling the client to resubmit
    a.stop(drain=False)
    router.probe_now()                 # first missed probe is a blip
    router.probe_now()                 # the second marks it unhealthy
    with pytest.raises(JobNotFound, match="resubmit"):
        client.status(key)
