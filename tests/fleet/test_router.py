"""FleetRouter: sharding, node loss, version fencing.

Placement policy is tested on a bare router (no sockets); everything
wire-shaped runs against real runners through a live router.
"""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

import repro
import repro.service.core as service_core
from repro import api
from repro.client import ReproClient
from repro.config import ReproConfig
from repro.fleet.durable import inflight_counts
from repro.fleet.router import FleetRouter
from repro.fleet.runner import RunnerHandle, free_port
from repro.obs.console import metric_sum, parse_prometheus
from repro.server import protocol
from tests.fleet.conftest import offline

URLS = [f"http://10.9.9.{i}:7000" for i in range(1, 4)]
KEY = "ab" * 32


def bare_router(**kwargs):
    router = offline(FleetRouter(URLS, **kwargs))
    router._executor.shutdown(wait=False)
    return router


def all_healthy(router):
    for handle in router.handles.values():
        handle.state = "healthy"


# ----------------------------------------------------------------------
# Placement policy (no sockets)
# ----------------------------------------------------------------------

def accepting(router, posts):
    """Every runner of ``router`` accepts each POST, logging its URL to
    ``posts``; forwards run inline on the loop."""
    def fake_exchange(url):
        def exchange(method, path, payload=None, headers=None,
                     timeout_s=None):
            if method != "POST":
                raise urllib.error.URLError("connection refused")
            posts.append(url)
            return 201, json.dumps({"id": KEY, "done": False}).encode(), {
                protocol.JOB_STATUS_HEADER: "queued"}
        return exchange

    for url, handle in router.handles.items():
        handle.exchange = fake_exchange(url)


def test_pick_target_prefers_the_shard_owner():
    router = bare_router()
    all_healthy(router)
    owner = router.ring.owner(KEY)
    assert router._owner(KEY).url == owner
    # stable across repeated asks (no load, no churn)
    assert router._owner(KEY).url == owner


def test_a_submit_goes_to_its_owner_however_busy():
    router = bare_router()
    all_healthy(router)
    owner = router.handles[router.ring.owner(KEY)]
    # four unfinished jobs of the owner's shard are in flight on it
    busy = (f"{i:064x}" for i in range(10_000))
    held = [k for k in busy if router.ring.owner(k) == owner.url][:4]
    for key in held:
        router._commit("place", key, runner=owner.url,
                       payload={"app": "kmeans"}, trace=None, done=False)
    assert owner.inflight == 4
    posts = []
    accepting(router, posts)

    async def inline(fn, *args):
        return fn(*args)

    router._in_executor = inline
    asyncio.run(router._forward_submit(KEY, {"app": "kmeans"}))
    assert posts == [owner.url]
    assert router._placements[KEY]["runner"] == owner.url
    assert owner.inflight == 5


def test_pick_target_follows_preference_under_exclusion():
    router = bare_router()
    all_healthy(router)
    order = router.ring.preference(KEY)
    assert router._owner(KEY, exclude={order[0]}).url == order[1]
    assert router._owner(KEY, exclude=set(URLS)) is None


def test_pick_target_ignores_unroutable_states():
    router = bare_router()
    for state, handle in zip(("unknown", "draining", "rejected"),
                             router.handles.values()):
        handle.state = state
    assert router._owner(KEY) is None
    next(iter(router.handles.values())).state = "healthy"
    assert router._owner(KEY) is not None


@pytest.mark.parametrize("readers", [1, 4])
def test_probe_and_read_reroute_a_lost_job_once(readers):
    # the probe loop's node-loss re-route and `readers` concurrent
    # status reads all find the job's runner dead; exactly one may
    # resubmit it
    router = bare_router()
    all_healthy(router)
    posts = []
    accepting(router, posts)

    async def on_the_wire(fn, *args):
        await asyncio.sleep(0.01)      # a forward takes a while
        return fn(*args)

    router._in_executor = on_the_wire
    dead = router.handles[router.ring.owner(KEY)]
    router._commit("place", KEY, runner=dead.url,
                   payload={"app": "kmeans"}, trace=None, done=False)
    dead.state = "unhealthy"

    async def race():
        await asyncio.gather(
            router._reroute_orphans(dead, reason="node_loss"),
            *(router._forward_job_read(KEY, f"/v1/jobs/{KEY}")
              for _ in range(readers)))

    asyncio.run(race())
    assert len(posts) == 1
    assert router._placements[KEY]["runner"] == posts[0] != dead.url
    derived = inflight_counts(router._placements, router._open)
    assert {u: h.inflight for u, h in router.handles.items()} == \
        {u: derived[u] for u in URLS}
    assert router.handles[posts[0]].inflight == 1


@pytest.mark.parametrize("header, body_done, done", [
    ("succeeded", False, True),
    ("failed", False, True),
    ("running", True, False),
    ("queued", True, False),
])
def test_placement_done_comes_from_the_status_header(header, body_done,
                                                     done):
    # the body says the opposite: only the header may decide
    router = bare_router()
    all_healthy(router)

    def exchange(method, path, payload=None, headers=None,
                 timeout_s=None):
        return 200, json.dumps({"id": KEY, "done": body_done}).encode(), {
            protocol.JOB_STATUS_HEADER: header}

    for handle in router.handles.values():
        handle.exchange = exchange

    async def direct(fn, *args):
        return fn(*args)

    router._in_executor = direct
    _, status, raw = asyncio.run(router._forward_submit(
        KEY, {"app": "kmeans"}))
    assert status == 200 and isinstance(raw, bytes)
    assert router._placements[KEY]["done"] is done


def test_submits_after_an_outage_are_placed_at_once():
    # no routable runner: each submit is a retryable 503 that points
    # at the next probe; the first submit after a runner is routable
    # again is placed, however many were refused before it
    router = bare_router(probe_interval_s=2.0)
    router.role = "primary"
    replies = []

    async def send_json(writer, status, payload, extra=None):
        replies.append((status, payload))
        return status

    async def send(writer, status, body, content_type, extra=None):
        replies.append((status, json.loads(body)))
        return status

    job = {"app": "kmeans", "mode": "informed"}
    key = protocol.job_from_payload(job).key()

    def exchange(method, path, payload=None, headers=None,
                 timeout_s=None):
        return 201, json.dumps({"id": key}).encode(), {
            protocol.JOB_STATUS_HEADER: "queued"}

    async def direct(fn, *args):
        return fn(*args)

    router._send_json, router._send = send_json, send
    router._in_executor = direct
    for handle in router.handles.values():
        handle.exchange = exchange
    body = json.dumps(job).encode()

    async def submit(times):
        for _ in range(times):
            await router._h_submit(None, body, {})

    asyncio.run(submit(3))
    assert [status for status, _ in replies] == [503] * 3
    for _, payload in replies:
        assert payload["error"]["code"] == "unavailable"
        assert payload["error"]["retry_after_s"] == 2.0
    all_healthy(router)
    asyncio.run(submit(1))
    status, payload = replies[-1]
    assert status == 201, payload
    assert router._placements[key]["runner"] in URLS


def test_router_requires_at_least_one_runner():
    with pytest.raises(ValueError):
        FleetRouter([])


# ----------------------------------------------------------------------
# RunnerHandle probe state machine (real sockets, no servers)
# ----------------------------------------------------------------------

def test_unknown_runner_evicts_on_first_failed_probe():
    handle = RunnerHandle(f"http://127.0.0.1:{free_port()}")
    handle.probe(timeout_s=1.0)
    assert handle.state == "unhealthy"
    assert handle.last_error


def test_healthy_runner_survives_one_blip_not_two():
    handle = RunnerHandle(f"http://127.0.0.1:{free_port()}")
    handle.state = "healthy"
    handle.probe(timeout_s=1.0)
    assert handle.state == "healthy"       # one lost probe is a blip
    assert handle.consecutive_failures == 1
    handle.probe(timeout_s=1.0)
    assert handle.state == "unhealthy"     # two is a dead node


# ----------------------------------------------------------------------
# Live fleet: two real runners behind a live router
# ----------------------------------------------------------------------

@pytest.fixture
def fleet(live_server_factory, live_router_factory):
    a = live_server_factory(config=ReproConfig(workers=1))
    b = live_server_factory(config=ReproConfig(workers=1))
    router = live_router_factory([a.url, b.url])
    client = ReproClient(router.url, backoff_s=0.05,
                         poll_interval_s=0.05)
    return a, b, router, client


def test_healthz_aggregates_the_fleet(fleet):
    _, _, router, client = fleet
    health = client.health()
    assert health["http_status"] == 200 and health["status"] == "ok"
    assert health["version"] == repro.__version__
    fleet_block = health["fleet"]
    assert fleet_block["healthy"] == 2 and fleet_block["total"] == 2
    states = {r["url"]: r["state"] for r in fleet_block["runners"]}
    assert set(states.values()) == {"healthy"}


def test_catalog_and_flow_round_trip_through_the_router(fleet):
    _, _, router, client = fleet
    assert client.apps() == api.list_apps()
    assert client.modes() == api.list_modes()
    record = client.run_flow("kmeans", "informed", timeout=120)
    assert record.app_name == "kmeans"
    assert record.selected_target is not None


def test_submit_is_sticky_and_jobs_merge(fleet):
    _, _, router, client = fleet
    payload = {"app": "kmeans", "scale": 1.21}
    first_status, first, _ = client._request_once(
        "POST", "/v1/jobs", payload)
    assert first_status == 201
    placed_on = router.router._placements[first["id"]]["runner"]
    again_status, again, _ = client._request_once(
        "POST", "/v1/jobs", payload)
    assert again_status == 200 and again["id"] == first["id"]
    assert router.router._placements[first["id"]]["runner"] == placed_on
    assert any(j["id"] == first["id"] for j in client.jobs())


def test_unplaced_job_is_404(fleet):
    _, _, _, client = fleet
    status, data, _ = client._request_once("GET", f"/v1/jobs/{'f' * 64}")
    assert status == 404 and data["error"]["code"] == "not_found"


def test_sse_events_proxy_through_the_router(fleet):
    _, _, _, client = fleet
    job_id = client.submit("kmeans", "informed")["id"]
    client.run_flow("kmeans", "informed", timeout=120)
    names = [name for name, _ in client.events(job_id)]
    assert names and names[-1] == "done"


def test_metrics_expose_fleet_series(fleet):
    a, b, _, client = fleet
    client.run_flow("kmeans", "informed", timeout=120)
    text = client.metrics()
    assert "repro_fleet_shard_jobs_total" in text
    assert "repro_fleet_runners_healthy 2" in text
    assert 'repro_http_requests_total{route="fleet.submit"' in text
    # the four latency series perfbench's served_mix reads: the
    # router's own fleet.* routes, and the runners' bare ones
    # federated under a runner label
    samples = parse_prometheus(text)
    count = "repro_http_request_seconds_count"
    for route in ("fleet.submit", "fleet.result"):
        assert metric_sum(samples, count, route=route) >= 1
    for route in ("submit", "result"):
        assert sum(metric_sum(samples, count, route=route, runner=url)
                   for url in (a.url, b.url)) >= 1


# ----------------------------------------------------------------------
# Node loss and lost state
# ----------------------------------------------------------------------

@pytest.fixture
def blocked_execution(monkeypatch):
    """execute_job blocks until released (runs in-process for both
    runners, so the fleet tests can hold a job in flight)."""
    started = threading.Event()
    release = threading.Event()
    real = service_core.execute_job

    def slow(job, engine=None, observer=None):
        started.set()
        assert release.wait(60), "test never released the worker"
        return real(job, engine=engine, observer=observer)

    monkeypatch.setattr(service_core, "execute_job", slow)
    yield started, release
    release.set()


def test_node_loss_reroutes_in_flight_jobs(fleet, blocked_execution):
    started, release = blocked_execution
    a, b, router, client = fleet
    key = client.submit("kmeans", scale=1.31)["id"]
    assert started.wait(30), "job never reached a worker"
    victim, survivor = ((a, b)
                        if router.router._placements[key]["runner"] == a.url
                        else (b, a))
    release.set()
    victim.stop(drain=False)           # the node dies mid-flight
    status, data, _ = client._request_once("GET", f"/v1/jobs/{key}")
    assert status == 202
    assert "re-routed" in data["error"]["message"]
    assert router.router._placements[key]["runner"] == survivor.url
    assert router.router.handles[victim.url].state == "unhealthy"
    # resubmission got the job's *full* retry budget on the survivor
    record = client.run_flow("kmeans", scale=1.31, timeout=120)
    assert record.app_name == "kmeans"
    assert router.router._m_reroutes.get(reason="node_loss") >= 1


def test_restarted_runner_losing_state_triggers_resubmission(fleet):
    a, b, router, client = fleet
    payload = {"app": "kmeans", "mode": "informed", "scale": 1.07}
    key = protocol.job_from_payload(payload).key()
    # as if routed before runner `a` restarted and forgot everything
    router.router._commit("place", key, runner=a.url, payload=payload,
                          done=False)
    before = router.router._m_reroutes.get(reason="lost_state")
    status, data, _ = client._request_once("GET", f"/v1/jobs/{key}")
    assert status == 202
    assert "lost_state" in data["error"]["message"]
    assert router.router._placements[key]["runner"] == b.url
    assert router.router._m_reroutes.get(reason="lost_state") == before + 1
    deadline_polls = 600
    while deadline_polls:
        status, data, _ = client._request_once("GET", f"/v1/jobs/{key}")
        if data.get("done"):
            break
        deadline_polls -= 1
        threading.Event().wait(0.1)
    assert data.get("status") == "succeeded"


# ----------------------------------------------------------------------
# Version fencing and re-admission
# ----------------------------------------------------------------------

def test_version_skew_fences_runners_until_they_match(
        live_server_factory, live_router_factory):
    a = live_server_factory(config=ReproConfig(workers=1))
    router = live_router_factory([a.url],
                                 expected_version="v99.incompatible")
    client = ReproClient(router.url, max_retries=0)
    handle = router.router.handles[a.url]
    assert handle.state == "rejected"
    assert "version" in handle.last_error
    health = client.health()
    assert health["http_status"] == 503 and health["status"] == "degraded"
    status, data, _ = client._request_once(
        "POST", "/v1/jobs", {"app": "kmeans"})
    assert status == 503 and data["error"]["code"] == "unavailable"
    # the operator rolls the router to the matching version: the next
    # probe pass re-admits the runner without a restart
    router.router.expected_version = repro.__version__
    router.probe_now()
    assert handle.state == "healthy"
    assert client.health()["http_status"] == 200


# ----------------------------------------------------------------------
# Kept-alive forwards and the relayed result
# ----------------------------------------------------------------------

def test_forwards_reach_a_runner_over_one_connection(
        live_server_factory, live_router_factory, accepted):
    runner = live_server_factory(config=ReproConfig(workers=1))
    router = live_router_factory([runner.url])
    client = ReproClient(router.url)
    for _ in range(5):
        assert client.apps() == api.list_apps()
    record = client.run_flow("kmeans", "informed", scale=1.35,
                             timeout=120)
    assert record.app_name == "kmeans"
    # the router's boot probe opened it; every forward rode it
    assert accepted.count(runner.server.port) == 1
    client.close()


def test_a_finished_result_is_relayed_byte_for_byte(fleet):
    a, b, router, client = fleet
    job_id = client.submit("kmeans", "informed", scale=1.37)["id"]
    client.run_flow("kmeans", "informed", scale=1.37, timeout=120)
    assert router.router._placements[job_id]["done"]
    runner = {a.url: a, b.url: b}[
        router.router._placements[job_id]["runner"]]
    # spacing no re-encoding would keep
    odd = b'{"id": "%s",   "app": "kmeans"}' % job_id.encode()
    runner.server._jobs[job_id].body = odd
    with urllib.request.urlopen(
            f"{router.url}/v1/jobs/{job_id}/result", timeout=30) as resp:
        assert resp.status == 200
        assert resp.headers["Content-Type"] == "application/json"
        assert resp.read() == odd


def _post(url, payload):
    request = urllib.request.Request(
        f"{url}/v1/jobs", data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, resp.headers, resp.read()


def test_an_inlined_result_is_relayed_byte_for_byte(fleet):
    a, b, router, client = fleet
    spec = {"app": "kmeans", "mode": "informed", "scale": 1.38}
    job_id = client.submit(**spec)["id"]
    client.run_flow(**spec, timeout=120)
    runner = {a.url: a, b.url: b}[
        router.router._placements[job_id]["runner"]]
    status, headers, via_router = _post(router.url, spec)
    assert status == 200
    _, replied, direct = _post(runner.url, spec)
    assert replied[protocol.JOB_STATUS_HEADER] == "succeeded"
    assert via_router == direct
    # the inlined result is what a later read serves, source included
    with urllib.request.urlopen(
            f"{router.url}/v1/jobs/{job_id}/result", timeout=30) as resp:
        later = resp.read()
    assert via_router.endswith(b', "result": ' + later + b"}")
    assert json.loads(via_router)["result"]["source"] == "run"
    # spacing no re-encoding would keep
    odd = b'{"id": "%s",   "app": "kmeans"}' % job_id.encode()
    runner.server._jobs[job_id].body = odd
    _, _, relayed = _post(router.url, spec)
    assert relayed.endswith(b', "result": ' + odd + b"}")
    assert router.router._placements[job_id]["done"]
