"""The observability surface: /v1/obs/* and healthz extras.

The span drain is every node's (it lives in ``HttpServerBase``), so
its tests run against a runner and against a router over it.
"""

import pytest

from repro.client import ReproClient
from repro.config import ReproConfig


@pytest.fixture(scope="module")
def obs_server():
    from tests.server.conftest import LiveServer

    server = LiveServer(port=0, config=ReproConfig(
        workers=1, obs_buffer=512, profile_hz=50.0))
    yield server
    server.stop()


@pytest.fixture(scope="module")
def obs_client(obs_server):
    return ReproClient(obs_server.url, backoff_s=0.05,
                       poll_interval_s=0.05)


@pytest.fixture(scope="module", params=["runner", "router"])
def node(request, obs_server):
    """``(kind, client)`` of the runner, or of a router in front of it."""
    if request.param == "runner":
        yield "runner", ReproClient(obs_server.url, backoff_s=0.05,
                                    poll_interval_s=0.05)
        return
    from tests.fleet.conftest import LiveRouter

    router = LiveRouter([obs_server.url])
    yield "router", ReproClient(router.url, backoff_s=0.05,
                                poll_interval_s=0.05)
    router.stop()


def test_healthz_carries_the_runner_clock(obs_client):
    health = obs_client.health()
    assert health["http_status"] == 200 and health["status"] == "ok"
    assert isinstance(health["now"], float)
    assert "slo" not in health


#: the root span, then the others, a node records for one job
OWN_SPANS = {"runner": ("service.job",),
             "router": ("fleet.job", "fleet.route")}


def test_obs_spans_drains_job_spans_incrementally(node):
    kind, client = node
    client.run_flow("kmeans", "informed", timeout=120)
    data = client.obs_spans(since=0)
    assert data["enabled"] is True
    assert data["next"] > 0 and isinstance(data["now"], float)
    names = {s["name"] for s in data["spans"]}
    assert set(OWN_SPANS[kind]) <= names
    if kind == "runner":
        assert any(n.startswith("flow.") or n == "parse" for n in names)
    trace_ids = {s["trace_id"] for s in data["spans"]
                 if s["name"] == OWN_SPANS[kind][0]}
    assert len(trace_ids) >= 1
    # the cursor advances: nothing new means an empty drain
    again = client.obs_spans(since=data["next"])
    assert again["spans"] == [] and again["next"] == data["next"]


def test_obs_spans_rejects_a_bad_cursor(node):
    _, client = node
    status, data, _ = client._request_once(
        "GET", "/v1/obs/spans?since=banana")
    assert status == 400
    assert data["error"]["code"] == "bad_request"


def test_obs_summary_describes_the_runner(obs_client):
    import repro

    summary = obs_client.obs_summary()
    assert summary["role"] == "runner"
    assert summary["version"] == repro.__version__
    assert summary["spans"]["enabled"] is True
    assert summary["spans"]["buffered"] >= 0
    profiler = summary["profiler"]
    assert profiler is not None and profiler["hz"] == 50.0
    assert profiler["running"] is True
    assert "slo" not in summary


def test_obs_profile_serves_folded_stacks(obs_client):
    deadline = 100
    text = ""
    while deadline and not text.strip():
        text = obs_client.obs_profile()
        deadline -= 1
    assert text.strip(), "profiler produced no samples"
    stack, count = text.splitlines()[0].rsplit(" ", 1)
    assert int(count) >= 1 and ":" in stack


def test_obs_is_dark_by_default(live_server_factory):
    server = live_server_factory(config=ReproConfig(workers=1))
    client = ReproClient(server.url, max_retries=0)
    data = client.obs_spans()
    assert data["enabled"] is False and data["spans"] == []
    import urllib.error

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        client.obs_profile()
    assert excinfo.value.code == 404
    summary = client.obs_summary()
    assert summary["spans"]["enabled"] is False
    assert summary["profiler"] is None
