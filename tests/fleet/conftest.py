"""Fixtures: real runner servers plus an in-process fleet router.

Runners reuse :class:`tests.server.conftest.LiveServer` (a real
:class:`ReproServer` on a live socket); :class:`LiveRouter` gives the
:class:`~repro.fleet.router.FleetRouter` the same treatment.  Probing
defaults to a long interval so tests drive state transitions
explicitly (via ``probe_now`` or forward failures), never a timer.
"""

import asyncio
import threading

import pytest

from repro.fleet.router import FleetRouter
from tests.server.conftest import LiveServer, accepted  # noqa: F401


class LiveRouter:
    """Runs one :class:`FleetRouter` on its own event-loop thread."""

    def __init__(self, runners, **kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("probe_interval_s", 60.0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        self.router = FleetRouter(runners, **kwargs)
        self.call(self.router.start())
        self.url = f"http://127.0.0.1:{self.router.port}"
        self._stopped = False

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def call(self, coro, timeout=60.0):
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout)

    def probe_now(self):
        """One synchronous probe pass (the tests' stand-in for the
        timer-driven loop)."""
        self.call(self.router._probe_all())

    def stop(self):
        if self._stopped:
            return
        self._stopped = True
        self.call(self.router.shutdown())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture
def live_server_factory():
    servers = []

    def factory(**kwargs):
        kwargs.setdefault("port", 0)
        server = LiveServer(**kwargs)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        try:
            server.stop()
        except Exception:              # noqa: BLE001 - chaos tests kill
            pass


@pytest.fixture
def live_router_factory():
    routers = []

    def factory(runners, **kwargs):
        router = LiveRouter(runners, **kwargs)
        routers.append(router)
        return router

    yield factory
    for router in routers:
        router.stop()
