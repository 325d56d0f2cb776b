"""Fixtures: a real ReproServer on a live socket, loop in a thread."""

import asyncio
import threading

import pytest

import repro.server.core as server_core
from repro.server import ReproServer


class LiveServer:
    """Runs one :class:`ReproServer` on its own event-loop thread."""

    def __init__(self, **kwargs):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        self.server = ReproServer(**kwargs)
        self.call(self.server.start())
        self.url = f"http://127.0.0.1:{self.server.port}"
        self._stopped = False

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def call(self, coro, timeout=60.0):
        """Run a coroutine on the server's loop and wait for it."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout)

    def stop(self, drain=True):
        if self._stopped:
            return
        self._stopped = True
        self.call(self.server.shutdown(drain=drain))
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
        server.stop()


@pytest.fixture(scope="module")
def shared_server():
    """One warm server per module for the read-only round-trip tests."""
    server = LiveServer(port=0)
    yield server
    server.stop()


@pytest.fixture
def accepted(monkeypatch):
    """The port of the server behind every connection accepted by a
    server started after this fixture (one entry per connection)."""
    ports = []
    real = server_core.ReproServer._handle_connection

    async def counting(self, reader, writer):
        ports.append(self.port)
        await real(self, reader, writer)

    monkeypatch.setattr(server_core.ReproServer, "_handle_connection",
                        counting)
    return ports
