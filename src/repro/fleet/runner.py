"""The router's view of one runner node, plus a local supervisor.

:class:`RunnerHandle` is pure state + blocking HTTP over kept-alive
connections: the router calls :meth:`probe` from its probe loop and
:meth:`request` from a thread pool when forwarding.  The handle never owns the remote process -- a
runner is whatever answers ``/healthz`` at its URL.

State machine (``state``)::

    unknown --probe ok--> healthy --probe fail x2--> unhealthy
       |                     |  ^                        |
       |                     v  |  (re-admission)        |
       |                  draining <--- probe ok --------+
       +--version mismatch--> rejected (until it matches again)

``healthy`` is the only routable state.  ``draining`` (the runner
answered but reported degraded/draining) and ``rejected`` (version
skew) are reachable-but-unroutable; ``unhealthy`` means the node is
gone and its in-flight jobs need re-routing.

:class:`RunnerProcess` supervises a real ``python -m repro serve``
child on localhost -- the fleet tests, the served benchmark and
``scripts/chaos_fleet.py`` all boot their fleets through it.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.obs.collect import clock_offset
from repro.server.http import (
    ConnectionPool, decode_reply, fetch_text, wire_exchange,
)

#: consecutive probe failures before a runner is declared unhealthy
#: (one lost probe is a blip; two is a dead node)
PROBE_FAILURES_TO_EVICT = 2

#: how long a probe's clock sample stays a candidate for the offset
CLOCK_WINDOW_S = 60.0


class RunnerHandle:
    """Health, version and in-flight accounting for one runner URL."""

    def __init__(self, url: str, timeout_s: float = 10.0):
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s
        self.state = "unknown"
        self.version: Optional[str] = None
        self.consecutive_failures = 0
        self.last_probe_s: Optional[float] = None
        self.last_error: Optional[str] = None
        #: router-side queue depth: forwards accepted but not terminal
        #: (this is the gauge work stealing compares to the threshold)
        self.inflight = 0
        #: seconds to ADD to this runner's timestamps to land on the
        #: local clock (probe round-trip midpoint vs. reported ``now``)
        self.clock_offset_s = 0.0
        #: recent probes' ``(taken, round trip, offset)`` clock samples
        self._clock_samples: Deque[Tuple[float, float, float]] = deque()
        #: drain cursor into the runner's ``/v1/obs/spans`` buffer
        self.spans_cursor = 0
        self._pool = ConnectionPool()

    # ------------------------------------------------------------------
    @property
    def routable(self) -> bool:
        return self.state == "healthy"

    def load(self) -> int:
        return self.inflight

    # ------------------------------------------------------------------
    def exchange(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None,
                 headers: Optional[Dict[str, str]] = None,
                 timeout_s: Optional[float] = None
                 ) -> Tuple[int, bytes, Dict[str, str]]:
        """One blocking HTTP exchange with this runner, body undecoded.

        Raises ``urllib.error.URLError`` when the node is unreachable
        -- the router maps that to node loss, never to a job failure.
        The ``net.request`` wire-fault site fires here (see
        :func:`repro.server.http.wire_exchange`).  The connection is
        kept open for the next exchange.
        """
        return wire_exchange(self._pool, self.url, method, path, payload,
                             headers, timeout_s or self.timeout_s)

    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None,
                headers: Optional[Dict[str, str]] = None,
                timeout_s: Optional[float] = None
                ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """:meth:`exchange`, returning ``(status, json_body, headers)``."""
        return decode_reply(*self.exchange(method, path, payload, headers,
                                           timeout_s))

    def close(self) -> None:
        """Close the idle connections to this runner."""
        self._pool.close()

    # ------------------------------------------------------------------
    def probe(self, expected_version: Optional[str] = None,
              timeout_s: float = 5.0) -> Dict[str, Any]:
        """One health probe; updates the state machine.

        Returns the (possibly empty) health payload.  A reachable
        runner reporting degraded health parks in ``draining``; a
        version different from ``expected_version`` parks in
        ``rejected`` -- both leave in-flight accounting alone, because
        the node is still alive and will finish what it holds.
        """
        self.last_probe_s = time.time()
        t_sent = obs.now()
        try:
            status, health, _ = self.request(
                "GET", "/healthz", timeout_s=timeout_s)
        except (urllib.error.URLError, OSError) as exc:
            self.consecutive_failures += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            if (self.consecutive_failures >= PROBE_FAILURES_TO_EVICT
                    or self.state == "unknown"):
                self.state = "unhealthy"
            return {}
        self.consecutive_failures = 0
        self.last_error = None
        self.version = health.get("version")
        # clock alignment: the runner reports its own `now`; the probe
        # round-trip midpoint maps it onto the router clock so pulled
        # span timestamps stitch monotonically across nodes
        remote_now = health.get("now")
        if isinstance(remote_now, (int, float)):
            self._sample_clock(t_sent, obs.now(), float(remote_now))
        if expected_version is not None and self.version != expected_version:
            self.state = "rejected"
            self.last_error = (f"version {self.version!r} != router "
                               f"{expected_version!r}")
        elif status == 200 and health.get("status") == "ok":
            self.state = "healthy"
        else:
            self.state = "draining"
            self.last_error = f"status={status} health={health.get('status')}"
        return health

    def _sample_clock(self, t_sent: float, t_received: float,
                      remote_now: float) -> None:
        """Offset from the shortest round trip of the last
        ``CLOCK_WINDOW_S`` (NTP's clock filter).

        The midpoint estimate is off by up to half the round trip, and
        a busy runner answers a probe late: taking each probe's own
        estimate moved the offset by tens of milliseconds between span
        pulls, so a child pulled early could land before a parent
        pulled later from the same process.
        """
        samples = self._clock_samples
        samples.append((t_received, t_received - t_sent,
                        clock_offset(t_sent, t_received, remote_now)))
        while samples[0][0] < t_received - CLOCK_WINDOW_S:
            samples.popleft()
        self.clock_offset_s = min(samples, key=lambda s: s[1])[2]

    def fetch_spans(self, since: Optional[int] = None,
                    timeout_s: float = 10.0) -> Dict[str, Any]:
        """Drain this runner's span buffer past the cursor.

        Advances ``spans_cursor`` on success so the next pull is
        incremental; raises like :meth:`request` when the node is gone.
        """
        cursor = self.spans_cursor if since is None else since
        status, data, _ = self.request(
            "GET", f"/v1/obs/spans?since={cursor}", timeout_s=timeout_s)
        if status == 200 and since is None:
            self.spans_cursor = int(data.get("next") or cursor)
        return data if status == 200 else {"spans": [], "next": cursor}

    def fetch_text(self, path: str,
                   timeout_s: Optional[float] = None) -> str:
        """GET a non-JSON resource (e.g. ``/metrics``) from the runner."""
        return fetch_text(self._pool, self.url, path,
                          timeout_s or self.timeout_s)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "url": self.url,
            "state": self.state,
            "version": self.version,
            "inflight": self.inflight,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
            "clock_offset_s": round(self.clock_offset_s, 6),
        }

    def __repr__(self):
        return f"<RunnerHandle {self.url} {self.state} " \
               f"inflight={self.inflight}>"


# ----------------------------------------------------------------------
# Local process supervision (benchmarks, chaos tests, CI)
# ----------------------------------------------------------------------

def free_port() -> int:
    """An OS-assigned free TCP port on localhost."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class RunnerProcess:
    """One supervised local ``python -m repro serve`` child.

    Boots the runner on its own port with an isolated (or shared)
    cache directory, waits until ``/healthz`` answers, and can kill it
    dead (SIGKILL) for node-loss chaos.  ``env`` entries overlay the
    parent environment, which is how tests pin ``REPRO_OBS_BUFFER``
    or ``REPRO_FLEET_PEERS`` per node.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 workers: int = 1, port: Optional[int] = None,
                 env: Optional[Dict[str, str]] = None,
                 extra_args: Optional[List[str]] = None):
        self.cache_dir = cache_dir
        argv = ["--workers", str(workers)]
        if cache_dir:
            argv += ["--cache-dir", cache_dir]
        self._spawn("serve", port, argv + list(extra_args or []), env)

    def _spawn(self, command: str, port: Optional[int], argv: List[str],
               env: Optional[Dict[str, str]]) -> None:
        self.port = port or free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        child_env = dict(os.environ)
        child_env.update(env or {})
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", command, "--host",
             "127.0.0.1", "--port", str(self.port), *argv],
            env=child_env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    # ------------------------------------------------------------------
    def wait_ready(self, timeout_s: float = 30.0) -> None:
        """Block until ``/healthz`` answers (any status: degraded still
        counts) or die trying."""
        deadline = time.monotonic() + timeout_s
        with contextlib.closing(ConnectionPool()) as pool:
            while time.monotonic() < deadline:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"runner on port {self.port} exited with "
                        f"{self.proc.returncode} before becoming ready")
                try:
                    pool.exchange(self.url, "GET", "/healthz",
                                  timeout_s=2.0)
                    return
                except urllib.error.URLError:
                    time.sleep(0.05)
        raise TimeoutError(f"runner on port {self.port} never became "
                           f"ready within {timeout_s}s")

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL: the node-loss chaos primitive (no drain, no warning)."""
        if self.alive:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=10)

    def pause(self) -> None:
        """SIGSTOP: the partition chaos primitive -- the process is
        alive but answers nothing, exactly what a netsplit looks like
        from the router's side of the socket."""
        if self.alive:
            self.proc.send_signal(signal.SIGSTOP)

    def resume(self) -> None:
        """SIGCONT: heal the simulated partition."""
        if self.alive:
            self.proc.send_signal(signal.SIGCONT)

    def stop(self, timeout_s: float = 15.0) -> None:
        """SIGTERM and wait: the polite shutdown (drains in-flight)."""
        if self.alive:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.kill()

    def __enter__(self):
        self.wait_ready()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False


class RouterProcess(RunnerProcess):
    """One supervised local ``python -m repro router`` child.

    Same supervision surface as :class:`RunnerProcess` (``wait_ready``
    / ``kill`` / ``pause`` / ``stop``) but boots the control plane:
    chaos scenarios SIGKILL the *router* mid-batch and expect the
    journal + standby to carry every job to exactly one terminal
    state.  ``standby_of`` boots the node as a warm standby tailing
    the given primary.
    """

    def __init__(self, runners: List[str], port: Optional[int] = None,
                 journal_dir: Optional[str] = None,
                 node_name: Optional[str] = None,
                 standby_of: Optional[str] = None,
                 probe_interval_s: float = 1.0,
                 env: Optional[Dict[str, str]] = None,
                 extra_args: Optional[List[str]] = None):
        self.cache_dir = None
        argv = ["--runners", ",".join(runners),
                "--probe-interval", str(probe_interval_s)]
        for flag, value in (("--journal-dir", journal_dir),
                            ("--node-name", node_name),
                            ("--standby-of", standby_of)):
            if value:
                argv += [flag, value]
        self._spawn("router", port, argv + list(extra_args or []), env)
