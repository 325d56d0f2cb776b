"""Host speed, so that times taken on a drifting shared host compare.

The virtual machines this benchmark runs on share their host, and the
host's speed drifts: the same pure-Python loop takes from 1x to over 2x
its best time, over minutes, with nothing else running in the machine.
A median over one run cannot take that out, so the timed metrics
(``setup_s``, ``latency_ms``) are scaled to a nominal host.

A *probe* is a fixed piece of pure-Python work, none of it the
program's: object allocation and dict access, integer arithmetic, and
calls through a tree of closures -- what the flows' interpreter-bound
code and the closure-compiled execution engine do.  Probes run between
jobs, and while a long job is paused; a job's time is multiplied by
``NOMINAL_PROBE_MS`` over the mean of the probes around and during it,
and the run reports medians of the scaled times.  A change to the
program moves the jobs and not the probe, so it shows in the scaled
figures in full; a slower host moves both.

The two vCPUs do not slow together, so a probe only tracks jobs that
ran on its own CPU: :func:`pin_to_one_cpu` keeps a single-process
workload, and every process it starts, on one.  A workload that spreads
over both CPUs is probed on each in turn.
"""

from __future__ import annotations

import gc
import http.server
import json
import os
import statistics
import threading
import time
import urllib.request
from typing import Callable, List

#: the unit of scaled times: a host where a probe pass takes this long
#: (about the reference host's fast phase: 2-vCPU shared VM, Python 3.11)
NOMINAL_PROBE_MS = 10.0
#: passes of the work per probe (about 20 ms on the reference host)
PROBE_PASSES = 2


class _Node:
    __slots__ = ("name", "kids")

    def __init__(self, name: str):
        self.name = name
        self.kids: List["_Node"] = []


def _alloc() -> int:
    root = _Node("root")
    table = {}
    for i in range(6000):
        node = _Node(f"n{i % 97}")
        root.kids.append(node)
        table[node.name] = table.get(node.name, 0) + len(node.kids) + i
    total = 0
    for node in root.kids:
        total += table[node.name] & 7
    return total + len(sorted(table, key=str.upper))


def _arith() -> int:
    total = 0
    for i in range(75000):
        total += i * i % 7
    return total


def _closure_tree(depth: int) -> Callable[[List[int], int], int]:
    if depth == 0:
        return lambda env, i: env[i & 7] + i
    left, right = _closure_tree(depth - 1), _closure_tree(depth - 1)

    def node(env: List[int], i: int) -> int:
        return left(env, i) + (right(env, i + 1) & 15)

    return node


_TREE = _closure_tree(5)


def _closures() -> int:
    env = list(range(8))
    return sum(_TREE(env, i) for i in range(1000))


def probe_ms() -> float:
    """The time of one pass of the work now, in ms, on each CPU this
    process may use in turn; their mean."""
    allowed = os.sched_getaffinity(0)
    if len(allowed) == 1:
        return _probe_here()
    try:
        times = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_here())
        return statistics.fmean(times)
    finally:
        os.sched_setaffinity(0, allowed)


def _probe_here() -> float:
    """The mean of ``PROBE_PASSES``.  Not the fastest: a host that takes
    the CPU away now and then slows the jobs by its mean, and so must
    the probe.

    The garbage collector is off meanwhile, as in ``timeit``: a run
    that holds many objects would otherwise slow its own probes."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(PROBE_PASSES):
            _alloc()
            _arith()
            _closures()
        return 1e3 * (time.perf_counter() - t0) / PROBE_PASSES
    finally:
        gc.enable()


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class _Blob(http.server.BaseHTTPRequestHandler):
    # about the size of a served flow result
    BODY = json.dumps({f"k{i}": [i, str(i) * 8, i / 7]
                       for i in range(600)}).encode()

    def do_GET(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.BODY)))
        self.end_headers()
        self.wfile.write(self.BODY)

    def log_message(self, *args) -> None:
        pass


class LoopbackProbe:
    """A probe for request paths: ``ROUND_TRIPS`` fetches of a JSON body
    from a stdlib HTTP server in this process, one connection each, as
    ``ReproClient`` makes them.  Much of a served request is sockets,
    wake-ups and HTTP parsing, which the CPU probe does not weigh.  It
    is short, to fit between two requests."""

    #: the unit of scaled request times: a host where a round trip takes
    #: this long (about the reference host's fast phase)
    NOMINAL_MS = 1.0
    ROUND_TRIPS = 4

    def __init__(self):
        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                                      _Blob)
        self.server.daemon_threads = True
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/"
        threading.Thread(target=self.server.serve_forever,
                         daemon=True).start()

    def __call__(self) -> float:
        """Mean ms per round trip."""
        t0 = time.perf_counter()
        for _ in range(self.ROUND_TRIPS):
            with urllib.request.urlopen(self.url, timeout=10) as response:
                json.loads(response.read())
        return 1e3 * (time.perf_counter() - t0) / self.ROUND_TRIPS

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


class HostSpeed:
    """Probes taken in one run: before the first job, after every job,
    and during a long job while it is paused.

    The host's speed also changes within a run, within seconds, so each
    job is scaled by the probes around and during it rather than the
    whole run by one factor."""

    def __init__(self, probe: Callable[[], float] = probe_ms,
                 nominal_ms: float = NOMINAL_PROBE_MS):
        self.probes: List[float] = []
        self._probe = probe
        self._nominal_ms = nominal_ms
        self._since = 0

    def probe(self) -> None:
        self.probes.append(self._probe())

    def factor(self) -> float:
        """What scales the times of the job that has just ended to the
        nominal host: from the mean of the probes since the one taken
        before it started."""
        window = self.probes[self._since:]
        self._since = len(self.probes) - 1
        return self._nominal_ms / statistics.fmean(window)
