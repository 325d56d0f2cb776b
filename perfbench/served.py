"""``served_mix``: an open loop through ``repro router`` (journaled) to two
``repro serve`` runners.  Most requests resubmit the warmed hot set; a
minority are fresh jobs from the reference ladder, in seeded order."""

from __future__ import annotations

import functools
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

# imported here, before any set-up is timed: the load generator's own
# imports are paid once per process and would inflate only the first
# set-up (the digest of every checked result needs the serializer)
import repro.flow.serialize  # noqa: F401
from repro.client import ReproClient
from repro.obs.console import parse_prometheus

from common import (
    APPS, MODES, HOT_SCALE, BenchError, Result, delta, digest, ensure_refs,
    hermetic_environ, load_refs, pct,
    record_config, scale_key,
)
from hostspeed import HostSpeed, LoopbackProbe

#: hot-set resubmissions per second (one client thread)
HIT_RATE = 10.0
RUNNERS = 2
REQUEST_BUDGET_S = 30.0
#: first port tried for the fleet; runner URLs are the router's hash-ring
#: node ids, so fixed ports give every run the same placement of the hot
#: set and of the fresh jobs (random ports would reshuffle it each run)
BASE_PORT = 18730
BOOT_TIMEOUT_S = 60.0
#: full set-ups per run; ``setup_s`` is their median
SETUPS = 3


def free_ports(count: int) -> List[int]:
    """The first ``count`` free local ports from ``BASE_PORT`` up."""
    ports: List[int] = []
    for port in range(BASE_PORT, BASE_PORT + 1000):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            # as the servers bind: a port left in TIME_WAIT by the
            # previous set-up's fleet is still free for them
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind(("127.0.0.1", port))
            except OSError:
                continue
        ports.append(port)
        if len(ports) == count:
            return ports
    raise BenchError(f"no {count} free ports from {BASE_PORT}")


class Fleet:
    """Two ``repro serve`` runners behind one journaled ``repro router``,
    each with empty cache/journal directories."""

    def __init__(self, run_dir, tag: str):
        self.dir = run_dir.sub(tag)
        self.procs: List[subprocess.Popen] = []
        self.url: Optional[str] = None

    def _spawn(self, name: str, args: List[str]) -> Tuple[subprocess.Popen,
                                                           str]:
        log = os.path.join(self.dir, f"{name}.log")
        with open(log, "wb") as fh:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args], cwd=self.dir,
                env=hermetic_environ(), stdout=subprocess.DEVNULL,
                stderr=fh)
        self.procs.append(proc)
        return proc, log

    @staticmethod
    def _wait_for(proc, log: str, pattern: str, deadline: float) -> str:
        regex = re.compile(pattern)
        while time.monotonic() < deadline:
            with open(log, "r", encoding="utf-8", errors="replace") as fh:
                match = regex.search(fh.read())
            if match:
                return match.group(1)
            if proc.poll() is not None:
                raise BenchError(f"{log}: exited {proc.returncode} "
                                 f"before it was ready")
            time.sleep(0.01)
        raise BenchError(f"{log}: not ready after {BOOT_TIMEOUT_S}s")

    def start(self) -> str:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        ports = free_ports(RUNNERS + 1)
        runners = [self._spawn(f"runner{i}", [
            "serve", "--port", str(ports[i]), "--workers", "1",
            "--cache-dir", os.path.join(self.dir, f"cache{i}")])
            for i in range(RUNNERS)]
        urls = [self._wait_for(proc, log, r"serving on (http://\S+)",
                               deadline) for proc, log in runners]
        router, log = self._spawn("router", [
            "router", "--port", str(ports[-1]), "--runners", ",".join(urls),
            "--journal-dir", os.path.join(self.dir, "journal")])
        self.runner_urls = urls
        self.url = self._wait_for(router, log,
                                  r"fleet router on (http://\S+)", deadline)
        client = ReproClient(self.url)
        while time.monotonic() < deadline:
            health = client.health()
            if (health.get("fleet") or {}).get("healthy") == RUNNERS:
                return self.url
            time.sleep(0.01)
        raise BenchError("fleet never reported all runners healthy")

    def peak_rss_mb(self) -> float:
        total = 0.0
        for proc in self.procs:
            try:
                with open(f"/proc/{proc.pid}/status", "r") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 20.0
        for proc in self.procs:
            try:
                proc.wait(max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []


def counted_client(url: str, retries: List[float]):
    """A client whose retry back-off sleeps are counted in ``retries``
    (one list per client thread).  Each logical request gives up after
    ``REQUEST_BUDGET_S``, so a dead fleet cannot stall a run."""
    client = ReproClient(url, timeout_s=REQUEST_BUDGET_S,
                         max_wait_s=REQUEST_BUDGET_S)
    sleep = client._sleep

    def counting_sleep(seconds: float) -> None:
        retries.append(seconds)
        sleep(seconds)

    client._sleep = counting_sleep
    return client


def wait_done(client, job_id: str) -> Dict:
    """Block on the job's SSE stream until its ``done`` frame."""
    for event, data in client.events(job_id):
        if event == "done":
            return data
    raise BenchError(f"event stream of {job_id[:12]} ended without done")


def warm(url: str, refs: Dict, result: Result) -> None:
    """Run the hot set once, both runners in parallel, and check it."""
    client = counted_client(url, [])
    ids = [client.submit(app, mode, scale=HOT_SCALE)["id"]
           for app in APPS for mode in MODES]
    for job_id in ids:
        wait_done(client, job_id)
    for (app, mode), job_id in zip(
            [(a, m) for a in APPS for m in MODES], ids):
        if digest(client.result(job_id)) != refs["digests"][
                scale_key(app, mode, HOT_SCALE)]:
            result.mismatch(f"hot {app}/{mode}: result differs from the "
                            f"reference")


def miss_round(ladder: Dict[str, List[float]], k: int,
               rng: random.Random) -> List[Tuple[str, str, float]]:
    """The fresh jobs of stretch ``k``: one per app, at ladder size ``k``,
    modes alternating over the apps (and flipped each stretch), in
    seeded order.

    The seed orders the jobs but does not choose them: the job specs,
    and so the runner each hashes to, are the same for every seed, and
    one job per app keeps the fresh work a run does the same.
    """
    jobs = [(app, MODES[(i + k) % 2], ladder[app][k])
            for i, app in enumerate(APPS)]
    rng.shuffle(jobs)
    return jobs


class Phase:
    """One open-loop stretch: hits and misses on fixed schedules."""

    def __init__(self, url: str, hot: List[Tuple[str, str]],
                 misses: List[Tuple[str, str, float]], seconds: float,
                 speed: Optional[HostSpeed] = None):
        self.url = url
        self.hot = hot
        self.miss_jobs = misses
        self.seconds = seconds
        #: probes the host after every hit, if given (see ``run``)
        self.speed = speed
        self.hits: List[Tuple[float, Tuple[str, str], object]] = []
        #: per hit, what scales its latency to the nominal host
        self.hit_factors: List[float] = []
        self.misses: List[Tuple[float, Tuple, object]] = []
        self.miss_windows: List[Tuple[float, float]] = []
        self.lags: List[float] = []
        self.errors: List[str] = []
        self.hit_retries: List[float] = []
        self.miss_retries: List[float] = []
        self.attempted = 0
        self._lock = threading.Lock()

    def _due(self, due: float) -> None:
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        lag = time.perf_counter() - due
        with self._lock:
            self.lags.append(max(0.0, lag))
            self.attempted += 1

    def _fail(self, what: str, exc: BaseException) -> None:
        with self._lock:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def _hit_loop(self, t0: float) -> None:
        client = counted_client(self.url, self.hit_retries)
        if self.speed is not None:
            self.speed.probe()
        for i in range(int(self.seconds * HIT_RATE)):
            due = t0 + i / HIT_RATE
            app, mode = self.hot[i % len(self.hot)]
            self._due(due)
            try:
                job_id = client.submit(app, mode, scale=HOT_SCALE)["id"]
                record = client.result(job_id)
                latency = time.perf_counter() - due
            except Exception as exc:
                self._fail(f"hit {app}/{mode}", exc)
                continue
            finally:
                # in the gap before the next hit is due
                if self.speed is not None:
                    self.speed.probe()
                    factor = self.speed.factor()
            self.hits.append((latency, (app, mode), record))
            if self.speed is not None:
                self.hit_factors.append(factor)

    def _miss_loop(self, t0: float) -> None:
        client = counted_client(self.url, self.miss_retries)
        interval = self.seconds / len(self.miss_jobs)
        for j, job in enumerate(self.miss_jobs):
            due = t0 + (j + 0.25) * interval
            app, mode, scale = job
            self._due(due)
            try:
                job_id = client.submit(app, mode, scale=scale)["id"]
                done = wait_done(client, job_id)
                finished = time.perf_counter()
                if done.get("status") != "succeeded":
                    raise BenchError(f"job ended {done.get('status')}")
                record = client.result(job_id)
            except Exception as exc:
                self._fail(f"miss {scale_key(*job)}", exc)
                continue
            self.misses.append((finished - due, job, record))
            self.miss_windows.append((due, finished))

    def run(self) -> None:
        t0 = time.perf_counter() + 0.05
        # daemon threads: a SIGTERM unwinding the main thread must not
        # wait for requests to a fleet that is being stopped
        threads = [threading.Thread(target=self._hit_loop, args=(t0,),
                                    daemon=True),
                   threading.Thread(target=self._miss_loop, args=(t0,),
                                    daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    @property
    def retries(self) -> int:
        return len(self.hit_retries) + len(self.miss_retries)

    def outstanding_max(self) -> int:
        """Most fresh jobs due and not yet done at any moment."""
        events = sorted([(a, 1) for a, _ in self.miss_windows]
                        + [(b, -1) for _, b in self.miss_windows])
        level = peak = 0
        for _, step in events:
            level += step
            peak = max(peak, level)
        return peak

    def check(self, refs: Dict, result: Result) -> None:
        result.attempted += self.attempted
        result.failed += len(self.errors) + self.retries
        for what in self.errors:
            result.mismatch(what)
        for _, (app, mode), record in self.hits:
            if digest(record) != refs["digests"][scale_key(app, mode,
                                                           HOT_SCALE)]:
                result.mismatch(f"hit {app}/{mode}: result differs")
        for _, job, record in self.misses:
            if digest(record) != refs["digests"][scale_key(*job)]:
                result.mismatch(f"miss {scale_key(*job)}: result differs")


class ClientTimer:
    """Wraps ``ReproClient.submit`` / ``.result`` to time every call."""

    def __init__(self):
        self.calls: Dict[str, List[float]] = {"submit": [], "result": []}
        self.originals = {name: ReproClient.__dict__[name]
                          for name in self.calls}

    def install(self) -> None:
        for name, original in self.originals.items():
            setattr(ReproClient, name, self._timed(name, original))

    def uninstall(self) -> None:
        for name, original in self.originals.items():
            setattr(ReproClient, name, original)

    def _timed(self, name, original):
        samples = self.calls[name]

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - t0)

        return timed

    def mean_ms(self, name: str) -> float:
        samples = self.calls[name]
        return 1e3 * statistics.fmean(samples) if samples else 0.0


def _hist_mean_ms(before, after, name: str, **match) -> float:
    """Mean of histogram ``name`` over the scrape window, in ms."""
    sums = delta(before, after, f"{name}_sum", **match)
    counts = delta(before, after, f"{name}_count", **match)
    return 1e3 * sums / counts if counts else 0.0


def served_layers(before, after, timer: ClientTimer, phase: Phase
                  ) -> Dict[str, float]:
    # the router labels its own routes fleet.*; the runners' series
    # come federated under a runner label with the bare route name
    http = "repro_http_request_seconds"
    router_submit = _hist_mean_ms(before, after, http, route="fleet.submit")
    router_result = _hist_mean_ms(before, after, http, route="fleet.result")
    server_submit = _hist_mean_ms(before, after, http, route="submit")
    server_result = _hist_mean_ms(before, after, http, route="result")
    hits = sum(delta(before, after, "repro_service_events_total", event=e)
               for e in ("cache_hit_memory", "cache_hit_disk"))
    lookups = hits + delta(before, after, "repro_service_events_total",
                           event="cache_miss")
    return {
        "client.submit_ms": timer.mean_ms("submit"),
        "client.result_ms": timer.mean_ms("result"),
        "client.retries": float(phase.retries),
        "fleet.submit_hop_ms": router_submit - server_submit,
        "fleet.result_hop_ms": router_result - server_result,
        "server.submit_ms": server_submit,
        "server.result_ms": server_result,
        "service.queue_wait_ms": _hist_mean_ms(
            before, after, "repro_scheduler_queue_wait_seconds"),
        "service.job_ms": _hist_mean_ms(
            before, after, "repro_service_job_wall_seconds", source="run"),
        "service.cache_lookups": lookups,
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "fleet.journal_records": delta(before, after,
                                       "repro_journal_records_total"),
        "fleet.journal_fsyncs": delta(before, after,
                                      "repro_journal_fsyncs_total"),
        "fleet.steals": delta(before, after, "repro_fleet_steals_total"),
        "fleet.reroutes": delta(before, after, "repro_fleet_reroutes_total"),
    }


def refusals(before, after) -> float:
    """429/503 answers the router gave the load generator."""
    return sum(delta(before, after, "repro_http_requests_total",
                     status=code, runner=None) for code in ("429", "503"))


def run(seed: int, seconds: float, trace: bool, run_dir) -> Result:
    result = Result("served_mix", seed, trace)
    refs = load_refs()
    rng = random.Random(seed)
    rounds = [miss_round(refs["ladder"], k, rng) for k in range(2)]
    ensure_refs(refs, [job for jobs in rounds for job in jobs])
    hot = [(app, mode) for app in APPS for mode in MODES]
    rng.shuffle(hot)

    # set-ups (cold interpreters, imports) are scaled to the nominal
    # host by CPU probes on both CPUs while the fleet is idle, untraced
    # hits by loopback HTTP probes between them
    setups: List[float] = []
    speed = HostSpeed()
    speed.probe()
    loopback = LoopbackProbe()
    hit_speed = HostSpeed(loopback, LoopbackProbe.NOMINAL_MS)
    fleet: Optional[Fleet] = None
    try:
        for k in range(SETUPS):
            if fleet is not None:
                fleet.stop()
            fleet = Fleet(run_dir, f"fleet{k}")
            t0 = time.perf_counter()
            url = fleet.start()
            warm(url, refs, result)
            elapsed = time.perf_counter() - t0
            speed.probe()
            setups.append(elapsed * speed.factor())

        result.details["config"] = record_config(fleet.dir)
        result.details["health"] = ReproClient(url).health()
        result.details["runners"] = fleet.runner_urls

        def metrics():
            return parse_prometheus(ReproClient(url).metrics())

        phases = {False: None, True: None}
        scrapes = {}
        for traced in ([False, True] if trace else [False]):
            phase = Phase(url, hot, rounds[int(traced)], seconds,
                          None if traced else hit_speed)
            timer = ClientTimer()
            before = metrics()
            if traced:
                timer.install()
            try:
                phase.run()
            finally:
                if traced:
                    timer.uninstall()
            after = metrics()
            scrapes[traced] = (before, after, timer)
            phases[traced] = phase
        peak_rss = fleet.peak_rss_mb()
    finally:
        loopback.close()
        if fleet is not None:
            fleet.stop()

    for traced, phase in phases.items():
        if phase is not None:
            phase.check(refs, result)
            before, after, _ = scrapes[traced]
            result.failed += int(refusals(before, after))
    main = phases[False]
    hit_lat = [lat for lat, _, _ in main.hits]
    miss_lat = [lat for lat, _, _ in main.misses]
    result.metric("setup_s", statistics.median(setups), "s")
    result.metric("latency_ms", 1e3 * pct(
        [lat * f for (lat, _, _), f in zip(main.hits, main.hit_factors)],
        50), "ms")
    result.metric("peak_rss_mb", peak_rss, "MB")
    result.report("hit_p50_ms", 1e3 * pct(hit_lat, 50), "ms")
    result.report("hit_p90_ms", 1e3 * pct(hit_lat, 90), "ms")
    result.report("miss_p50_ms", 1e3 * pct(miss_lat, 50), "ms")
    result.report("hits", len(hit_lat), "count")
    result.report("misses", len(miss_lat), "count")
    result.details["setups_s"] = setups
    result.details["probes_ms"] = speed.probes
    result.details["hit_probes_ms"] = hit_speed.probes
    result.details["hits_ms"] = [(f"{app}/{mode}", round(1e3 * lat, 3))
                                 for lat, (app, mode), _ in main.hits]
    result.details["misses_ms"] = [(scale_key(*job), round(1e3 * lat, 3))
                                   for lat, job, _ in main.misses]
    if trace:
        before, after, timer = scrapes[True]
        layers = served_layers(before, after, timer, phases[True])
        layers["loadgen.lag_p90_ms"] = 1e3 * pct(main.lags, 90)
        layers["loadgen.outstanding_max"] = float(main.outstanding_max())
        layers["e2e.hit_p90_ms"] = 1e3 * pct(hit_lat, 90)
        layers["e2e.miss_p50_ms"] = 1e3 * pct(miss_lat, 50)
        traced_hits = [lat for lat, _, _ in phases[True].hits]
        layers["bench.trace_overhead_ratio"] = (
            pct(traced_hits, 50) / pct(hit_lat, 50) if hit_lat else 0.0)
        result.details["layers"] = layers
    return result
