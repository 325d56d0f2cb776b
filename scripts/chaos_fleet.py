#!/usr/bin/env python
"""Chaos scenario runner + invariant checker for the fleet.

    PYTHONPATH=src python scripts/chaos_fleet.py                 # all
    PYTHONPATH=src python scripts/chaos_fleet.py kill_runner --jobs 16

Each scenario boots a real fleet (two supervised ``python -m repro
serve`` runners behind one or two ``python -m repro router`` control
planes), submits a batch of real flows -- every job its own distinct
``(app, mode, scale)`` spec, so no job is a cache or profile hit of
another -- hurts the fleet mid-batch with a process signal or a seeded
fault plan, and then checks the invariants it names:

``terminal_once``       every job reaches exactly one sticky terminal
                        state, and each result is its spec's app
``zero_lost``           no job is forgotten and none fails
``no_duplicate_exec``   the runners' ``jobs_run`` counters sum to the
                        distinct jobs submitted (no double execution)
``failover_happened``   the standby is the unfenced primary now (lease
                        term >= 2, failover + journal series exported)
``stitched_trace``      ``repro obs trace`` fetches every job's
                        whole-fleet trace; each holds ``fleet.job``/
                        ``fleet.route``/``service.job`` and passes the
                        stitched validator -- a job re-routed off a
                        SIGKILLed runner once that runner's orphaned
                        spans are set aside, and no other way
``one_trace_per_job``   every job's stitched trace has one trace id
``rerouted``            the router rerouted work off the hurt runner
``torn_seen``           replay skipped >= 1 torn journal record
``fig5_identical``      fig5 through the fleet (primary killed while it
                        ran) is byte-identical to fig5 in-process
``metrics_exposition``  router ``/metrics`` passes the exposition
                        validator with the fleet families present
``federated_metrics``   router ``/metrics`` carries both runners'
                        series plus the fleet, HTTP-latency and server
                        families
``console_snapshot``    ``repro obs top --once`` renders the fleet
``victim_busy``         every process a step killed or paused held
                        in-flight work at that moment, so a batch that
                        drained too early cannot pass untested

Scenarios are declarative data (``SCENARIOS``): a fleet shape, a chaos
script of ``(step, ...)`` tuples run in order -- ``("check", name)``
checks an invariant at that point, e.g. before anything is hurt -- and
the invariants checked once every job is terminal.  Importing this
module boots nothing.  Exit code 0 when every selected scenario holds.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.abspath(os.path.join(_HERE, os.pardir, "src"))
if os.path.isdir(_SRC):
    sys.path.insert(0, _SRC)
sys.path.insert(0, _HERE)

import validate_trace                                     # noqa: E402

from repro.client import ReproClient                      # noqa: E402
from repro.fleet import RouterProcess                     # noqa: E402
from repro.fleet.runner import RunnerProcess              # noqa: E402
from repro.server.protocol import JobNotFound             # noqa: E402
from repro.service.batch import expand_jobs               # noqa: E402
from repro.service.scheduler import (                     # noqa: E402
    JobError, JobResultPending,
)

#: wall-clock budget for one scenario's result collection
COLLECT_TIMEOUT_S = 240.0

#: real flows the batch cycles through: ``(app, mode, first scale)``;
#: each lap raises the scale by ``SCALE_STEP`` so every job is its own
#: workload.  Informed-mode flows take ~0.5-2 s each on a 2-vCPU VM.
WORK = (("bezier", "informed", 4.0), ("nbody", "informed", 3.0),
        ("kmeans", "informed", 8.0))
SCALE_STEP = 0.5

#: metric families the router exposition must carry
ROUTER_METRICS = ("repro_http_requests_total",
                  "repro_fleet_shard_jobs_total",
                  "repro_fleet_reroutes_total",
                  "repro_fleet_runner_inflight",
                  "repro_fleet_runners_healthy")
FEDERATED_METRICS = ("repro_fleet_runners_healthy",
                     "repro_http_request_seconds",
                     "repro_server_jobs_inflight")
STITCHED_SPANS = ("fleet.job", "fleet.route", "service.job")


class InvariantViolation(AssertionError):
    """An invariant did not hold (or a step found nothing to hurt)."""


def _log(message: str) -> None:
    print(f"chaos_fleet: {message}", flush=True)


def job_specs(jobs: int):
    """``jobs`` distinct submit specs cycling through :data:`WORK`."""
    specs = []
    for i in range(jobs):
        app, mode, scale = WORK[i % len(WORK)]
        specs.append({"app": app, "mode": mode,
                      "scale": scale + SCALE_STEP * (i // len(WORK))})
    return specs


def _clean_env() -> dict:
    """The environment minus every ``REPRO_*`` knob (eval reference)."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("REPRO_")}


def _repro(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, **kwargs)


# ----------------------------------------------------------------------
# Fleet harness
# ----------------------------------------------------------------------

class Fleet:
    """Two runners + a journaled router (optionally with a standby)."""

    def __init__(self, workdir: str, standby: bool = True,
                 router_env=None):
        self.workdir = workdir
        self.journal_dir = os.path.join(workdir, "journal")
        self.router_env = dict(router_env or {})
        self.runners = [RunnerProcess(
            cache_dir=os.path.join(workdir, f"cache-{i}"), workers=1,
            env={"REPRO_OBS_BUFFER": "4096"},
            extra_args=["--max-queue", "64"]) for i in range(2)]
        self.runner_urls = [runner.url for runner in self.runners]
        for runner in self.runners:
            runner.wait_ready()
        self.primary = RouterProcess(
            self.runner_urls, journal_dir=self.journal_dir,
            node_name="primary", probe_interval_s=0.3,
            env=self.router_env)
        self.primary.wait_ready()
        self.standby = None
        if standby:
            self.standby = RouterProcess(
                self.runner_urls, journal_dir=self.journal_dir,
                node_name="standby", standby_of=self.primary.url,
                probe_interval_s=0.3)
            self.standby.wait_ready()
        self.paused = None

    # ------------------------------------------------------------------
    def endpoints(self):
        urls = [self.primary.url]
        if self.standby is not None:
            urls.append(self.standby.url)
        return urls

    def serving_url(self) -> str:
        """The router endpoint that currently answers as primary."""
        for proc in (self.primary, self.standby):
            if proc is None or not proc.alive:
                continue
            try:
                payload = self.healthz(proc.url, timeout_s=2.0)
            except (urllib.error.URLError, OSError, ValueError):
                continue
            if payload.get("role") == "primary" \
                    and not payload.get("fenced"):
                return proc.url
        raise InvariantViolation("no live router answers as primary")

    def healthz(self, url: str, timeout_s: float = 5.0) -> dict:
        try:
            with urllib.request.urlopen(url + "/healthz",
                                        timeout=timeout_s) as resp:
                return json.load(resp)
        except urllib.error.HTTPError as exc:   # degraded still answers
            return json.load(exc)

    def get(self, url: str) -> str:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return resp.read().decode("utf-8")

    def metrics(self, url: str) -> str:
        return self.get(url + "/metrics")

    def runner_inflight(self, router_url: str) -> dict:
        """Router-side in-flight count per runner URL."""
        payload = self.healthz(router_url)
        runners = (payload.get("fleet") or {}).get("runners") or []
        return {r["url"]: r.get("inflight", 0) for r in runners}

    def restart_primary(self) -> None:
        """Boot a fresh primary on the dead one's port + journal."""
        if self.primary.alive:
            self.primary.kill()
        self.primary = RouterProcess(
            self.runner_urls, port=self.primary.port,
            journal_dir=self.journal_dir, node_name="primary",
            probe_interval_s=0.3)
        self.primary.wait_ready()

    def shutdown(self) -> None:
        for proc in (self.primary, self.standby, *self.runners):
            if proc is None:
                continue
            try:
                proc.resume()          # a paused child ignores SIGTERM
                proc.stop(timeout_s=5.0)
            except Exception:
                pass


class Run:
    """One scenario's live state: fleet, batch, results, findings."""

    def __init__(self, fleet: Fleet, client: ReproClient, specs: dict,
                 submitted: int):
        self.fleet = fleet
        self.client = client
        #: submit calls made; more than ``len(specs)`` means two specs
        #: collided on one job id
        self.submitted = submitted
        #: job id -> its submit spec (app, mode, scale)
        self.specs = specs
        #: job id -> ("ok", record) | ("error", exc), once terminal
        self.records: dict = {}
        #: jobs the fleet ran besides the batch (fig5's)
        self.extra_keys: set = set()
        #: (what, in-flight count) per process a step hurt
        self.victims: list = []
        #: pids of the runners a step SIGKILLed
        self.lost_pids: set = set()
        self.fig5 = None
        self.fig5_alive_at_kill = None

    @property
    def keys(self):
        return list(self.specs)

    def path(self, name: str) -> str:
        return os.path.join(self.fleet.workdir, name)


# ----------------------------------------------------------------------
# Chaos steps
# ----------------------------------------------------------------------

def _hurt(run: Run, what: str, inflight: int) -> None:
    """Record a victim's in-flight count (``victim_busy`` checks it)."""
    _log(f"{what} holding {inflight} in-flight job(s)")
    run.victims.append((what, inflight))


def _busiest_runner(run: Run):
    inflight = run.fleet.runner_inflight(run.fleet.serving_url())
    url = max(inflight, key=inflight.get)
    by_url = {r.url: r for r in run.fleet.runners}
    return by_url[url], inflight[url]


def _wait(predicate, what: str, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    raise InvariantViolation(f"{what} within {timeout_s:.0f}s")


def step_sleep(run: Run, seconds: float) -> None:
    time.sleep(seconds)


def step_await_inflight(run: Run) -> None:
    _wait(lambda: sum(run.fleet.runner_inflight(
        run.fleet.serving_url()).values()) > 0, "no job went in-flight")


def step_kill_primary(run: Run) -> None:
    fleet = run.fleet
    _hurt(run, f"SIGKILL primary router (pid {fleet.primary.proc.pid})",
          sum(fleet.runner_inflight(fleet.primary.url).values()))
    if run.fig5 is not None:
        run.fig5_alive_at_kill = run.fig5.poll() is None
    fleet.primary.kill()


def step_restart_primary(run: Run) -> None:
    _log("booting a replacement primary on the same journal")
    run.fleet.restart_primary()


def step_kill_busiest(run: Run) -> None:
    victim, inflight = _busiest_runner(run)
    _hurt(run, f"SIGKILL runner {victim.url}", inflight)
    run.lost_pids.add(victim.proc.pid)
    victim.kill()


def step_pause_busiest(run: Run) -> None:
    victim, inflight = _busiest_runner(run)
    _hurt(run, f"SIGSTOP (partition) runner {victim.url}", inflight)
    victim.pause()
    run.fleet.paused = victim


def step_resume_paused(run: Run) -> None:
    if run.fleet.paused is not None:
        _log(f"SIGCONT (heal) runner {run.fleet.paused.url}")
        run.fleet.paused.resume()


def step_start_fig5(run: Run) -> None:
    """fig5 through every router endpoint, alongside the batch."""
    out = open(run.path("fig5-fleet.txt"), "w", encoding="utf-8")
    err = open(run.path("fig5-fleet.err"), "w", encoding="utf-8")
    with out, err:
        run.fig5 = subprocess.Popen(
            [sys.executable, "-m", "repro", "eval", "fig5", "--server",
             ",".join(run.fleet.endpoints())],
            stdout=out, stderr=err, env=_clean_env(),
            cwd=run.fleet.workdir)
    run.extra_keys = {job.key() for job in expand_jobs()}


def step_await_fig5(run: Run) -> None:
    """Block until the primary has placed one of fig5's jobs."""
    probe = ReproClient(run.fleet.primary.url, max_retries=0)

    def placed():
        if run.fig5.poll() is not None:
            raise InvariantViolation("fig5 exited before it was placed")
        for key in run.extra_keys:
            try:
                probe.status(key)
            except JobNotFound:
                continue
            return True
        return False

    _wait(placed, "no fig5 job reached the primary")


def step_check(run: Run, name: str) -> None:
    _log(f"  ok   {name}: {INVARIANTS[name](run)}")


STEPS = {
    "sleep": step_sleep,
    "await_inflight": step_await_inflight,
    "kill_primary": step_kill_primary,
    "restart_primary": step_restart_primary,
    "kill_busiest": step_kill_busiest,
    "pause_busiest": step_pause_busiest,
    "resume_paused": step_resume_paused,
    "start_fig5": step_start_fig5,
    "await_fig5": step_await_fig5,
    "check": step_check,
}
#: steps that kill or pause a process (scenarios using one check
#: ``victim_busy``)
HURT_STEPS = ("kill_primary", "kill_busiest", "pause_busiest")


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------

def _metric_sum(text: str, name: str, **labels) -> float:
    """Sum every sample of ``name`` whose labels match."""
    total = 0.0
    pattern = re.compile(rf"^{re.escape(name)}(\{{[^}}]*\}})? (\S+)$")
    for line in text.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        labelstr = match.group(1) or ""
        if any(f'{k}="{v}"' not in labelstr for k, v in labels.items()):
            continue
        total += float(match.group(2))
    return total


def _validated(check, *args, **kwargs) -> None:
    """Run a ``validate_trace`` check; its exit becomes a violation."""
    try:
        check(*args, **kwargs)
    except SystemExit:
        raise InvariantViolation(
            f"{check.__name__}{args} failed (see stderr)") from None


def check_terminal_once(run: Run) -> str:
    if len(run.specs) != run.submitted:
        raise InvariantViolation(
            f"{run.submitted} submits made only {len(run.specs)} "
            f"distinct job id(s)")
    pending = [k for k in run.keys if k not in run.records]
    if pending:
        raise InvariantViolation(
            f"{len(pending)} job(s) never reached a terminal state: "
            f"{[k[:12] for k in pending]}")
    for key in run.keys:
        # a terminal state must be sticky: re-reading the status cannot
        # flip a done job back to pending or to a different outcome
        status = run.client.status(key)
        if not status.get("done"):
            raise InvariantViolation(
                f"job {key[:12]} answered a result but /v1/jobs says "
                f"done={status.get('done')} ({status.get('status')})")
        kind, record = run.records[key]
        if kind == "ok" and record.app_name != run.specs[key]["app"]:
            raise InvariantViolation(
                f"job {key[:12]} answered {record.app_name}, not "
                f"{run.specs[key]['app']}")
    return f"{len(run.keys)} job(s), each in exactly one terminal state"


def check_zero_lost(run: Run) -> str:
    lost = set(run.keys) - set(run.records)
    if lost:
        raise InvariantViolation(
            f"lost job(s): {sorted(k[:12] for k in lost)}")
    failed = {k[:12]: str(v) for k, (kind, v) in run.records.items()
              if kind == "error"}
    if failed:
        raise InvariantViolation(
            f"job(s) ended in a non-success terminal state: {failed}")
    return f"0 of {len(run.keys)} job(s) lost"


def check_no_duplicate_exec(run: Run) -> str:
    runs = sum(_metric_sum(run.fleet.metrics(r.url),
                           "repro_service_events_total", event="jobs_run")
               for r in run.fleet.runners)
    jobs = len(set(run.keys) | run.extra_keys)
    if runs != jobs:
        raise InvariantViolation(
            f"runners executed {runs:g} job(s) for {jobs} distinct "
            f"job(s) -- duplicated (or lost) executions")
    return f"{runs:g} execution(s) for {jobs} job(s) (no dups)"


def check_failover_happened(run: Run) -> str:
    fleet = run.fleet
    if fleet.standby is None:
        raise InvariantViolation("scenario has no standby to fail to")
    payload = fleet.healthz(fleet.standby.url)
    term = (payload.get("journal") or {}).get("term") or 0
    if payload.get("role") != "primary" or payload.get("fenced") \
            or term < 2:
        raise InvariantViolation(
            f"standby is not the unfenced term>=2 primary: "
            f"role={payload.get('role')} fenced={payload.get('fenced')} "
            f"term={term}")
    text = fleet.metrics(fleet.standby.url)
    if _metric_sum(text, "repro_fleet_failovers_total") < 1:
        raise InvariantViolation("repro_fleet_failovers_total is 0 "
                                 "on the promoted standby")
    if not re.search(r"^repro_journal_records_total", text, re.M):
        raise InvariantViolation("promoted standby exports no "
                                 "repro_journal_records_total")
    return f"standby promoted to primary (lease term {term})"


def _without_lost_runner(run: Run, path: str):
    """``path`` with the SIGKILLed runners' orphaned spans set aside,
    or None when the trace is not a job re-routed off a lost runner.

    A runner that dies mid-job took the parents of the spans it had
    already shipped (a parent span ends, and ships, after its
    children).  Only its own spans may go, and only those whose parent
    is missing, repeated until none is; the rest of the trace must
    then stitch clean.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    spans = [e for e in data["traceEvents"] if e.get("ph") == "X"]
    if not any(e["name"] == "fleet.route"
               and e["args"].get("rerouted") == "node_loss"
               for e in spans):
        return None
    dropped = set()
    while True:
        ids = {e["args"]["span_id"] for e in spans}
        orphans = [e for e in spans if e["pid"] in run.lost_pids
                   and e["args"].get("parent_id") is not None
                   and e["args"]["parent_id"] not in ids]
        if not orphans:
            break
        dropped.update(e["args"]["span_id"] for e in orphans)
        spans = [e for e in spans if e not in orphans]
    if not dropped:
        return None
    data["traceEvents"] = [
        e for e in data["traceEvents"]
        if e.get("args", {}).get("span_id") not in dropped]
    pruned = path[:-len(".json")] + "-truncated.json"
    with open(pruned, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return pruned


def check_stitched_trace(run: Run) -> str:
    url = run.fleet.serving_url()
    clean = truncated = 0
    for key in run.keys:
        path = run.path(f"trace-{key[:12]}.json")
        fetched = _repro("obs", "trace", key, "--server", url,
                         "--out", path, "--timeline")
        if fetched.returncode != 0:
            raise InvariantViolation(
                f"job {key[:12]}: {fetched.stderr.strip()}")
        try:
            _validated(validate_trace.validate_trace, path, 3,
                       require_spans=STITCHED_SPANS)
            _validated(validate_trace.validate_stitched, path)
            clean += 1
            continue
        except InvariantViolation as exc:
            pruned = _without_lost_runner(run, path)
            if pruned is None:
                raise InvariantViolation(f"job {key[:12]}: {exc}") \
                    from None
        try:
            _validated(validate_trace.validate_trace, pruned, 3,
                       require_spans=STITCHED_SPANS)
            _validated(validate_trace.validate_stitched, pruned)
        except InvariantViolation as exc:
            raise InvariantViolation(
                f"job {key[:12]} (lost runner's spans set aside): "
                f"{exc}") from None
        truncated += 1
    return (f"{len(run.keys)} job trace(s): {clean} stitched clean, "
            f"{truncated} truncated by a SIGKILLed runner")


def check_one_trace_per_job(run: Run) -> str:
    client = ReproClient(run.fleet.serving_url(), backoff_s=0.2)
    for key in run.keys:
        trace = client.obs_trace(key)
        ids = {e["args"].get("trace_id") for e in trace["traceEvents"]
               if e.get("ph") == "X"}
        if len(ids) != 1:
            raise InvariantViolation(
                f"job {key[:12]} spans {len(ids)} trace ids: {ids}")
    return f"{len(run.keys)} job(s), one trace id each"


def check_rerouted(run: Run) -> str:
    reroutes = _metric_sum(run.fleet.metrics(run.fleet.serving_url()),
                           "repro_fleet_reroutes_total")
    if reroutes < 1:
        raise InvariantViolation(
            "router never rerouted off the hurt runner")
    return f"{reroutes:g} reroute(s) off the hurt node"


def check_torn_seen(run: Run) -> str:
    torn = _metric_sum(run.fleet.metrics(run.fleet.primary.url),
                       "repro_journal_torn_records_total")
    if torn < 1:
        raise InvariantViolation(
            "replay saw no torn journal records -- the fault plan "
            "never fired; raise the rate or the batch size")
    return f"replay skipped {torn:g} torn record(s) and recovered"


def check_fig5_identical(run: Run) -> str:
    if run.fig5 is None:
        raise InvariantViolation("scenario never started fig5")
    if not run.fig5_alive_at_kill:
        raise InvariantViolation(
            "fig5 was not running when the primary died")
    if run.fig5.poll() != 0:
        raise InvariantViolation(
            f"fig5 through the fleet did not finish cleanly (exit "
            f"{run.fig5.returncode}); see {run.path('fig5-fleet.err')}")
    local = _repro("eval", "fig5", env=_clean_env(),
                   cwd=run.fleet.workdir)
    if local.returncode != 0:
        raise InvariantViolation(f"in-process fig5 failed: "
                                 f"{local.stderr.strip()}")
    with open(run.path("fig5-fleet.txt"), encoding="utf-8") as fh:
        fleet_out = fh.read()
    if fleet_out != local.stdout:
        with open(run.path("fig5-local.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(local.stdout)
        raise InvariantViolation("fig5 through the fleet differs from "
                                 "fig5 in-process")
    return (f"fig5 through primary+standby == in-process "
            f"({len(local.stdout.splitlines())} lines)")


def check_metrics_exposition(run: Run) -> str:
    path = run.path("router-metrics.prom")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(run.fleet.metrics(run.fleet.serving_url()))
    _validated(validate_trace.validate_metrics, path,
               require=ROUTER_METRICS, defaults=False)
    return f"router exposition valid with {len(ROUTER_METRICS)} families"


def check_federated_metrics(run: Run) -> str:
    path = run.path("federated.prom")
    text = run.fleet.metrics(run.fleet.serving_url())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    for url in run.fleet.runner_urls:
        if f'runner="{url}"' not in text:
            raise InvariantViolation(f"no federated series for {url}")
    _validated(validate_trace.validate_metrics, path,
               require=FEDERATED_METRICS, defaults=False)
    return (f"series from {len(run.fleet.runner_urls)} runners + "
            f"{len(FEDERATED_METRICS)} fleet families")


def check_console_snapshot(run: Run) -> str:
    top = _repro("obs", "top", "--once", "--server",
                 run.fleet.serving_url())
    with open(run.path("console.txt"), "w", encoding="utf-8") as fh:
        fh.write(top.stdout)
    wanted = ("repro fleet console",
              f"runners {len(run.fleet.runners)}/"
              f"{len(run.fleet.runners)} healthy",
              *run.fleet.runner_urls, "fleet: reroutes")
    missing = [text for text in wanted if text not in top.stdout]
    if top.returncode != 0 or missing:
        raise InvariantViolation(
            f"obs top --once (exit {top.returncode}) lacks {missing}")
    return f"console shows {len(wanted)} expected line(s)"


def check_victim_busy(run: Run) -> str:
    if not run.victims:
        raise InvariantViolation("no step hurt any process")
    idle = [what for what, inflight in run.victims if inflight <= 0]
    if idle:
        raise InvariantViolation(
            f"hurt while idle: {idle} -- the batch drained too early; "
            f"raise --jobs")
    return "; ".join(f"{what}: {inflight} in flight"
                     for what, inflight in run.victims)


INVARIANTS = {
    "victim_busy": check_victim_busy,
    "terminal_once": check_terminal_once,
    "zero_lost": check_zero_lost,
    "no_duplicate_exec": check_no_duplicate_exec,
    "failover_happened": check_failover_happened,
    "stitched_trace": check_stitched_trace,
    "one_trace_per_job": check_one_trace_per_job,
    "rerouted": check_rerouted,
    "torn_seen": check_torn_seen,
    "fig5_identical": check_fig5_identical,
    "metrics_exposition": check_metrics_exposition,
    "federated_metrics": check_federated_metrics,
    "console_snapshot": check_console_snapshot,
}


# ----------------------------------------------------------------------
# Scenarios (declarative)
# ----------------------------------------------------------------------

SCENARIOS = {
    "kill_primary": dict(
        doc="SIGKILL the primary router while fig5 and the batch run "
            "through it; the warm standby takes over behind the lease "
            "with zero lost jobs, zero duplicate executions, intact "
            "stitched traces and a byte-identical fig5.",
        standby=True,
        chaos=[("start_fig5",), ("await_fig5",), ("kill_primary",)],
        invariants=("victim_busy", "terminal_once", "zero_lost",
                    "no_duplicate_exec", "failover_happened",
                    "stitched_trace", "fig5_identical"),
    ),
    "kill_runner": dict(
        doc="Snapshot the healthy fleet's console and federated "
            "metrics, then SIGKILL the busiest runner; the router "
            "reroutes its work and every job keeps one trace.",
        standby=False,
        chaos=[("await_inflight",), ("check", "console_snapshot"),
               ("check", "federated_metrics"), ("kill_busiest",)],
        invariants=("victim_busy", "terminal_once", "zero_lost",
                    "rerouted", "one_trace_per_job", "stitched_trace",
                    "metrics_exposition"),
    ),
    "partition_runner": dict(
        doc="SIGSTOP the busiest runner (a netsplit, not a death); "
            "the router evicts it and reroutes its in-flight work; "
            "healing the partition later must not corrupt anything.",
        standby=False,
        chaos=[("await_inflight",), ("pause_busiest",), ("sleep", 2.0)],
        post=[("resume_paused",)],
        invariants=("victim_busy", "terminal_once", "zero_lost",
                    "rerouted"),
    ),
    "torn_journal": dict(
        doc="A seeded journal.write fault plan tears records while "
            "the primary journals; SIGKILL it mid-batch and restart "
            "on the same journal -- replay must skip the torn records "
            "and still recover every job.",
        standby=False,
        router_env={"REPRO_FAULTS":
                    "seed=11,rate=0.25,sites=journal.write"},
        chaos=[("await_inflight",), ("sleep", 1.0), ("kill_primary",),
               ("restart_primary",)],
        invariants=("victim_busy", "terminal_once", "zero_lost",
                    "torn_seen"),
    ),
}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def collect_results(run: Run, deadline_s: float) -> None:
    """Poll every job to a terminal answer (result or terminal error),
    then let a running fig5 finish.

    A job the fleet truly lost (torn journal record AND dead runner)
    is resubmitted from its spec -- the content hash guarantees the
    same id, and a completed job resolves from cache.
    """
    pending = set(run.keys)
    deadline = time.monotonic() + deadline_s
    while pending and time.monotonic() < deadline:
        for key in sorted(pending):
            try:
                run.records[key] = ("ok", run.client.result(key))
            except JobResultPending:
                continue
            except JobNotFound:
                resubmitted = run.client.submit(**run.specs[key])
                assert resubmitted["id"] == key, \
                    f"resubmit changed the job id for {key[:12]}"
                continue
            except JobError as exc:
                run.records[key] = ("error", exc)
            pending.discard(key)
        if pending:
            time.sleep(0.2)
    if run.fig5 is not None:
        try:
            run.fig5.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass                      # fig5_identical reports it


def play(run: Run, script) -> None:
    """Run chaos steps in order; a violation names the step it hit."""
    for step in script:
        try:
            STEPS[step[0]](run, *step[1:])
        except InvariantViolation as exc:
            raise InvariantViolation(
                f"step {' '.join(map(str, step))}: {exc}") from None


def run_scenario(name: str, jobs: int, keep: bool) -> bool:
    spec = SCENARIOS[name]
    workdir = tempfile.mkdtemp(prefix=f"chaos-{name}-")
    started = time.monotonic()
    _log(f"=== scenario {name}: {spec['doc']}")
    fleet = Fleet(workdir, standby=spec.get("standby", False),
                  router_env=spec.get("router_env"))
    failures = []
    run = None
    try:
        client = ReproClient(fleet.endpoints(), max_retries=8,
                             backoff_s=0.3, poll_interval_s=0.1)
        specs = {}
        for job in job_specs(jobs):
            specs[client.submit(**job)["id"]] = job
        run = Run(fleet, client, specs, jobs)
        _log(f"submitted {len(specs)} distinct job(s)")
        play(run, spec["chaos"])
        collect_results(run, COLLECT_TIMEOUT_S)
        play(run, spec.get("post", ()))
        for inv in spec["invariants"]:
            try:
                note = INVARIANTS[inv](run)
            except InvariantViolation as exc:
                failures.append(inv)
                _log(f"  FAIL {inv}: {exc}")
            else:
                _log(f"  ok   {inv}: {note}")
    except InvariantViolation as exc:
        failures.append("chaos")
        _log(f"  FAIL {exc}")
    finally:
        if run is not None and run.fig5 is not None \
                and run.fig5.poll() is None:
            run.fig5.kill()
        fleet.shutdown()
        if keep:
            _log(f"artifacts kept at {workdir}")
        else:
            shutil.rmtree(workdir, ignore_errors=True)
    ok = not failures
    _log(f"=== scenario {name}: {'PASS' if ok else 'FAIL'} "
         f"({time.monotonic() - started:.1f}s)")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                        help=f"subset to run (default: all of "
                             f"{', '.join(SCENARIOS)})")
    parser.add_argument("--jobs", type=int, default=12,
                        help="batch size per scenario (default 12)")
    parser.add_argument("--keep", action="store_true",
                        help="keep each scenario's workdir (journals, "
                             "traces, caches) for inspection")
    args = parser.parse_args(argv)
    if os.path.isdir(_SRC):
        # the supervised `python -m repro` children need the same path
        existing = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = (_SRC if not existing
                                    else _SRC + os.pathsep + existing)
    unknown = set(args.scenarios) - set(SCENARIOS)
    if unknown:
        parser.error(f"unknown scenario(s) {sorted(unknown)}; "
                     f"choose from {', '.join(SCENARIOS)}")
    names = args.scenarios or list(SCENARIOS)
    started = time.monotonic()
    failed = [name for name in names
              if not run_scenario(name, args.jobs, args.keep)]
    wall = time.monotonic() - started
    if failed:
        _log(f"FAILED scenario(s): {', '.join(failed)} ({wall:.1f}s)")
        return 1
    _log(f"all {len(names)} scenario(s) passed ({wall:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
