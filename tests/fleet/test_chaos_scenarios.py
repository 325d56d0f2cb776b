"""The chaos scenario table in ``scripts/chaos_fleet.py`` is consistent.

The scenarios themselves boot real fleets and run from the command
line; this checks only their declarative table: every step and
invariant a scenario names exists, every invariant is used, every
scenario that hurts a process checks ``victim_busy``, and every
assertion of the retired fleet CI jobs and bench maps onto a real
invariant.
"""

import importlib.util
import pathlib
import re
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
#: the CI jobs and bench whose assertions moved into the script
FORMER_HOMES = ("fleet-smoke", "fleet-trace-smoke", "fleet-durable-smoke",
                "test_fleet_scaling.py")

#: every assertion those homes made, and what checks it now: a
#: scenario and invariants of the script, or "retired" when the
#: mechanism it checked is deleted
FORMER_ASSERTIONS = {
    "fleet-smoke": (
        ("the router `/healthz` answers JSON once two runners are up",
         "`kill_runner` · `console_snapshot` (runners 2/2 healthy)"),
        ("fig5 through the router diffs clean against fig5 in-process",
         "`kill_primary` · `fig5_identical`"),
        ("16 submitted jobs have 16 distinct ids",
         "every scenario · `terminal_once` (submits = distinct ids)"),
        ("the SIGKILLed runner held in-flight work (`inflight > 0`)",
         "`kill_runner` · `victim_busy`"),
        ("no job lost after the runner kill",
         "`kill_runner` · `zero_lost`"),
        ("exactly one result per job",
         "`kill_runner` · `terminal_once`"),
        ("every result is the submitted app's (kmeans)",
         "`terminal_once` (each result is its spec's app)"),
        ("router `/metrics` passes `validate_trace.py --no-defaults` "
         "requiring `repro_http_requests_total`, `_fleet_shard_jobs_total`, "
         "`_fleet_reroutes_total`, `_fleet_runner_inflight`, "
         "`_fleet_runners_healthy` (the in-process fig5 trace given to the "
         "same call stays checked by the trace-smoke job)",
         "`kill_runner` · `metrics_exposition`"),
    ),
    "fleet-trace-smoke": (
        ("traced runners and router boot and `/healthz` answers",
         "`kill_runner` · `console_snapshot`"),
        ("fig5 through the traced router completes",
         "`kill_primary` · `fig5_identical`"),
        ("one traced job runs to completion through the router",
         "`terminal_once`"),
        ("`repro obs trace ID --out --timeline` fetches the stitched trace",
         "`stitched_trace` (fetches through that CLI)"),
        ("the stitched trace passes `--stitched` and holds spans `fleet.job`,"
         " `fleet.route`, `service.job`",
         "`kill_runner`, `kill_primary` · `stitched_trace`"),
        ('federated `/metrics` carries a `runner="…"` series for each runner',
         "`kill_runner` · `federated_metrics`"),
        ("federated `/metrics` has `repro_fleet_runners_healthy`, "
         "`repro_slo_burn_rate`, `repro_server_jobs_inflight`",
         "`kill_runner` · `federated_metrics`"),
        ("`/v1/obs/profile` answers on the runner armed with "
         "`REPRO_PROFILE_HZ=50`",
         "retired: the sampling profiler and `/v1/obs/profile` are deleted"),
        ("`obs top --once` shows `repro fleet console`, `runners 2/2 "
         "healthy`, both runner URLs, `slo router`",
         "`kill_runner` · `console_snapshot` (before any process is hurt)"),
        ("no job lost after SIGKILLing the busiest runner",
         "`kill_runner` · `zero_lost`, `rerouted`"),
        ("each key's stitched trace has exactly one trace id",
         "`kill_runner` · `one_trace_per_job`"),
    ),
    "fleet-durable-smoke": (
        ("`chaos_fleet.py --jobs 12` passes `kill_primary`, "
         "`partition_runner`, `torn_journal`",
         "those scenarios · `terminal_once`, `zero_lost`, "
         "`no_duplicate_exec`, `failover_happened`, `stitched_trace`, "
         "`rerouted`, `torn_seen`"),
        ("a job is in flight before the primary is SIGKILLed",
         "`kill_primary` · `victim_busy`"),
        ("fig5 through primary + standby, primary SIGKILLed mid-batch, diffs "
         "clean against in-process",
         "`kill_primary` · `fig5_identical` (fails if fig5 had already "
         "finished)"),
        ("the standby answers `role: primary`",
         "`kill_primary` · `failover_happened`"),
        ("the promoted standby is not `fenced`",
         "`kill_primary` · `failover_happened`"),
        ("`journal.term >= 2` on the promoted standby",
         "`kill_primary` · `failover_happened`"),
        ("a failed-over job's stitched trace passes `validate_stitched`",
         "`kill_primary` · `stitched_trace`"),
        ("`repro_fleet_failovers_total` is exported by the standby",
         "`kill_primary` · `failover_happened` (and is >= 1)"),
        ("`repro_journal_records_total` is exported by the standby",
         "`kill_primary` · `failover_happened`"),
    ),
    "test_fleet_scaling.py": (
        ("4 runners deliver >= 3x the aggregate throughput of 1 (3.53x in "
         "`BENCH_fleet.json`)",
         "retired: it measured scaling over 1 s `time.sleep` calls "
         "(`REPRO_SIM_LATENCY_S`), not real work"),
        ("each throughput run returns 24 results, all kmeans",
         "`terminal_once`"),
        ("24 submitted jobs have 24 distinct ids",
         "`terminal_once`"),
        ("the SIGKILLed runner held in-flight work",
         "`kill_runner` · `victim_busy`"),
        ("zero jobs lost after SIGKILLing one runner mid-batch",
         "`kill_runner` · `zero_lost`"),
        ("every key has one result, all kmeans",
         "`kill_runner` · `terminal_once`"),
        ("the dead runner's jobs were rerouted (`rerouted_node_loss` snapshot"
         " field)",
         "`kill_runner` · `rerouted`"),
    ),
}


@pytest.fixture(scope="module")
def chaos():
    def no_process(*args, **kwargs):
        raise AssertionError(f"importing chaos_fleet started {args}")

    saved_path, saved_popen = list(sys.path), subprocess.Popen
    subprocess.Popen = no_process
    try:
        spec = importlib.util.spec_from_file_location(
            "chaos_fleet", REPO_ROOT / "scripts" / "chaos_fleet.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        subprocess.Popen = saved_popen
        sys.path[:] = saved_path
    return module


def _steps(scenario):
    return [*scenario["chaos"], *scenario.get("post", ())]


def test_scenarios_use_only_known_steps_and_invariants(chaos):
    assert chaos.SCENARIOS
    for name, scenario in chaos.SCENARIOS.items():
        assert scenario["doc"] and scenario["invariants"], name
        for step in _steps(scenario):
            assert step[0] in chaos.STEPS, (name, step)
            if step[0] == "check":
                assert step[1] in chaos.INVARIANTS, (name, step)
        for inv in scenario["invariants"]:
            assert inv in chaos.INVARIANTS, (name, inv)


def test_every_invariant_is_used_by_some_scenario(chaos):
    used = set()
    for scenario in chaos.SCENARIOS.values():
        used.update(scenario["invariants"])
        used.update(step[1] for step in _steps(scenario)
                    if step[0] == "check")
    assert used == set(chaos.INVARIANTS)


def test_every_hurting_scenario_checks_its_victims(chaos):
    for name, scenario in chaos.SCENARIOS.items():
        if any(step[0] in chaos.HURT_STEPS for step in _steps(scenario)):
            assert "victim_busy" in scenario["invariants"], name


def test_job_specs_are_distinct_real_flows(chaos):
    specs = chaos.job_specs(12)
    assert len({tuple(sorted(s.items())) for s in specs}) == 12
    assert {s["app"] for s in specs} == {app for app, _, _ in chaos.WORK}


def test_every_former_ci_assertion_names_an_invariant(chaos):
    assert set(FORMER_ASSERTIONS) == set(FORMER_HOMES)
    assert all(FORMER_ASSERTIONS.values())
    names = set(chaos.INVARIANTS) | set(chaos.SCENARIOS)
    for assertion, now in (row for rows in FORMER_ASSERTIONS.values()
                           for row in rows):
        if now.startswith("retired"):
            continue                   # its mechanism is deleted
        named = re.findall(r"`([a-z0-9_]+)`", now)
        assert set(named) <= names, (assertion, named)
        assert set(named) & set(chaos.INVARIANTS), (assertion, now)
