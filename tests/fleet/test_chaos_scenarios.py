"""The chaos scenario table in ``scripts/chaos_fleet.py`` is consistent.

The scenarios themselves boot real fleets and run from the command
line; this checks only their declarative table: every step and
invariant a scenario names exists, every invariant is used, every
scenario that hurts a process checks ``victim_busy``, and every fleet
assertion the change log maps onto the script names a real invariant.
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


def _former_assertions():
    """``(assertion, former home, now)`` rows of the change-log table."""
    rows, in_table = [], False
    text = (REPO_ROOT / "CHANGES.md").read_text(encoding="utf-8")
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| Former assertion |"):
            in_table = True
        elif in_table and line.startswith("|"):
            if not set(cells[0]) <= set("-: "):
                rows.append(tuple(cells[:3]))
        elif in_table:
            break
    return rows


def test_every_former_ci_assertion_names_an_invariant(chaos):
    rows = _former_assertions()
    assert {home.strip("`") for _, home, _ in rows} == set(FORMER_HOMES)
    names = set(chaos.INVARIANTS) | set(chaos.SCENARIOS)
    for assertion, home, now in rows:
        if now.startswith("retired"):
            continue                   # its mechanism is deleted
        named = re.findall(r"`([a-z0-9_]+)`", now)
        assert set(named) <= names, (assertion, named)
        assert set(named) & set(chaos.INVARIANTS), (assertion, now)
