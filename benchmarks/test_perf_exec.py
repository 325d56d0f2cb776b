"""Bench: execution-engine performance (interpreter vs compiled engine).

Two layers of perf regression coverage:

* per-app single-execution timings under both engines, so a slowdown in
  either path (or a shrinking compiled/interp gap) is visible in the
  pytest-benchmark tables, and
* a cold end-to-end ``eval fig5`` wall-time snapshot, run in fresh
  subprocesses with caching disabled, written to ``BENCH_exec.json`` at
  the repo root.  The snapshot compares the seed-equivalent baseline
  (``REPRO_EXEC=interp REPRO_PROFILE_CACHE=0``) against one-pass
  profiling under each engine and asserts the headline speedup that the
  compiler + shared-profile rework exists to deliver.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.apps import get_app
from repro.apps.registry import PAPER_ORDER
from repro.lang.engine import execute_unit
from repro.meta.ast_api import Ast

from conftest import run_once

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_PATH = REPO_ROOT / "BENCH_exec.json"

# CI bar is deliberately below the ~7.5x measured on an idle machine:
# shared runners are noisy, and the point is catching regressions to
# near-interpreter speed, not enforcing the exact ratio.
MIN_COLD_FIG5_SPEEDUP = 3.0


@pytest.mark.parametrize("app_name", PAPER_ORDER)
@pytest.mark.parametrize("mode", ["interp", "compiled"])
def test_single_execution(benchmark, app_name, mode):
    """Time one dynamic execution of an app under one engine."""
    unit = Ast(get_app(app_name).source).unit
    app = get_app(app_name)
    report = run_once(benchmark, execute_unit, unit,
                      workload=app.workload_factory(), mode=mode)
    assert report.total_cycles() > 0


def _cold_fig5_seconds(extra_env):
    """Wall time of ``eval fig5`` in a fresh process, all caches off."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_CACHE_DIR", "REPRO_EXEC",
                        "REPRO_PROFILE_CACHE", "REPRO_FAULTS")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(extra_env)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "repro.evalharness", "fig5"],
                   cwd=REPO_ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def test_cold_fig5_snapshot(benchmark, tmp_path):
    """Cold-start Fig. 5 under four configurations; write the snapshot.

    ``compiled_traced`` runs with a ``$REPRO_TRACE_DIR`` JSONL sink
    attached, bounding the tracing-ON cost; the tracing-OFF overhead of
    the span layer (null-object ``span()`` calls on the hot paths) is
    covered by the plain ``compiled`` config against the
    ``MIN_COLD_FIG5_SPEEDUP`` bar -- measured at <1% when the layer
    landed."""
    configs = {
        "interp_baseline": {"REPRO_EXEC": "interp",
                            "REPRO_PROFILE_CACHE": "0"},
        "interp_shared_profile": {"REPRO_EXEC": "interp"},
        "compiled": {"REPRO_EXEC": "compiled"},
        "compiled_traced": {"REPRO_EXEC": "compiled",
                            "REPRO_TRACE_DIR": str(tmp_path)},
    }
    results = {}
    for name, extra in configs.items():
        if name == "compiled":
            # the headline number lands in the benchmark table too
            results[name] = run_once(benchmark, _cold_fig5_seconds, extra)
        else:
            results[name] = _cold_fig5_seconds(extra)

    speedup = results["interp_baseline"] / results["compiled"]
    trace_cost = results["compiled_traced"] / results["compiled"]
    snapshot = {
        "benchmark": "cold eval fig5 (fresh subprocess, caches disabled)",
        "configs": {
            name: {"env": {k: v for k, v in configs[name].items()
                           if k != "REPRO_TRACE_DIR"},
                   "wall_s": round(secs, 3)}
            for name, secs in results.items()
        },
        "speedup_compiled_vs_baseline": round(speedup, 2),
        "tracing_on_cost_ratio": round(trace_cost, 2),
    }
    SNAPSHOT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
    print()
    print(json.dumps(snapshot, indent=2))
    assert speedup >= MIN_COLD_FIG5_SPEEDUP, snapshot
    # tracing must stay cheap even when ON (spans stream to JSONL);
    # generous bar for noisy CI runners
    assert trace_cost <= 1.5, snapshot
