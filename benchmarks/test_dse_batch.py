"""Bench: the unroll DSE's affine fit vs one partial compile per factor.

A fig6-style dense unroll axis -- ``main`` of the three Fig. 6 apps
(where each hotspot loop nest sits before outlining), every integer
factor 2...257 on the Stratix 10 -- swept twice with Fig. 2's stopping
rule:

* **point**: ``dse.unroll_points``, the reference path (clone the
  kernel, set the pragma, run a partial compile, repeat), and
* **fit**: ``dse.unroll_fit``, the path every flow runs (two walks fit
  the exact affine resource model, then a few float operations per
  factor).

The two must agree point for point (asserted here, and differentially
in ``tests/flow/test_dse_batch.py``); the point of this file is the
wall time.  Only the unroll axis is timed: blocksizes and thread counts
have a single scalar path.  The snapshot lands in ``BENCH_dse.json`` at
the repo root with a headline ``speedup_fit_vs_point``, gated at >= 5x.
"""

import json
import time
from pathlib import Path

from repro.apps import get_app
from repro.flow import dse
from repro.toolchains.dpcpp import DpcppToolchain

from conftest import run_once

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_PATH = REPO_ROOT / "BENCH_dse.json"

#: CI bar
MIN_SWEEP_SPEEDUP = 5.0

#: the Fig. 6 apps: the axis is swept for each of them
FIG6_APPS = ("adpredictor", "bezier", "kmeans")

#: dense factor axis -- every integer, not just the Fig. 2 doublings
UNROLL_FACTORS = tuple(range(2, 258))

DEVICE = "stratix10"


def _best_wall(sweep, *args, reps=3):
    """Best-of-``reps`` wall time of one sweep, and its outcome."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        outcome = sweep(*args)
        best = min(best, time.perf_counter() - start)
    return best, outcome


def test_dense_unroll_snapshot(benchmark):
    toolchain = DpcppToolchain()
    apps = {}
    for app_name in FIG6_APPS:
        ast = get_app(app_name).ast()
        args = (toolchain, ast, "main", DEVICE, UNROLL_FACTORS)
        point_wall, ref = _best_wall(dse.unroll_points, *args)
        fit_wall, fit = _best_wall(dse.unroll_fit, *args)
        # the fit's claim: the same decision from bit-identical points
        assert fit == ref
        apps[app_name] = {
            "points": len(fit.points), "stop": fit.stop,
            "best_factor": fit.best_factor,
            "point_wall_s": round(point_wall, 5),
            "fit_wall_s": round(fit_wall, 5),
        }

    # the benchmark table gets the fit side (re-run, so its wall is
    # independently visible)
    run_once(benchmark, lambda: [
        dse.unroll_fit(toolchain, get_app(a).ast(), "main", DEVICE,
                       UNROLL_FACTORS)
        for a in FIG6_APPS])

    total_point = sum(a["point_wall_s"] for a in apps.values())
    total_fit = sum(a["fit_wall_s"] for a in apps.values())
    speedup = total_point / total_fit
    snapshot = {
        "benchmark": "fig6-style dense unroll axis (factors 2..257, "
                     "Stratix 10), fit vs one partial compile per factor",
        "apps": apps,
        "points_total": sum(a["points"] for a in apps.values()),
        "point_wall_s": round(total_point, 4),
        "fit_wall_s": round(total_fit, 4),
        "speedup_fit_vs_point": round(speedup, 1),
        "ci_gate": MIN_SWEEP_SPEEDUP,
    }
    SNAPSHOT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
    print()
    print(json.dumps(snapshot, indent=2))
    assert speedup >= MIN_SWEEP_SPEEDUP, snapshot
