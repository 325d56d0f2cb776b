#!/usr/bin/env python
"""Wall-clock speed gates: each one a ratio of two timed runs of real work.

    python scripts/speed_gates.py                  # all four gates
    python scripts/speed_gates.py exec dse cache   # a subset

Gates and their bounds:

``exec``   cold ``eval fig5`` in fresh subprocesses, every cache off:
           the compiled engine is >= 3.0x faster than the seed-
           equivalent baseline (``REPRO_EXEC=interp
           REPRO_PROFILE_CACHE=0``), and a run with a ``$REPRO_TRACE_DIR``
           JSONL sink is <= 1.5x the untraced compiled run.
``dse``    a fig6-style dense unroll axis (``main`` of the three Fig. 6
           apps, every factor 2..257 on the Stratix 10):
           ``dse.unroll_fit`` is >= 5x faster than the reference
           ``dse.unroll_points`` (best of 3 each) and identical to it
           point for point.
``cache``  the ten paper jobs as one batch: with the disk cache a cold
           CLI batch filled, all 10 are ``cache-disk`` hits, 0 run, and
           the warm batch is >= 5x faster than a cache-less one.
``obs``    two ``repro serve`` runners stay up, one dark and one with
           ``REPRO_OBS_BUFFER`` on (client calls carry ``traceparent``;
           the span buffer is drained after each sweep, inside the
           timing).  ``OBS_PAIRS`` paired sweeps of ten fresh flows
           alternate which runner goes first; the gate is the MEDIAN of
           the per-pair traced/dark wall ratios, <= 1.05.

The JSON snapshot of every selected gate goes to stdout, progress to
stderr.  Exit code 0 when every selected gate holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.abspath(os.path.join(_HERE, os.pardir, "src"))
if os.path.isdir(_SRC):
    sys.path.insert(0, _SRC)
    # child processes (eval fig5, repro batch, repro serve) import the
    # same tree
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

from repro import obs                                     # noqa: E402
from repro.apps import get_app                            # noqa: E402
from repro.client import ReproClient                      # noqa: E402
from repro.fleet.runner import RunnerProcess              # noqa: E402
from repro.flow import dse                                # noqa: E402
from repro.service import DesignService, expand_jobs, run_batch  # noqa: E402
from repro.toolchains.dpcpp import DpcppToolchain         # noqa: E402

MIN_COLD_FIG5_SPEEDUP = 3.0
MAX_TRACED_FIG5_RATIO = 1.5
MIN_DSE_SPEEDUP = 5.0
MIN_WARM_BATCH_SPEEDUP = 5.0
MAX_TRACED_SERVING_RATIO = 1.05
#: paired sweeps of the obs gate
OBS_PAIRS = 20

#: environment that would change what a cold fig5 measures
_STRIPPED = ("REPRO_CACHE_DIR", "REPRO_EXEC", "REPRO_PROFILE_CACHE",
             "REPRO_FAULTS", "REPRO_TRACE_DIR")


def say(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# exec: cold eval fig5, compiled vs the interpreter baseline
# ---------------------------------------------------------------------

def _cold_fig5_seconds(extra_env) -> float:
    """Wall time of ``eval fig5`` in a fresh process, all caches off."""
    env = {k: v for k, v in os.environ.items() if k not in _STRIPPED}
    env.update(extra_env)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "repro.evalharness", "fig5"],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def gate_exec() -> dict:
    with tempfile.TemporaryDirectory(prefix="speed-gates-trace-") as tmp:
        configs = {
            "interp_baseline": {"REPRO_EXEC": "interp",
                                "REPRO_PROFILE_CACHE": "0"},
            "compiled": {"REPRO_EXEC": "compiled"},
            "compiled_traced": {"REPRO_EXEC": "compiled",
                                "REPRO_TRACE_DIR": tmp},
        }
        walls = {}
        for name, extra in configs.items():
            walls[name] = _cold_fig5_seconds(extra)
            say(f"exec: {name} {walls[name]:.2f}s")
    speedup = walls["interp_baseline"] / walls["compiled"]
    trace_cost = walls["compiled_traced"] / walls["compiled"]
    return {
        "work": "cold eval fig5 (fresh subprocess, caches disabled)",
        "wall_s": {name: round(secs, 3) for name, secs in walls.items()},
        "speedup_compiled_vs_baseline": round(speedup, 2),
        "min_speedup": MIN_COLD_FIG5_SPEEDUP,
        "tracing_on_cost_ratio": round(trace_cost, 3),
        "max_tracing_on_cost_ratio": MAX_TRACED_FIG5_RATIO,
        "pass": (speedup >= MIN_COLD_FIG5_SPEEDUP
                 and trace_cost <= MAX_TRACED_FIG5_RATIO),
    }


# ---------------------------------------------------------------------
# dse: the unroll fit vs one partial compile per factor
# ---------------------------------------------------------------------

#: the Fig. 6 apps: the axis is swept for each of them
FIG6_APPS = ("adpredictor", "bezier", "kmeans")

#: dense factor axis -- every integer, not just the Fig. 2 doublings
UNROLL_FACTORS = tuple(range(2, 258))


def _best_wall(sweep, *args, reps=3):
    """Best-of-``reps`` wall time of one sweep, and its outcome."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        outcome = sweep(*args)
        best = min(best, time.perf_counter() - start)
    return best, outcome


def gate_dse() -> dict:
    toolchain = DpcppToolchain()
    apps, identical = {}, True
    for app_name in FIG6_APPS:
        sweep_args = (toolchain, get_app(app_name).ast(), "main",
                      "stratix10", UNROLL_FACTORS)
        point_wall, ref = _best_wall(dse.unroll_points, *sweep_args)
        fit_wall, fit = _best_wall(dse.unroll_fit, *sweep_args)
        identical = identical and fit == ref
        apps[app_name] = {
            "points": len(fit.points), "stop": fit.stop,
            "best_factor": fit.best_factor, "identical": fit == ref,
            "point_wall_s": round(point_wall, 5),
            "fit_wall_s": round(fit_wall, 5),
        }
    total_point = sum(a["point_wall_s"] for a in apps.values())
    total_fit = sum(a["fit_wall_s"] for a in apps.values())
    speedup = total_point / total_fit
    say(f"dse: fit {speedup:.1f}x faster, identical={identical}")
    return {
        "work": "fig6-style dense unroll axis (factors 2..257, "
                "Stratix 10), fit vs one partial compile per factor",
        "apps": apps,
        "point_wall_s": round(total_point, 4),
        "fit_wall_s": round(total_fit, 4),
        "speedup_fit_vs_point": round(speedup, 1),
        "min_speedup": MIN_DSE_SPEEDUP,
        "pass": identical and speedup >= MIN_DSE_SPEEDUP,
    }


# ---------------------------------------------------------------------
# cache: a warm batch vs a cache-less one
# ---------------------------------------------------------------------

def _batch(**service_kwargs):
    with DesignService(workers=4, **service_kwargs) as service:
        start = time.perf_counter()
        report = run_batch(service, expand_jobs())
        wall = time.perf_counter() - start
    if not report.ok:
        raise RuntimeError(f"batch failed: "
                           f"{[str(i.error) for i in report.failed]}")
    return wall, report


def gate_cache() -> dict:
    with tempfile.TemporaryDirectory(prefix="speed-gates-cache-") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        # the cold CLI batch fills the disk cache
        subprocess.run([sys.executable, "-m", "repro", "batch", "--all",
                        "--jobs", "4", "--cache-dir", cache_dir],
                       check=True, stdout=subprocess.DEVNULL)
        cold, _ = _batch()
        warm, report = _batch(cache_dir=cache_dir)
    counts = {source: report.count(source)
              for source in ("cache-disk", "run")}
    speedup = cold / warm
    say(f"cache: cold {cold:.2f}s warm {warm:.3f}s ({speedup:.1f}x) "
        f"{counts}")
    return {
        "work": "the ten paper jobs, cache-less vs from a filled disk "
                "cache",
        "cold_wall_s": round(cold, 3),
        "warm_wall_s": round(warm, 4),
        "counts": counts,
        "speedup_warm_vs_cold": round(speedup, 1),
        "min_speedup": MIN_WARM_BATCH_SPEEDUP,
        "pass": (counts == {"cache-disk": 10, "run": 0}
                 and speedup >= MIN_WARM_BATCH_SPEEDUP),
    }


# ---------------------------------------------------------------------
# obs: traced serving vs dark, paired sweeps on two live runners
# ---------------------------------------------------------------------

def _sweep(client, apps, salt) -> None:
    """Ten fresh flows: every app x mode, keys no earlier sweep used."""
    for i, app in enumerate(apps):
        for j, mode in enumerate(("informed", "uninformed")):
            client.run_flow(app, mode, timeout=300,
                            intensity_threshold=round(
                                0.3 + salt + (2 * i + j) * 1e-4, 6))


class _Arm:
    """One live runner of the obs gate, and its span-drain cursor."""

    def __init__(self, runner, traced: bool):
        self.runner = runner
        self.traced = traced
        self.client = None
        self.cursor = 0
        self.walls = []
        self.drains = []

    def sweep(self, apps, salt, rep) -> None:
        """One timed sweep; ``rep`` -1 warms up and records nothing."""
        start = time.perf_counter()
        # a live caller-side span makes every request carry a
        # traceparent header
        with obs.span("bench.sweep", traced=self.traced, rep=rep):
            _sweep(self.client, apps, salt)
        drained = time.perf_counter()
        if self.traced:
            # a collector drains incrementally, past its cursor
            data = self.client.obs_spans(since=self.cursor)
            if not data["spans"]:
                raise RuntimeError("traced runner produced no spans")
            self.cursor = data["next"]
        end = time.perf_counter()
        if rep >= 0:
            self.walls.append(end - start)
            self.drains.append(end - drained)


def gate_obs() -> dict:
    collector = obs.add_sink(obs.SpanCollector())
    arms = {}
    try:
        with tempfile.TemporaryDirectory(prefix="speed-gates-obs-") as tmp:
            for name, env in (("dark", {}),
                              ("traced", {"REPRO_OBS_BUFFER": "8192"})):
                arms[name] = _Arm(RunnerProcess(
                    cache_dir=os.path.join(tmp, name), workers=1,
                    env=env, extra_args=["--max-queue", "32"]),
                    traced=bool(env))
            for arm in arms.values():
                arm.runner.wait_ready()
                arm.client = ReproClient(arm.runner.url, backoff_s=0.1,
                                         poll_interval_s=0.02)
            apps = [a["name"] for a in arms["dark"].client.apps()]
            for arm in arms.values():               # warm the profiles
                arm.sweep(apps, 0.05, rep=-1)
            for rep in range(OBS_PAIRS):
                # both runners sweep the same keys; the one that goes
                # first alternates, so drift in host speed cancels
                order = ("dark", "traced") if rep % 2 == 0 \
                    else ("traced", "dark")
                for name in order:
                    arms[name].sweep(apps, 0.001 * (rep + 1), rep)
    finally:
        obs.remove_sink(collector)
        for arm in arms.values():
            arm.runner.stop()
    dark, traced = arms["dark"], arms["traced"]
    ratios = [t / d for t, d in zip(traced.walls, dark.walls)]
    median = statistics.median(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    say(f"obs: median traced/dark {median:.3f} over {OBS_PAIRS} pairs "
        f"(IQR {q1:.3f}-{q3:.3f})")
    return {
        "work": f"{OBS_PAIRS} paired sweeps of 10 fresh flows through "
                "two live runners, one with REPRO_OBS_BUFFER on",
        "statistic": "median of per-pair traced/dark wall ratios",
        "median_ratio": round(median, 4),
        "ratio_quartiles": [round(q1, 4), round(q3, 4)],
        "ratios": [round(r, 4) for r in ratios],
        "walls_s": {"dark": [round(w, 3) for w in dark.walls],
                    "traced": [round(w, 3) for w in traced.walls]},
        "traced_drain_s": [round(d, 4) for d in traced.drains],
        "max_ratio": MAX_TRACED_SERVING_RATIO,
        "pass": median <= MAX_TRACED_SERVING_RATIO,
    }


#: run order: the in-process cache gate first, so its cache-less batch
#: is as cold as in a fresh process
GATES = {"cache": gate_cache, "dse": gate_dse, "exec": gate_exec,
         "obs": gate_obs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("gates", nargs="*", metavar="gate",
                        help=f"gates to run, of {', '.join(GATES)} "
                             "(default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.gates) - set(GATES))
    if unknown:
        parser.error(f"unknown gate(s): {', '.join(unknown)}")
    selected = [g for g in GATES if g in args.gates] or list(GATES)
    snapshot = {name: GATES[name]() for name in selected}
    snapshot["pass"] = all(gate["pass"] for gate in snapshot.values())
    print(json.dumps(snapshot, indent=2))
    for name in selected:
        if not snapshot[name]["pass"]:
            say(f"FAIL: {name}")
    return 0 if snapshot["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
