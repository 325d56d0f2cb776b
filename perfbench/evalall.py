"""``paper_eval``: the paper's experiments as a user runs them -- one fresh
``python -m repro eval all`` process per job, no cache directory."""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List

from common import (
    BENCH_DIR, EVAL_REF, BenchError, Result, pct, record_config,
    run_measured, setup_probe,
)
from hostspeed import HostSpeed, pin_to_one_cpu
from inproc import layer_metrics
from spans import LayerTotals

#: everything ``eval all`` imports before its first flow, the lazily
#: loaded evaluation harness and compiled-execution engine included
EVAL_MODULES = ("repro.__main__", "repro.evalharness.__main__",
                "repro.lang.engine")


def run(seed: int, seconds: float, trace: bool, run_dir) -> Result:
    # the experiments are fixed by the paper; the seed has nothing to vary
    result = Result("paper_eval", seed, trace)
    try:
        with open(EVAL_REF, "rb") as fh:
            reference = fh.read()
    except OSError as exc:
        raise BenchError(f"cannot read {EVAL_REF}: {exc}")

    result.details["config"] = record_config(run_dir.path)
    pin_to_one_cpu()
    setup_s = setup_probe(EVAL_MODULES, run_dir.path)

    walls: Dict[bool, List[float]] = {False: [], True: []}
    # the untraced walls scaled to the nominal host
    scaled: List[float] = []
    rss: List[float] = []
    totals = LayerTotals()
    counters: Dict[str, float] = {}
    start = time.perf_counter()
    speed = HostSpeed()
    speed.probe()
    index = 0
    while (time.perf_counter() - start < seconds
           or (trace and not walls[True])):
        traced = trace and index % 2 == 1
        job_dir = run_dir.sub(f"job{index}")
        out_path = os.path.join(job_dir, "stdout.txt")
        layers_path = os.path.join(job_dir, "layers.json")
        cmd = [sys.executable, "-m", "repro", "eval", "all"]
        if traced:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "traced.py"),
                   layers_path, "eval", "all"]
        result.attempted += 1
        wall, code, peak = run_measured(cmd, job_dir, speed, out_path)
        speed.probe()
        factor = speed.factor()
        index += 1
        if code != 0:
            result.failed += 1
            result.mismatch(f"eval all process {index} exited {code}")
            continue
        with open(out_path, "rb") as fh:
            if fh.read() != reference:
                result.mismatch(f"eval all process {index}: output "
                                f"differs from the reference")
        walls[traced].append(wall)
        if traced:
            with open(layers_path, "r", encoding="utf-8") as fh:
                job = json.load(fh)
            totals.merge(job["totals"])
            for key, value in job["counters"].items():
                counters[key] = counters.get(key, 0.0) + value
        else:
            rss.append(peak)
            scaled.append(wall * factor)

    measured = walls[False]
    result.metric("setup_s", setup_s, "s")
    result.metric("latency_ms", 1e3 * pct(scaled, 50), "ms")
    result.metric("peak_rss_mb", max(rss) if rss else 0.0, "MB")
    result.report("eval_s", pct(measured, 50), "s")
    result.details["probes_ms"] = speed.probes
    result.report("eval_processes", len(measured), "count")
    if trace:
        layers = layer_metrics(totals, counters)
        layers["bench.trace_overhead_ratio"] = (
            pct(walls[True], 50) / pct(measured, 50) if measured else 0.0)
        result.details["layers"] = layers
    return result
