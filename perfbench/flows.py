"""``fresh_flows``: one in-process, closed-loop caller of
``repro.api.run_flow`` over a seeded stream of never-repeated jobs."""

from __future__ import annotations

import math
import statistics
import time
from resource import RUSAGE_SELF, getrusage
from typing import Dict, List, Tuple

from common import (
    APPS, MODES, Result, digest, ensure_refs, job_rounds, load_refs, pct,
    record_config, rounds_available, scale_key, setup_probe,
)
from hostspeed import HostSpeed, pin_to_one_cpu
from inproc import CounterWindow, layer_metrics
from spans import LayerTotals, Recorder, install_layers

#: what a round of ten flows takes, give or take; ``--seconds`` buys
#: ``seconds // SECONDS_PER_ROUND`` whole rounds (four at the default
#: 20 s), a number fixed before timing starts, so every run of
#: every commit times the same jobs
SECONDS_PER_ROUND = 5.0
#: everything the first ``run_flow`` imports (``repro.lang.engine`` is
#: loaded lazily by the first flow)
FLOW_MODULES = ("repro.api", "repro.lang.engine")


def app_medians_ms(flows: List[Tuple[str, float]]) -> Dict[str, float]:
    """Median latency (ms) of each app's flows, from (key, ms) pairs."""
    by_app: Dict[str, List[float]] = {}
    for key, ms in flows:
        by_app.setdefault(key.split("/")[0], []).append(ms)
    return {app: statistics.median(v) for app, v in by_app.items()}


def latency_ms(flows: List[Tuple[str, float]]) -> float:
    """Geometric mean over the apps of each app's median flow latency.

    The apps' costs differ by up to 5x, so the median of all flows lands
    near the edge between the cheap and the costly apps and jumps when
    either shifts; this weighs each app the same and is steadier (see
    the README)."""
    medians = list(app_medians_ms(flows).values())
    if not medians:
        return 0.0
    return math.exp(statistics.fmean(math.log(ms) for ms in medians))


def run(seed: int, seconds: float, trace: bool, run_dir) -> Result:
    result = Result("fresh_flows", seed, trace)
    refs = load_refs()
    count = max(1, min(rounds_available(refs["ladder"]),
                       int(seconds // SECONDS_PER_ROUND)))
    rounds = list(job_rounds(seed, refs["ladder"]))[:count]
    ensure_refs(refs, [job for jobs in rounds for job in jobs])
    result.details["config"] = record_config(run_dir.path)
    pin_to_one_cpu()

    # set-up: what the in-process caller pays before its first flow
    setup_s = setup_probe(FLOW_MODULES, run_dir.path)
    for module in FLOW_MODULES:
        __import__(module)
    from repro import api

    # (app/mode/scale, ms) per flow, untraced and traced, and the
    # untraced ones scaled to the nominal host
    flows: Dict[bool, List[Tuple[str, float]]] = {False: [], True: []}
    scaled: List[Tuple[str, float]] = []
    totals = LayerTotals()
    recorder = Recorder()
    counters: Dict[str, float] = {}
    speed = HostSpeed()
    speed.probe()
    for index, jobs in enumerate(rounds):
        for app, mode, scale in jobs:
            # a trace run traces one flow per app in every round (the
            # mode alternating by round) and leaves its pair untraced,
            # so the overhead ratio compares the same apps and sizes
            traced = trace and mode == MODES[index % 2]
            key = scale_key(app, mode, scale)
            result.attempted += 1
            if traced:
                uninstall = install_layers(recorder)
                window = CounterWindow()
                recorder.start_job("flow")
            t0 = time.perf_counter()
            try:
                flow = api.run_flow(app, mode, scale=scale)
                wall = time.perf_counter() - t0
            except Exception as exc:  # a failed flow is a result
                result.failed += 1
                result.mismatch(f"{key}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if traced:
                    job = recorder.finish_job()
                    for name, value in window.close().items():
                        counters[name] = counters.get(name, 0.0) + value
                    uninstall()
                speed.probe()
                factor = speed.factor()
            if traced:
                totals.add(job)
            else:
                scaled.append((key, 1e3 * wall * factor))
            flows[traced].append((key, 1e3 * wall))
            if digest(flow) != refs["digests"][key]:
                result.mismatch(f"{key}: result differs from the reference")
    measured = [ms for _, ms in flows[False]]
    result.details["flows_ms"] = flows[False]
    result.details["probes_ms"] = speed.probes
    result.metric("setup_s", setup_s, "s")
    result.metric("latency_ms", latency_ms(scaled), "ms")
    result.metric("peak_rss_mb", getrusage(RUSAGE_SELF).ru_maxrss / 1024.0,
                  "MB")
    result.report("latency_wall_ms", latency_ms(flows[False]), "ms")
    result.report("flow_p50_ms", pct(measured, 50), "ms")
    result.report("flow_p90_ms", pct(measured, 90), "ms")
    result.report("flows", len(measured), "count")

    if trace:
        layers = layer_metrics(totals, counters)
        layers["e2e.flow_p90_ms"] = pct(measured, 90)
        medians = app_medians_ms(flows[False])
        for app in APPS:
            layers[f"app.{app}.flow_p50_ms"] = medians.get(app, 0.0)
        untraced = latency_ms(flows[False])
        layers["bench.trace_overhead_ratio"] = (
            latency_ms(flows[True]) / untraced if untraced else 0.0)
        result.details["layers"] = layers
    return result
