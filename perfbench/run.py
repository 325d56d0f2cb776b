"""The repo's benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload fresh_flows --seed 1 --seconds 20
    python3 perfbench/run.py --workload served_mix --trace 1

Prints every metric by name and unit, writes the full record to
``perfbench/out/``, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits
non-zero if the program is missing or any output differs from the
interpreter references.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BenchError, RunDir, make_hermetic, require_program  # noqa: E402
from spans import ATTRIBUTION_TOLERANCE  # noqa: E402

WORKLOADS = ("fresh_flows", "paper_eval", "served_mix")

#: a run that has not finished by then gives up, stopping what it started
DEADLINE_S = 170

END_TO_END = (("setup_s", "s"), ("latency_ms", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("meta.parse_ms", "ms"), ("meta.parse_calls", "count"),
    ("lang.exec_ms", "ms"), ("lang.exec_calls", "count"),
    ("lang.fallbacks", "count"),
    ("analysis.self_ms", "ms"), ("analysis.profile_lookups", "count"),
    ("analysis.profile_hit_ratio", "ratio"),
    ("transforms.self_ms", "ms"), ("codegen.self_ms", "ms"),
    ("dse.self_ms", "ms"), ("dse.points", "count"),
    ("toolchains.compile_ms", "ms"), ("platforms.eval_ms", "ms"),
    ("flow.self_ms", "ms"), ("evalharness.self_ms", "ms"),
    ("app.rush_larsen.flow_p50_ms", "ms"), ("app.nbody.flow_p50_ms", "ms"),
    ("app.bezier.flow_p50_ms", "ms"), ("app.adpredictor.flow_p50_ms", "ms"),
    ("app.kmeans.flow_p50_ms", "ms"),
    ("client.submit_ms", "ms"), ("client.result_ms", "ms"),
    ("client.retries", "count"),
    ("fleet.submit_hop_ms", "ms"), ("fleet.result_hop_ms", "ms"),
    ("server.submit_ms", "ms"), ("server.result_ms", "ms"),
    ("service.queue_wait_ms", "ms"), ("service.job_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"), ("service.cache_lookups", "count"),
    ("fleet.journal_records", "count"), ("fleet.journal_fsyncs", "count"),
    ("fleet.steals", "count"), ("fleet.reroutes", "count"),
    ("loadgen.lag_p90_ms", "ms"), ("loadgen.outstanding_max", "count"),
    ("e2e.flow_p90_ms", "ms"), ("e2e.hit_p90_ms", "ms"),
    ("e2e.miss_p50_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.attribution_error", "ratio"), ("bench.error_ratio", "ratio"),
)


def _terminate(signum, frame):
    # unwind through every finally block, so child processes are stopped
    raise SystemExit(128 + signum)


def _deadline(signum, frame):
    raise BenchError(f"run did not finish within {DEADLINE_S}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        require_program()
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    make_hermetic()
    if args.workload == "fresh_flows":
        import flows as workload
    elif args.workload == "paper_eval":
        import evalall as workload
    else:
        import served as workload

    run_dir = RunDir(args.workload)
    started = time.perf_counter()
    try:
        result = workload.run(args.seed, args.seconds, bool(args.trace),
                              run_dir)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        run_dir.close()
    result.details["run_wall_s"] = time.perf_counter() - started

    layers = result.details.get("layers", {})
    layers["bench.error_ratio"] = result.failed / max(result.attempted, 1)
    if layers.get("bench.attribution_error", 0.0) > ATTRIBUTION_TOLERANCE:
        result.mismatch(f"layer self times do not sum to the job wall "
                        f"(relative error {layers['bench.attribution_error']:.2e}"
                        f" > {ATTRIBUTION_TOLERANCE})")
    for name, (value, unit) in list(result.metrics.items()):
        result.report(name, value, unit)
    result.report("error_ratio", layers["bench.error_ratio"], "ratio")
    if args.trace:
        result.metrics = {}
        for name, unit in PER_LAYER:
            result.metric(name, layers.get(name, 0.0), unit)
            result.report(name, layers.get(name, 0.0), unit)
    else:
        result.metrics = {name: result.metrics[name]
                          for name, _ in END_TO_END}
    result.emit()
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
