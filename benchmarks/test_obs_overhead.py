"""Bench: observability overhead gates, written to BENCH_obs.json.

Boots one real ``python -m repro serve`` child per configuration and
pushes the Fig. 5 workload (every app, informed mode, distinct content
hashes so nothing dedups) through it cold:

- **baseline** -- observability dark (no span buffer);
- **traced**   -- ``REPRO_OBS_BUFFER`` on, every client call made
  inside a live span so the ``traceparent`` header is injected and
  adopted, and the span buffer drained after each rep (the collector's
  cost is part of the bill).

Gate (min-of-5 wall per configuration): tracing must stay within
1.05x of baseline.  This is the number that lets the fleet run with
observability ON by default.
"""

import json
import time
from pathlib import Path

from repro import obs
from repro.client import ReproClient
from repro.fleet.runner import RunnerProcess

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_PATH = REPO_ROOT / "BENCH_obs.json"

REPS = 5
MAX_TRACED_RATIO = 1.05

CONFIGS = {
    "baseline": {},
    "traced": {"REPRO_OBS_BUFFER": "8192"},
}


def _sweep(client, apps, salt):
    """One cold fig5-shaped pass: every app x mode, distinct keys."""
    for i, app in enumerate(apps):
        for j, mode in enumerate(("informed", "uninformed")):
            client.run_flow(app, mode, timeout=300,
                            intensity_threshold=round(
                                0.3 + salt + (2 * i + j) * 1e-4, 6))


def _measure(tmp_path, name, env):
    runner = RunnerProcess(cache_dir=str(tmp_path / f"cache-{name}"),
                           workers=1, env=env,
                           extra_args=["--max-queue", "32"])
    collector = obs.add_sink(obs.SpanCollector())
    try:
        runner.wait_ready()
        client = ReproClient(runner.url, backoff_s=0.1,
                             poll_interval_s=0.02)
        apps = [a["name"] for a in client.apps()]
        _sweep(client, apps, salt=0.05)       # warm the app profiles
        walls = []
        for rep in range(REPS):
            start = time.perf_counter()
            # a live caller-side span makes every request carry a
            # traceparent header -- the propagation under test
            with obs.span("bench.fig5", config=name, rep=rep):
                _sweep(client, apps, salt=0.001 * (rep + 1))
            if env.get("REPRO_OBS_BUFFER"):
                drained = client.obs_spans(since=0)
                assert drained["spans"], "traced run produced no spans"
            walls.append(time.perf_counter() - start)
        return {"wall_s": round(min(walls), 3),
                "walls": [round(w, 3) for w in walls],
                "apps": len(apps)}
    finally:
        obs.remove_sink(collector)
        runner.stop()


def test_observability_overhead_is_bounded(tmp_path):
    results = {name: _measure(tmp_path, name, env)
               for name, env in CONFIGS.items()}
    base = results["baseline"]["wall_s"]
    traced_ratio = results["traced"]["wall_s"] / base
    snapshot = {
        "reps": REPS,
        "configs": results,
        "traced_ratio": round(traced_ratio, 3),
        "max_traced_ratio": MAX_TRACED_RATIO,
    }
    SNAPSHOT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"\nobs overhead: baseline {base:.2f}s, "
          f"traced {traced_ratio:.3f}x")
    assert traced_ratio <= MAX_TRACED_RATIO, snapshot
