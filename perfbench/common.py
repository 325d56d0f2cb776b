"""Shared plumbing: the hermetic environment, seeded job streams, the
interpreter references, child-process measurement and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from hostspeed import HostSpeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFS_DIR = os.path.join(BENCH_DIR, "refs")
FLOW_REFS = os.path.join(REFS_DIR, "flows.json")
EVAL_REF = os.path.join(REFS_DIR, "eval_all.txt")
OUT_DIR = os.path.join(BENCH_DIR, "out")

APPS = ("rush_larsen", "nbody", "bezier", "adpredictor", "kmeans")
MODES = ("informed", "uninformed")
#: the served hot set and the paper's own experiments run at this scale
HOT_SCALE = 1.0

Job = Tuple[str, str, float]


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad references)."""


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"program source not found under {SRC}")


def hermetic_environ() -> Dict[str, str]:
    """The caller's environment without any ``REPRO_*`` knob, with the
    checkout's ``src`` first on ``PYTHONPATH``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return env


def make_hermetic() -> None:
    """Apply :func:`hermetic_environ` to this process (in-process
    workloads read the program's knobs from ``os.environ``)."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = hermetic_environ()["PYTHONPATH"]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


class RunDir:
    """Empty per-run directories (result caches, journals, outputs),
    removed when the run ends."""

    def __init__(self, workload: str):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUT_DIR)

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# ----------------------------------------------------------------------
# Seeded job streams over the reference ladder
# ----------------------------------------------------------------------

def scale_key(app: str, mode: str, scale: float) -> str:
    return f"{app}/{mode}/{scale:.3f}"


def load_refs() -> Dict:
    try:
        with open(FLOW_REFS, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read references {FLOW_REFS}: {exc}")


def rounds_available(ladder: Dict[str, List[float]]) -> int:
    return min(len(ladder[app]) for app in APPS) // 2


def job_rounds(seed: int, ladder: Dict[str, List[float]]
               ) -> Iterator[List[Job]]:
    """Rounds of the ten (app, mode) pairs in seeded order.

    Round ``r`` gives each app the ladder's sizes ``2r`` and ``2r+1``
    (the ladder lists distinct workloads nearest scale 1.0 first); the
    seed decides which mode gets which size and the order within the
    round.  Every round therefore does the same amount of work whatever
    the seed, and no workload repeats within a process.
    """
    rng = random.Random(seed)
    for r in range(rounds_available(ladder)):
        jobs: List[Job] = []
        for app in APPS:
            sizes = list(ladder[app][2 * r:2 * r + 2])
            rng.shuffle(sizes)
            jobs.append((app, MODES[0], sizes[0]))
            jobs.append((app, MODES[1], sizes[1]))
        rng.shuffle(jobs)
        yield jobs


def digest(result) -> str:
    """SHA-256 of ``result_to_dict`` -- live results and wire records
    serialize to the same dict."""
    from repro.flow.serialize import result_to_dict

    text = json.dumps(result_to_dict(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ensure_refs(refs: Dict, jobs: Sequence[Job]) -> None:
    """Compute, with the interpreter, any reference ``jobs`` lack.

    Runs before timing starts; the stored table covers every job the
    seeded streams can draw, so this only does work after the ladder
    or the app set changes.
    """
    missing = sorted({scale_key(*job) for job in jobs}
                     - set(refs["digests"]))
    if not missing:
        return
    cmd = [sys.executable, os.path.join(BENCH_DIR, "refs.py"), "--print"]
    cmd += missing
    out = subprocess.run(cmd, env=hermetic_environ(), cwd=ROOT,
                         stdout=subprocess.PIPE, check=True,
                         timeout=900).stdout
    refs["digests"].update(json.loads(out))


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------

#: a child that outlives this is killed and the run fails
CHILD_TIMEOUT_S = 120.0
#: how often a running child is paused for a host-speed probe
PROBE_EVERY_S = 0.5
#: cold set-up probes per run; ``setup_s`` is their median
SETUP_REPEATS = 5


def run_measured(cmd: Sequence[str], cwd: str, speed: HostSpeed,
                 stdout_path: Optional[str] = None
                 ) -> Tuple[float, int, float]:
    """Run ``cmd`` under the hermetic environment to completion:
    (wall seconds, exit code, peak RSS MB).

    A job of several seconds sees the host change speed under it, so
    every ``PROBE_EVERY_S`` the child is stopped while ``speed`` probes
    the host, on the CPU they share, and the pauses are left out of the
    wall time.  The wait sleeps rather than polls.  The child is killed
    if it outlives ``CHILD_TIMEOUT_S`` or if this process is interrupted
    while waiting for it."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        paused = 0.0
        proc = subprocess.Popen(list(cmd), cwd=cwd, env=hermetic_environ(),
                                stdout=out, stderr=subprocess.DEVNULL)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.poll()
            exited.register(pidfd, select.POLLIN)
            while True:
                if exited.poll(1e3 * PROBE_EVERY_S):
                    end = time.perf_counter()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                if time.perf_counter() - start - paused > CHILD_TIMEOUT_S:
                    raise BenchError(f"{cmd} ran past {CHILD_TIMEOUT_S}s")
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):  # it ended first
                    end = time.perf_counter()
                    break
                t0 = time.perf_counter()
                speed.probe()
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return end - start - paused, proc.returncode, usage.ru_maxrss / 1024.0
    finally:
        if stdout_path:
            out.close()


def setup_probe(modules: Sequence[str], cwd: str) -> float:
    """Median wall time of ``SETUP_REPEATS`` cold interpreters that
    import ``modules`` -- the imports a workload's timed jobs need --
    each scaled to the nominal host (see ``hostspeed``)."""
    cmd = [sys.executable, "-c", "import " + ", ".join(modules)]
    walls = []
    speed = HostSpeed()
    speed.probe()
    for _ in range(SETUP_REPEATS):
        wall, code, _ = run_measured(cmd, cwd, speed)
        if code != 0:
            raise BenchError(f"set-up probe {cmd} exited {code}")
        speed.probe()
        walls.append(wall * speed.factor())
    return statistics.median(walls)


def record_config(cwd: str) -> Dict:
    """The program's resolved configuration, as ``repro config`` prints
    it under the benchmark's environment."""
    out = subprocess.run([sys.executable, "-m", "repro", "config"], cwd=cwd,
                         env=hermetic_environ(), stdout=subprocess.PIPE,
                         check=True, timeout=60).stdout
    return json.loads(out)


def pct(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (exclusive method; the median for q=50)."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1 or q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[q - 1]


def delta(before, after, name: str, **match: Optional[str]) -> float:
    """Change of ``name`` between two scrapes parsed by
    ``repro.obs.console.parse_prometheus`` (a ``None`` label value
    matches series without that label)."""
    from repro.obs.console import metric_sum

    return metric_sum(after, name, **match) - metric_sum(before, name, **match)


def in_process_counters():
    from repro import obs
    from repro.obs.console import parse_prometheus

    return parse_prometheus(obs.REGISTRY.to_prometheus())


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

class Result:
    """What one run reports: counts, metrics and details for the file."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.named: Dict[str, Tuple[float, str]] = {}
        self.details: Dict = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def report(self, name: str, value: float, unit: str) -> None:
        """A metric by the name the README gives it (printed, filed)."""
        self.named[name] = (float(value), unit)

    def mismatch(self, what: str) -> None:
        self.mismatches.append(what)

    @property
    def correct(self) -> bool:
        return not self.mismatches and self.attempted > 0

    def emit(self) -> None:
        for name, (value, unit) in sorted(self.named.items()):
            print(f"{self.workload:12s} {name:34s} {value:14.4f} {unit}")
        for what in self.mismatches[:20]:
            print(f"MISMATCH {what}")
        record = {
            "workload": self.workload, "seed": self.seed,
            "trace": int(self.trace), "correct": self.correct,
            "attempted": self.attempted, "failed": self.failed,
            "mismatches": self.mismatches,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in self.metrics.items()},
            "named": {k: {"value": v, "unit": u}
                      for k, (v, u) in self.named.items()},
            "details": self.details,
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"{self.workload}-seed{self.seed}-trace"
                     f"{int(self.trace)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
        print(f"results written to {os.path.relpath(path, ROOT)}")
        line = {"correct": self.correct, "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in self.metrics.items()}}
        print(json.dumps(line), flush=True)
