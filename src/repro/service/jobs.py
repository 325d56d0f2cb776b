"""FlowJob: the unit of work the design-generation service schedules.

A job names one (app, mode) PSA-flow execution plus the engine knobs
that change its outcome (the Fig. 3 intensity threshold, the workload
scale).  Jobs are value objects: two jobs with the same content hash
(:meth:`FlowJob.key`) produce byte-identical results, which is what
lets the scheduler deduplicate in-flight work and the cache persist
results across processes.

The key covers everything result-determining: the cache format
version, the app's *source text* (so editing a benchmark invalidates
its cached designs), the mode, and the engine configuration.  Bump
``repro.service.cache.CACHE_FORMAT_VERSION`` when the serialized
result schema or flow semantics change; every stale entry then reads
as a miss and is dropped.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.apps.registry import ALL_APPS, get_app
from repro.flow.engine import FlowEngine, FlowResult

#: modes a job may request (FlowEngine.strategy_for rejects others too)
VALID_MODES = ("informed", "uninformed")


class JobValidationError(ValueError):
    """A FlowJob field is out of range or names an unknown app/mode."""


@dataclass(frozen=True)
class FlowJob:
    """One schedulable PSA-flow execution.

    ``priority`` orders submission in batch runs (higher first); it is
    not part of the content hash -- the same work at a different
    priority is still the same work.
    """

    app: str
    mode: str = "informed"
    #: Fig. 3 FLOPs/byte threshold X at branch point A
    intensity_threshold: float = 0.25
    #: workload scale handed to the interpreter
    scale: float = 1.0
    priority: int = 0
    #: per-job attempt timeout in seconds (None = scheduler default)
    timeout_s: Optional[float] = None
    #: bounded retries on failure/timeout (None = scheduler default)
    retries: Optional[int] = None

    def __post_init__(self):
        # a JSON ``true`` is not a number: it would hash apart from 1.0
        for name in ("intensity_threshold", "scale", "priority",
                     "timeout_s", "retries"):
            if isinstance(getattr(self, name), bool):
                raise JobValidationError(
                    f"{name} must be a number, not a boolean")
        if self.app not in ALL_APPS:
            raise JobValidationError(
                f"unknown app {self.app!r}; known: {sorted(ALL_APPS)}")
        if self.mode not in VALID_MODES:
            raise JobValidationError(
                f"unknown mode {self.mode!r}; valid: {VALID_MODES}")
        if not self.intensity_threshold > 0:
            raise JobValidationError(
                f"intensity_threshold must be > 0, "
                f"got {self.intensity_threshold}")
        if not self.scale > 0:
            raise JobValidationError(f"scale must be > 0, got {self.scale}")
        if not isinstance(self.priority, int):
            raise JobValidationError(
                f"priority must be an int, got {self.priority!r}")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise JobValidationError(
                f"timeout_s must be > 0, got {self.timeout_s}")
        if self.retries is not None and not (
                isinstance(self.retries, int) and self.retries >= 0):
            raise JobValidationError(
                f"retries must be an int >= 0, got {self.retries!r}")

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        return f"{self.app}/{self.mode}"

    def spec(self) -> Dict[str, Any]:
        """The result-determining content of this job, as plain data.

        This is both the hash input and the picklable payload a process
        worker rebuilds the job from.
        """
        from repro.service.cache import CACHE_FORMAT_VERSION

        return {
            "format": CACHE_FORMAT_VERSION,
            "app": self.app,
            "source_sha": hashlib.sha256(
                get_app(self.app).source.encode("utf-8")).hexdigest(),
            "mode": self.mode,
            "intensity_threshold": self.intensity_threshold,
            "scale": self.scale,
        }

    def key(self) -> str:
        """Deterministic content hash -- cache and dedup identity."""
        canonical = json.dumps(self.spec(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def from_spec(cls, spec: Dict[str, Any], **overrides) -> "FlowJob":
        return cls(app=spec["app"], mode=spec["mode"],
                   intensity_threshold=spec["intensity_threshold"],
                   scale=spec["scale"], **overrides)


# ----------------------------------------------------------------------
# Execution entry points
# ----------------------------------------------------------------------

def execute_job(job: FlowJob, engine: Optional[FlowEngine] = None,
                observer=None) -> FlowResult:
    """Run one job in this process and return the live FlowResult."""
    import os
    import time

    from repro.resilience import faults

    # chaos site: a transient worker error the retry policy absorbs
    faults.inject("worker.exec")
    # $REPRO_SIM_LATENCY_S models the external-toolchain wall time a
    # real (non-simulated) flow spends blocked on vendor tools -- the
    # regime where fleet scale-out pays.  Read lazily like the other
    # execution knobs so pool workers inherit it; 0/unset is free.
    try:
        latency = float(os.environ.get("REPRO_SIM_LATENCY_S") or 0.0)
    except ValueError:
        latency = 0.0
    if latency > 0:
        time.sleep(latency)
    engine = engine or FlowEngine(
        intensity_threshold=job.intensity_threshold)
    return engine.run(get_app(job.app), mode=job.mode,
                      scale=job.scale, observer=observer)


def execute_job_payload(spec: Dict[str, Any],
                        collect_obs: bool = False) -> Dict[str, Any]:
    """Process-pool worker: run a job spec, return plain data.

    Module-level and dict-in/dict-out so it pickles across the process
    boundary; the serialized result (sources included, so the cache
    entry is complete) travels back as JSON-compatible payload.

    ``collect_obs`` is passed separately from ``spec`` because the spec
    is the content-hash input -- tracing must not change cache keys.
    When set, the worker collects its ``repro.obs`` spans and ships
    them back as ``obs_spans`` dicts for the service to re-home under
    the submitting span (``obs.adopt_spans``).
    """
    import multiprocessing
    import os

    from repro import obs
    from repro.flow.serialize import result_to_dict
    from repro.resilience import faults

    # chaos site: hard worker death (BrokenProcessPool on the driver
    # side).  Gated to real pool children so a thread-pool or direct
    # caller can never take the whole process down.
    if multiprocessing.parent_process() is not None:
        try:
            faults.inject("worker.crash")
        except faults.InjectedFault:
            os._exit(13)

    job = FlowJob.from_spec(spec)
    collector = obs.add_sink(obs.SpanCollector()) if collect_obs else None
    try:
        # same root shape as the thread-pool path; adopt_spans re-homes
        # this root under the submitting span on the service side
        with obs.span("service.job", app=job.app, mode=job.mode,
                      key=job.key()[:12], pool="process"):
            result = execute_job(job)
    finally:
        if collector is not None:
            obs.remove_sink(collector)
    payload = {
        "key": job.key(),
        "result": result_to_dict(result, include_sources=True),
    }
    if collector is not None:
        payload["obs_spans"] = [s.to_dict()
                                for s in collector.snapshot()]
    return payload
