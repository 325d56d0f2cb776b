"""repro.api -- the one documented programmatic surface.

Everything a caller needs to generate designs lives here, whether the
work runs in-process, through the cached/scheduled
:class:`~repro.service.DesignService`, or (via
:class:`repro.client.ReproClient`) against a remote
``python -m repro serve`` instance:

- :func:`run_flow` -- one (app, mode) PSA-flow, blocking, through
  whatever backend the :class:`~repro.config.ReproConfig` selects;
- :func:`open_service` -- a configured :class:`DesignService` for
  callers that manage many jobs themselves;
- :func:`submit` / :func:`gather` -- non-blocking submission and
  batched collection on a service;
- :func:`list_apps` / :func:`list_modes` -- the catalog the service
  (and the HTTP API) exposes;
- :func:`shared_runner` / :func:`set_shared_runner` -- the
  process-wide :class:`~repro.evalharness.runner.EvaluationRunner`
  the experiment modules share (canonical home since PR 5; the old
  ``repro.evalharness.runner`` imports still work but warn).

The CLI (``repro.__main__``), the evaluation harness and the
benchmarks all route through this module, so the in-process path and
the networked path exercise identical code.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.apps.registry import ALL_APPS, PAPER_ORDER, get_app
from repro.config import ReproConfig
from repro.flow.engine import FlowEngine
from repro.service import DesignService, FlowJob, ServiceResult
from repro.service.batch import expand_jobs  # noqa: F401  (re-export)
from repro.service.jobs import VALID_MODES

__all__ = [
    "run_flow", "submit", "gather", "list_apps", "list_modes",
    "open_service", "expand_jobs", "shared_runner", "set_shared_runner",
]


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------

def list_apps() -> List[Dict[str, Any]]:
    """The benchmark catalog, paper order first (plain data)."""
    ordered = list(PAPER_ORDER) + sorted(set(ALL_APPS) - set(PAPER_ORDER))
    out = []
    for name in ordered:
        app = ALL_APPS[name]
        out.append({
            "name": name,
            "display_name": app.display_name,
            "reference_loc": app.reference_loc,
            "summary": app.summary,
        })
    return out


def list_modes() -> List[str]:
    """PSA strategies a job may request."""
    return list(VALID_MODES)


# ----------------------------------------------------------------------
# Services and flows
# ----------------------------------------------------------------------

def open_service(config: Optional[ReproConfig] = None,
                 engine: Optional[FlowEngine] = None,
                 **overrides: Any) -> DesignService:
    """A :class:`DesignService` built from the resolved configuration.

    ``config`` defaults to :meth:`ReproConfig.from_env`; keyword
    overrides (``cache_dir=...``, ``workers=...``) take precedence over
    both.  The caller owns the service (use it as a context manager or
    call ``close()``).
    """
    cfg = (config or ReproConfig.from_env()).replace(**overrides)
    return DesignService(engine=engine, cache_dir=cfg.cache_dir,
                         workers=cfg.workers)


def run_flow(app: str, mode: str = "informed", *,
             config: Optional[ReproConfig] = None,
             service: Optional[DesignService] = None,
             intensity_threshold: Optional[float] = None,
             scale: Optional[float] = None,
             timeout: Optional[float] = None) -> Any:
    """Run one PSA-flow and block for its result.

    With a ``service`` (or a config that wants caching / parallelism)
    the flow goes through the design service -- content-hash dedup,
    persistent cache, crash recovery -- and may return a
    :class:`~repro.flow.serialize.FlowResultRecord`.  With the default
    single-worker uncached config it runs directly on a
    :class:`FlowEngine` and returns the live
    :class:`~repro.flow.engine.FlowResult`; both expose the same read
    API.
    """
    job_kwargs: Dict[str, Any] = {}
    if intensity_threshold is not None:
        job_kwargs["intensity_threshold"] = intensity_threshold
    if scale is not None:
        job_kwargs["scale"] = scale
    if service is not None:
        return service.run(service.job_for(app, mode, **job_kwargs),
                           timeout=timeout)
    cfg = config or ReproConfig.from_env()
    if cfg.cache_dir is None and cfg.workers == 1:
        # nothing the service adds is wanted: run on the engine itself
        engine = FlowEngine(**({"intensity_threshold": intensity_threshold}
                               if intensity_threshold is not None else {}))
        return engine.run(get_app(app), mode=mode, scale=scale or 1.0)
    with open_service(cfg) as svc:
        return svc.run(svc.job_for(app, mode, **job_kwargs),
                       timeout=timeout)


def submit(service: DesignService, app_or_job, mode: str = "informed",
           **job_kwargs: Any) -> ServiceResult:
    """Submit one job (by :class:`FlowJob` or by app/mode) to a service."""
    if isinstance(app_or_job, FlowJob):
        return service.submit(app_or_job)
    return service.submit(service.job_for(app_or_job, mode, **job_kwargs))


def gather(submissions: Iterable[ServiceResult],
           timeout: Optional[float] = None,
           return_exceptions: bool = False) -> List[Any]:
    """Block for many submissions; results in submission order.

    With ``return_exceptions`` the failed entries hold the exception
    instead of raising (mirrors ``asyncio.gather``).
    """
    out: List[Any] = []
    for submission in list(submissions):
        try:
            out.append(submission.result(timeout))
        except BaseException as exc:
            if not return_exceptions:
                raise
            out.append(exc)
    return out


# ----------------------------------------------------------------------
# The process-wide evaluation runner (moved here from
# repro.evalharness.runner, which keeps deprecated shims).
# ----------------------------------------------------------------------
_SHARED: Optional[Any] = None


def shared_runner():
    """The process-wide service-backed evaluation runner."""
    global _SHARED
    if _SHARED is None:
        from repro.evalharness.runner import EvaluationRunner

        _SHARED = EvaluationRunner()
    return _SHARED


def set_shared_runner(runner):
    """Swap the shared runner (tests, custom services); returns the old."""
    global _SHARED
    previous, _SHARED = _SHARED, runner
    return previous
