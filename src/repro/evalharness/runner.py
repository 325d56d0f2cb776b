"""Shared flow execution, backed by the design-generation service.

Every experiment needs the same uninformed + informed flow runs over
the five benchmarks.  The runner sits on :class:`DesignService`, so
Fig. 5, Table I and Fig. 6 regeneration get in-flight dedup, optional
parallel execution and persistent cross-run caching for free; the
service configuration comes from :class:`repro.config.ReproConfig`
(``REPRO_WORKERS`` / ``REPRO_CACHE_DIR`` / ``REPRO_RETRIES``) with
constructor arguments taking precedence.  With the defaults (one
in-process worker, no cache dir) it behaves exactly like the old
serial runner and returns live :class:`FlowResult` objects.

The runner can also execute **remotely**: give it a
:class:`repro.client.ReproClient` (or set ``$REPRO_SERVER`` / pass
``server_url``) and every flow runs on a ``python -m repro serve``
instance instead of in this process, returning the deserialized
:class:`FlowResultRecord` -- the same read API either way.

The experiment modules (fig5/table1/fig6/energy/report) all route
through :func:`repro.api.shared_runner`, one process-wide instance,
instead of each constructing their own -- identical flows are never
re-run when several experiments are generated in one process.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.apps.registry import PAPER_ORDER
from repro.config import ReproConfig
from repro.flow.engine import FlowEngine
from repro.service import DesignService

#: Fig. 5 column order (after the Auto-Selected bar)
DESIGN_LABELS = ("omp", "hip-1080ti", "hip-2080ti",
                 "oneapi-a10", "oneapi-s10")


class EvaluationRunner:
    """Runs and caches PSA-flow executions for the evaluation."""

    def __init__(self, engine: Optional[FlowEngine] = None,
                 service: Optional[DesignService] = None,
                 cache_dir: Optional[str] = None,
                 workers: Optional[int] = None,
                 client=None,
                 server_url: Optional[str] = None):
        if client is None:
            server_url = server_url or os.environ.get("REPRO_SERVER") \
                or None
            if server_url:
                from repro.client import ReproClient

                client = ReproClient(server_url)
        self.client = client
        if client is not None:
            # remote mode: flows run on the server, nothing local to own
            self.service = None
            self.engine = engine or FlowEngine()
            self._results = {}
            return
        if service is None:
            from repro import api

            cfg = ReproConfig.resolve(
                cli={"cache_dir": cache_dir, "workers": workers})
            service = api.open_service(cfg, engine=engine)
        self.service = service
        self.engine = service.engine
        self._results = {}

    def run(self, app_name: str, mode: str):
        if self.client is not None:
            # memoized locally: the experiments re-read the same pair
            key = (app_name, mode)
            if key not in self._results:
                self._results[key] = self.client.run_flow(app_name, mode)
            return self._results[key]
        return self.service.run_pair(app_name, mode)

    def prefetch(self, apps: Optional[List[str]] = None,
                 modes: Optional[List[str]] = None) -> None:
        """Warm every (app, mode) pair through the service's pool."""
        from repro.service.batch import expand_jobs

        if self.client is not None:
            for job in expand_jobs(apps or self.all_apps(), modes):
                self.run(job.app, job.mode)
            return
        for submission in self.service.submit_many(
                expand_jobs(apps or self.all_apps(), modes)):
            submission.result()

    def uninformed(self, app_name: str):
        return self.run(app_name, "uninformed")

    def informed(self, app_name: str):
        return self.run(app_name, "informed")

    def all_apps(self) -> List[str]:
        return list(PAPER_ORDER)

    def speedup(self, app_name: str, label: str) -> Optional[float]:
        """Speedup of one design of the uninformed run (None = n/a)."""
        design = self.uninformed(app_name).design(label)
        if design is None or not design.synthesizable:
            return None
        return design.speedup

    def hotspot_time(self, app_name: str, label: str) -> Optional[float]:
        design = self.uninformed(app_name).design(label)
        if design is None or not design.synthesizable:
            return None
        return design.predicted_time_s

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

