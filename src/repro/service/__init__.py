"""repro.service -- the concurrent design-generation service.

Turns PSA-flow execution into a schedulable, observable, cacheable
service (the serving layer the ROADMAP's heavy-traffic north star
needs):

- :mod:`repro.service.jobs` -- :class:`FlowJob` specs with validated
  fields and deterministic content-hash keys;
- :mod:`repro.service.cache` -- :class:`ResultCache`, a persistent
  content-addressed result store with versioned invalidation;
- :mod:`repro.service.scheduler` -- :class:`JobScheduler`, a worker
  pool (processes with thread fallback) with in-flight dedup, per-job
  timeout, bounded retry with backoff, and cancellation;
- :mod:`repro.service.batch` -- app x mode expansion and streaming
  batch execution;
- :mod:`repro.service.core` -- :class:`DesignService`, the facade
  wiring the layers together.

Quick use::

    from repro.service import DesignService, expand_jobs, run_batch

    with DesignService(cache_dir=".repro-cache", workers=4) as svc:
        report = run_batch(svc, expand_jobs())   # 5 apps x 2 modes
        print(report.count("cache-disk"), report.cache_stats)
"""

from repro.service.batch import (
    BatchItem, BatchReport, expand_jobs, iter_batch, run_batch,
)
from repro.service.cache import (
    CACHE_FORMAT_VERSION, CacheBackend, CacheStats, ResultCache,
)
from repro.service.core import DesignService, ServiceOverloaded, ServiceResult
from repro.service.jobs import (
    FlowJob, JobValidationError, execute_job, execute_job_payload,
)
from repro.service.scheduler import (
    JobCancelled, JobError, JobFailed, JobHandle, JobQuarantined,
    JobResultPending, JobScheduler, JobStatus, JobTimeout,
)

__all__ = [
    "BatchItem", "BatchReport", "expand_jobs", "iter_batch", "run_batch",
    "CACHE_FORMAT_VERSION", "CacheBackend", "CacheStats", "ResultCache",
    "DesignService", "ServiceOverloaded", "ServiceResult",
    "FlowJob", "JobValidationError", "execute_job", "execute_job_payload",
    "JobCancelled", "JobError", "JobFailed", "JobHandle", "JobQuarantined",
    "JobResultPending", "JobScheduler", "JobStatus", "JobTimeout",
]
