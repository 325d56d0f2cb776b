"""Batch front-end: expand app x mode requests, stream results.

``expand_jobs`` turns an "all apps x all modes" style request into a
list of :class:`FlowJob` specs; ``iter_batch`` submits them to a
:class:`DesignService` and yields :class:`BatchItem` outcomes in
completion order (cache hits first, then executed jobs as the pool
finishes them); ``run_batch`` collects everything into a
:class:`BatchReport` with the result-cache statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.apps.registry import ALL_APPS, PAPER_ORDER
from repro.service.jobs import FlowJob, VALID_MODES


def expand_jobs(apps: Optional[Sequence[str]] = None,
                modes: Optional[Sequence[str]] = None,
                **job_kwargs) -> List[FlowJob]:
    """Cartesian expansion of an app/mode request into jobs.

    ``apps=None`` means every registered benchmark (paper order);
    ``modes=None`` means both informed and uninformed.  Extra keyword
    arguments (priority, timeout_s, scale, ...) apply to every
    expanded job.
    """
    apps = list(apps) if apps else list(PAPER_ORDER)
    modes = list(modes) if modes else list(VALID_MODES)
    for app in apps:
        if app not in ALL_APPS:
            raise KeyError(
                f"unknown app {app!r}; known: {sorted(ALL_APPS)}")
    for mode in modes:
        if mode not in VALID_MODES:
            raise KeyError(
                f"unknown mode {mode!r}; valid: {VALID_MODES}")
    return [FlowJob(app=app, mode=mode, **job_kwargs)
            for app in apps for mode in modes]


@dataclass
class BatchItem:
    """Outcome of one job in a batch."""

    job: FlowJob
    source: str                  # 'run' | 'cache-disk' | 'cache-memory'
    result: Any = None           # FlowResult | FlowResultRecord | None
    error: Optional[BaseException] = None
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def best_speedup(self) -> Optional[float]:
        if self.result is None:
            return None
        best = self.result.auto_selected
        return best.speedup if best is not None else None

    @property
    def best_label(self) -> Optional[str]:
        if self.result is None:
            return None
        best = self.result.auto_selected
        return best.metadata.get("device_label") if best else None


@dataclass
class BatchReport:
    items: List[BatchItem] = field(default_factory=list)
    cache_stats: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    @property
    def failed(self) -> List[BatchItem]:
        return [item for item in self.items if not item.ok]

    def count(self, source: str) -> int:
        """Items whose result came from ``source`` ('run', ...)."""
        return sum(1 for item in self.items if item.source == source)


def iter_batch(service, jobs: Iterable[FlowJob],
               timeout: Optional[float] = None) -> Iterator[BatchItem]:
    """Submit jobs and yield outcomes as they complete."""
    for submission, result, error in service.stream(jobs, timeout=timeout):
        yield BatchItem(job=submission.job, source=submission.source,
                        result=result, error=error,
                        wall_s=submission.wall_s)


def run_batch(service, jobs: Iterable[FlowJob],
              on_item=None, timeout: Optional[float] = None) -> BatchReport:
    """Run a whole batch; ``on_item`` streams progress (CLI printing)."""
    report = BatchReport()
    for item in iter_batch(service, jobs, timeout=timeout):
        report.items.append(item)
        if on_item is not None:
            on_item(item)
    if service.cache is not None:
        stats = service.cache.stats
        report.cache_stats = {
            "hits": stats.hits, "misses": stats.misses,
            "writes": stats.writes, "invalidated": stats.invalidated,
        }
    return report
