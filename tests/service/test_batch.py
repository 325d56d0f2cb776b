"""Batch + DesignService acceptance tests.

The headline check mirrors `python -m repro batch --all --jobs 4`:
all 5 apps x 2 modes execute on a 4-worker pool, the speedup numbers
are identical to serial execution, and a warm-cache rerun (a fresh
service on the same cache directory, as a new process would be)
completes with 10/10 cache hits -- verified from the batch report's
item sources and cache stats, and from ``repro_service_events_total``.
"""

import pytest

from repro import obs
from repro.evalharness.runner import DESIGN_LABELS, EvaluationRunner
from repro.service import (
    DesignService, FlowJob, expand_jobs, iter_batch, run_batch,
)

EVENTS = ("cache_hit_disk", "cache_hit_memory", "cache_miss",
          "cache_write", "jobs_run")


def service_events(before=None):
    """``repro_service_events_total`` by event, or its delta since
    ``before`` (an earlier return value)."""
    counter = obs.REGISTRY.counter("repro_service_events_total",
                                   labelnames=("event",))
    now = {event: counter.get(event=event) for event in EVENTS}
    if before is None:
        return now
    return {event: now[event] - before[event] for event in EVENTS}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("result-cache"))


@pytest.fixture(scope="module")
def cold_report(cache_dir):
    """One cold `--all --jobs 4` batch through a cached service."""
    with DesignService(cache_dir=cache_dir, workers=4,
                       pool="thread") as service:
        before = service_events()
        report = run_batch(service, expand_jobs())
    return report, service_events(before)


class TestExpansion:
    def test_all_by_default_is_5x2(self):
        jobs = expand_jobs()
        assert len(jobs) == 10
        assert {job.app for job in jobs} == {
            "rush_larsen", "nbody", "bezier", "adpredictor", "kmeans"}
        assert {job.mode for job in jobs} == {"informed", "uninformed"}

    def test_subset_and_kwargs(self):
        jobs = expand_jobs(["kmeans"], ["informed"], priority=3,
                           retries=1)
        assert jobs == [FlowJob("kmeans", "informed", priority=3,
                                retries=1)]

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            expand_jobs(["warp_drive"])
        with pytest.raises(KeyError):
            expand_jobs(modes=["psychic"])


class TestColdBatch:
    def test_all_ten_jobs_succeed(self, cold_report):
        report, counters = cold_report
        assert len(report.items) == 10
        assert report.ok, [str(i.error) for i in report.failed]
        assert report.count("run") == counters["jobs_run"] == 10
        assert report.cache_stats["writes"] == counters["cache_write"] \
            == 10

    def test_speedups_identical_to_serial_execution(self, cold_report,
                                                    runner):
        """Parallel batch numbers == the serial session runner's."""
        report, _ = cold_report
        for item in report.items:
            serial = runner.run(item.job.app, item.job.mode)
            for label in DESIGN_LABELS:
                ours = item.result.design(label)
                want = serial.design(label)
                assert (ours is None) == (want is None), \
                    (item.job.label, label)
                if ours is None or not want.synthesizable:
                    continue
                assert ours.speedup == want.speedup, \
                    (item.job.label, label)
                assert ours.predicted_time_s == want.predicted_time_s
            assert item.result.selected_target == serial.selected_target

    def test_dedup_and_memory_hits_within_one_service(self, cache_dir):
        with DesignService(cache_dir=cache_dir, workers=2,
                           pool="thread") as service:
            job = FlowJob("kmeans", "informed")
            before = service_events()
            service.run(job)
            service.run(job)
            counters = service_events(before)
            # first resolve from disk (cold service), second from memory
            assert counters["cache_hit_disk"] == 1
            assert counters["cache_hit_memory"] == 1


class TestWarmBatch:
    def test_warm_rerun_is_10_of_10_cache_hits(self, cold_report,
                                               cache_dir):
        """A fresh service on the same cache dir never re-executes."""
        with DesignService(cache_dir=cache_dir, workers=4,
                           pool="thread") as service:
            before = service_events()
            report = run_batch(service, expand_jobs())
            counters = service_events(before)
            assert len(report.items) == 10 and report.ok
            assert report.count("cache-disk") == counters["cache_hit_disk"] \
                == 10
            assert report.count("run") == counters["jobs_run"] == 0
            assert report.cache_stats["misses"] == counters["cache_miss"] \
                == 0
            assert report.cache_stats["hits"] == 10
            assert service.cache.stats.hits == 10
            assert all(item.source == "cache-disk"
                       for item in report.items)

    def test_warm_results_match_serial_numbers(self, cold_report,
                                               cache_dir, runner):
        with DesignService(cache_dir=cache_dir, pool="thread") as service:
            for job in expand_jobs():
                record = service.run(job)
                serial = runner.run(job.app, job.mode)
                auto_ours = record.auto_selected
                auto_want = serial.auto_selected
                assert (auto_ours is None) == (auto_want is None)
                if auto_ours is not None:
                    assert auto_ours.speedup == auto_want.speedup

    def test_streaming_yields_cached_items_first(self, cold_report,
                                                 cache_dir):
        with DesignService(cache_dir=cache_dir, pool="thread") as service:
            items = list(iter_batch(service, expand_jobs()))
            assert len(items) == 10
            assert all(item.source == "cache-disk" for item in items)
            assert all(item.best_speedup is None
                       or item.best_speedup > 1 for item in items)


class TestServiceBackedRunner:
    def test_runner_uses_the_shared_disk_cache(self, cold_report,
                                               cache_dir):
        """EvaluationRunner on a warmed cache never re-runs a flow."""
        service = DesignService(cache_dir=cache_dir, pool="thread")
        try:
            eval_runner = EvaluationRunner(service=service)
            before = service_events()
            result = eval_runner.informed("kmeans")
            counters = service_events(before)
            assert result.selected_target == "omp"
            assert counters["jobs_run"] == 0
            assert counters["cache_hit_disk"] == 1
        finally:
            service.close()
