"""ResultCache tests: persistence, versioned invalidation, stats."""

import json
import os

from repro.flow.serialize import FlowResultRecord, result_to_dict
from repro.service.cache import CACHE_FORMAT_VERSION, ResultCache
from repro.service.jobs import FlowJob


def put_result(cache, result, job):
    cache.put(job.key(), job.spec(),
              result_to_dict(result, include_sources=True))
    return job.key()


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path, kmeans_informed):
        cache = ResultCache(str(tmp_path))
        job = FlowJob("kmeans", "informed")
        assert cache.get(job.key()) is None
        key = put_result(cache, kmeans_informed, job)
        record = cache.get(key)
        assert isinstance(record, FlowResultRecord)
        assert record.app_name == "kmeans"
        assert record.selected_target == kmeans_informed.selected_target
        assert record.auto_selected.speedup \
            == kmeans_informed.auto_selected.speedup

    def test_survives_a_new_cache_instance(self, tmp_path, kmeans_informed):
        job = FlowJob("kmeans", "informed")
        key = put_result(ResultCache(str(tmp_path)), kmeans_informed, job)
        fresh = ResultCache(str(tmp_path))
        record = fresh.get(key)
        assert record is not None
        assert [d.label for d in record.designs] \
            == [d.label for d in kmeans_informed.designs]
        assert fresh.stats.hits == 1

    def test_sources_are_kept(self, tmp_path, kmeans_informed):
        cache = ResultCache(str(tmp_path))
        key = put_result(cache, kmeans_informed,
                         FlowJob("kmeans", "informed"))
        record = cache.get(key)
        assert "#pragma omp parallel for" in record.designs[0].render()


class TestInvalidation:
    def test_stale_format_is_dropped(self, tmp_path, kmeans_informed):
        cache = ResultCache(str(tmp_path))
        job = FlowJob("kmeans", "informed")
        key = put_result(cache, kmeans_informed, job)
        path = cache._path(key)
        entry = json.load(open(path))
        entry["format"] = CACHE_FORMAT_VERSION + 1
        json.dump(entry, open(path, "w"))
        assert cache.get(key) is None
        assert cache.stats.invalidated == 1
        assert not os.path.exists(path)

    def test_corrupt_entry_is_quarantined(self, tmp_path,
                                          kmeans_informed):
        cache = ResultCache(str(tmp_path))
        key = put_result(cache, kmeans_informed,
                         FlowJob("kmeans", "informed"))
        path = cache._path(key)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.invalidated == 0
        # evidence moved aside, not deleted; no longer a live entry
        assert not os.path.exists(path)
        quarantined = list(cache.quarantined())
        assert len(quarantined) == 1
        assert quarantined[0].endswith(os.path.basename(path))
        assert key not in list(cache.keys())

    def test_crc_mismatch_is_quarantined(self, tmp_path, kmeans_informed):
        cache = ResultCache(str(tmp_path))
        key = put_result(cache, kmeans_informed,
                         FlowJob("kmeans", "informed"))
        path = cache._path(key)
        entry = json.load(open(path))
        # valid JSON, right format, silently flipped payload bit
        entry["result"]["app"] = entry["result"].get("app", "") + "x"
        json.dump(entry, open(path, "w"))
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert len(list(cache.quarantined())) == 1


class TestStatsAndMaintenance:
    def test_stats_count_lookups_and_writes(self, tmp_path,
                                            kmeans_informed):
        cache = ResultCache(str(tmp_path))
        job = FlowJob("kmeans", "informed")
        cache.get(job.key())
        put_result(cache, kmeans_informed, job)
        cache.get(job.key())
        cache.get(job.key())
        assert cache.stats.misses == 1
        assert cache.stats.writes == 1
        assert cache.stats.hits == 2
        assert cache.stats.hit_rate == 2 / 3

    def test_keys_entries_and_purge(self, tmp_path, kmeans_informed,
                                    kmeans_uninformed):
        cache = ResultCache(str(tmp_path))
        put_result(cache, kmeans_informed, FlowJob("kmeans", "informed"))
        put_result(cache, kmeans_uninformed,
                   FlowJob("kmeans", "uninformed"))
        assert len(cache) == 2
        modes = {entry["job"]["mode"] for entry in cache.entries()}
        assert modes == {"informed", "uninformed"}
        assert cache.size_bytes() > 0
        assert cache.purge() == 2
        assert len(cache) == 0


class TestDurableWrites:
    """``REPRO_DURABLE=1``: fsync before rename, no half-visible entry."""

    def test_durable_put_fsyncs_before_the_rename(
            self, tmp_path, kmeans_informed, monkeypatch):
        import repro.service.cache as cache_mod

        synced = []
        real_fsync = os.fsync
        monkeypatch.setenv("REPRO_DURABLE", "1")
        monkeypatch.setattr(cache_mod.os, "fsync",
                            lambda fd: (synced.append(fd),
                                        real_fsync(fd))[1])
        cache = ResultCache(str(tmp_path))
        key = put_result(cache, kmeans_informed,
                         FlowJob("kmeans", "informed"))
        # entry fsync + directory fsync
        assert len(synced) >= 2
        assert cache.get(key) is not None

    def test_non_durable_put_never_fsyncs(
            self, tmp_path, kmeans_informed, monkeypatch):
        import repro.service.cache as cache_mod

        monkeypatch.delenv("REPRO_DURABLE", raising=False)
        monkeypatch.setattr(
            cache_mod.os, "fsync",
            lambda fd: (_ for _ in ()).throw(
                AssertionError("fsync outside REPRO_DURABLE=1")))
        cache = ResultCache(str(tmp_path))
        key = put_result(cache, kmeans_informed,
                         FlowJob("kmeans", "informed"))
        assert cache.get(key) is not None

    def test_crash_before_rename_leaves_no_entry(
            self, tmp_path, kmeans_informed, monkeypatch):
        """The torn-write crash point: the ``cache.fsync`` fault fires
        between the temp write and the rename -- the entry must be
        entirely absent, never half-visible."""
        import pytest

        from repro.resilience import faults
        from repro.resilience.faults import FaultPlan, InjectedFault

        monkeypatch.setenv("REPRO_DURABLE", "1")
        cache = ResultCache(str(tmp_path))
        job = FlowJob("kmeans", "informed")
        plan = FaultPlan(seed=0, rate=1.0, sites=("cache.fsync",),
                         max_faults=1)
        with faults.active_plan(plan):
            with pytest.raises(InjectedFault):
                put_result(cache, kmeans_informed, job)
        # nothing published, and the torn temp file was discarded
        assert cache.get(job.key()) is None
        leftovers = [name for _, _, files in os.walk(str(tmp_path))
                     for name in files]
        assert leftovers == []
        # the very next write (fault budget spent) publishes atomically
        key = put_result(cache, kmeans_informed, job)
        assert cache.get(key).app_name == "kmeans"


class TestEntryShape:
    def test_new_entries_carry_no_telemetry(self, tmp_path,
                                            kmeans_informed):
        cache = ResultCache(str(tmp_path))
        key = put_result(cache, kmeans_informed,
                         FlowJob("kmeans", "informed"))
        entry = cache.get_entry(key)
        assert "telemetry" not in entry
        assert set(entry) == {"format", "key", "job", "result", "crc32"}
