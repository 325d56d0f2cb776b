"""ResultCache under concurrency, and as the service and a runner see it.

Concurrent writers of one key converge on one valid entry, readers
never see a partial one, a runner's ``/healthz`` reports the cache,
and a slow cache read never blocks lookups of keys the service holds.
"""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import repro
from repro.client import ReproClient
from repro.config import ReproConfig
from repro.service import DesignService
from repro.service.cache import ResultCache, entry_crc32
from tests.server.conftest import LiveServer

KEY = "ab" * 32
SPEC = {"app": "kmeans", "mode": "informed"}
RESULT = {"app": "kmeans", "mode": "informed", "reference_time_s": 1.0,
          "designs": [], "selected_target": None}


def test_concurrent_same_key_puts_converge(tmp_path):
    cache = ResultCache(str(tmp_path))

    def write(_):
        return cache.put(KEY, SPEC, RESULT)

    with ThreadPoolExecutor(max_workers=8) as pool:
        paths = list(pool.map(write, range(32)))
    assert len(set(paths)) == 1         # everyone lands on one file
    assert len(cache) == 1
    entry = cache.get_entry(KEY)
    assert entry is not None and entry["crc32"] == entry_crc32(entry)
    assert cache.stats.writes == 32 and cache.stats.corrupt == 0
    # atomic replace leaves no temp droppings behind
    shard = os.path.dirname(cache._path(KEY))
    assert not [n for n in os.listdir(shard) if n.startswith(".tmp-")]


def test_concurrent_readers_never_see_partial_entries(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(KEY, SPEC, RESULT)

    def churn(i):
        if i % 2:
            cache.put(KEY, SPEC, RESULT)
            return None
        return cache.get_entry(KEY)

    with ThreadPoolExecutor(max_workers=8) as pool:
        reads = [r for r in pool.map(churn, range(64)) if r is not None]
    assert reads and all(r["key"] == KEY for r in reads)
    assert cache.stats.corrupt == 0


def test_healthz_reports_cache_stats_and_version(tmp_path):
    root = str(tmp_path / "cache")
    ResultCache(root).put(KEY, SPEC, RESULT)
    server = LiveServer(port=0,
                        config=ReproConfig(cache_dir=root, workers=1))
    try:
        health = ReproClient(server.url).health()
    finally:
        server.stop()
    assert health["version"] == repro.__version__
    cache = health["cache"]
    assert cache["entries"] >= 1 and cache["bytes"] > 0
    assert cache["quarantined"] == 0


def test_slow_cache_read_does_not_block_lookups_of_held_keys(
        tmp_path, monkeypatch):
    with DesignService(cache_dir=str(tmp_path)) as service:
        held, missing = (service.job_for("kmeans", "informed"),
                         service.job_for("nbody", "informed"))
        service.cache.put(held.key(), held.spec(), RESULT)

        reading, release = threading.Event(), threading.Event()
        read = service.cache.get

        def slow_get(key):
            if key == missing.key():
                reading.set()
                release.wait(5.0)
            return read(key)

        monkeypatch.setattr(service.cache, "get", slow_get)
        miss = threading.Thread(target=service.lookup, args=(missing,))
        miss.start()
        try:
            assert reading.wait(5.0)
            started = time.monotonic()
            hit = service.lookup(held)
            assert time.monotonic() - started < 1.0
            assert hit is not None and hit.source == "cache-disk"
        finally:
            release.set()
            miss.join()
