"""CacheBackend: concurrent writers, adoption hygiene, peer fetch.

The peer-fetch tests run against a *real* runner serving
``GET /v1/cache/{key}`` so the wire format, the one-hop rule and the
CRC re-verification on adoption are all exercised end to end.
"""

import json
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.client import ReproClient
from repro.config import ReproConfig
from repro.fleet.peers import PeerFetchCache
from repro.service.cache import (CACHE_FORMAT_VERSION, CacheBackend,
                                 ResultCache, entry_crc32)

KEY = "ab" * 32
SPEC = {"app": "kmeans", "mode": "informed"}
RESULT = {"app": "kmeans", "mode": "informed", "reference_time_s": 1.0,
          "designs": [], "selected_target": None}


def test_backends_satisfy_the_protocol(tmp_path):
    local = ResultCache(str(tmp_path))
    assert isinstance(local, CacheBackend)
    assert isinstance(PeerFetchCache(local, []), CacheBackend)


# ----------------------------------------------------------------------
# Concurrent access
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# Adoption (put_entry) hygiene
# ----------------------------------------------------------------------

def test_put_entry_round_trips_and_is_idempotent(tmp_path):
    src = ResultCache(str(tmp_path / "a"))
    dst = ResultCache(str(tmp_path / "b"))
    src.put(KEY, SPEC, RESULT)
    entry = src.get_entry(KEY)
    dst.put_entry(entry)
    dst.put_entry(entry)                # re-adoption is a no-op rewrite
    assert dst.get_entry(KEY) == entry


def test_put_entry_rejects_tampered_payloads(tmp_path):
    src = ResultCache(str(tmp_path / "a"))
    dst = ResultCache(str(tmp_path / "b"))
    src.put(KEY, SPEC, RESULT)
    entry = src.get_entry(KEY)

    flipped = dict(entry, result=dict(RESULT, reference_time_s=9.9))
    with pytest.raises(ValueError, match="crc32"):
        dst.put_entry(flipped)
    stale = dict(entry, format=CACHE_FORMAT_VERSION - 1)
    with pytest.raises(ValueError, match="format"):
        dst.put_entry(stale)
    with pytest.raises(ValueError):
        dst.put_entry({"format": CACHE_FORMAT_VERSION})   # no key
    with pytest.raises(ValueError):
        dst.put_entry("not a dict")
    assert dst.get_entry(KEY) is None   # nothing ever touched disk
    assert len(dst) == 0


# ----------------------------------------------------------------------
# Peer fetch over the wire
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def warm_runner(tmp_path_factory):
    """A live runner whose cache holds one finished kmeans flow."""
    from tests.fleet.conftest import LiveServer

    root = str(tmp_path_factory.mktemp("warm-cache"))
    server = LiveServer(port=0,
                        config=ReproConfig(cache_dir=root, workers=1))
    client = ReproClient(server.url, backoff_s=0.05)
    key = client.submit("kmeans", "informed")["id"]
    client.run_flow("kmeans", "informed")
    yield server, key, root
    server.stop()


def test_cache_endpoint_serves_local_entries(warm_runner):
    server, key, _ = warm_runner
    handle_client = ReproClient(server.url)
    status, entry, _ = handle_client._request_once(
        "GET", f"/v1/cache/{key}")
    assert status == 200
    assert entry["key"] == key
    assert entry["crc32"] == entry_crc32(entry)
    status, data, _ = handle_client._request_once(
        "GET", f"/v1/cache/{'f' * 64}")
    assert status == 404
    assert data["error"]["code"] == "not_found"


def test_healthz_reports_cache_stats_and_version(warm_runner):
    import repro

    server, _, _ = warm_runner
    health = ReproClient(server.url).health()
    assert health["version"] == repro.__version__
    cache = health["cache"]
    assert cache["entries"] >= 1 and cache["bytes"] > 0
    assert cache["quarantined"] == 0


def test_local_miss_fetches_and_adopts_from_peer(tmp_path, warm_runner):
    server, key, _ = warm_runner
    local = ResultCache(str(tmp_path))
    tier = PeerFetchCache(local, [server.url])
    entry = tier.get_entry(key)
    assert entry is not None and entry["key"] == key
    # adopted: now answerable strictly locally (the one-hop surface)
    assert local.get_entry(key) is not None
    assert tier.get_local_entry(key) is not None
    record = tier.get(key)
    assert record.app_name == "kmeans"


def test_peer_miss_returns_none_without_recursion(tmp_path, warm_runner):
    server, _, _ = warm_runner
    tier = PeerFetchCache(ResultCache(str(tmp_path)), [server.url])
    assert tier.get_entry("f" * 64) is None
    assert tier.get("f" * 64) is None


def test_corrupt_local_entry_quarantined_then_healed_by_peer(
        tmp_path, warm_runner):
    server, key, _ = warm_runner
    local = ResultCache(str(tmp_path))
    tier = PeerFetchCache(local, [server.url])
    # plant a bit-flipped copy of the entry locally
    good = tier.get_entry(key)
    bad = dict(good, result=dict(good["result"], reference_time_s=66.6))
    path = local._path(key)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bad, fh)              # crc32 now wrong for the body
    # the read detects the damage, quarantines, then heals from the peer
    entry = tier.get_entry(key)
    assert entry == good
    assert local.stats.corrupt == 1
    assert len(list(local.quarantined())) == 1
    assert local.get_entry(key) == good


def test_corrupt_peer_payload_is_never_adopted(tmp_path, warm_runner):
    server, key, root = warm_runner
    # corrupt the *peer's* on-disk entry out from under its server;
    # bypass its verified read path by rewriting the file directly
    peer_path = os.path.join(root, key[:2], f"{key}.json")
    with open(peer_path, "r", encoding="utf-8") as fh:
        good = json.load(fh)
    with open(peer_path, "w", encoding="utf-8") as fh:
        json.dump(dict(good, crc32=(good["crc32"] + 1) & 0xFFFFFFFF), fh)
    try:
        local = ResultCache(str(tmp_path))
        tier = PeerFetchCache(local, [server.url])
        # the peer's own read path quarantines before serving, so the
        # fetch is a miss -- and the local store stays empty either way
        assert tier.get_entry(key) is None
        assert local.get_entry(key) is None
        assert len(local) == 0
    finally:
        os.makedirs(os.path.dirname(peer_path), exist_ok=True)
        with open(peer_path, "w", encoding="utf-8") as fh:
            json.dump(good, fh)


# ----------------------------------------------------------------------
# A stalled peer
# ----------------------------------------------------------------------

@pytest.fixture
def stalled_peer():
    """A peer that accepts connections (in the listen backlog) and never
    answers, like a SIGSTOPped runner."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(16)
    yield f"http://127.0.0.1:{sock.getsockname()[1]}"
    sock.close()


def test_timed_out_peer_is_skipped_for_a_cooldown(tmp_path, stalled_peer):
    tier = PeerFetchCache(ResultCache(str(tmp_path)), [stalled_peer],
                          timeout_s=0.3)
    started = time.monotonic()
    assert tier.get_entry("a" * 64) is None
    assert time.monotonic() - started >= 0.3
    started = time.monotonic()
    assert tier.get_entry("b" * 64) is None
    assert time.monotonic() - started < 0.2


def test_peer_fetch_does_not_block_lookups_of_held_keys(
        tmp_path, stalled_peer, monkeypatch):
    from repro.service import DesignService

    local = ResultCache(str(tmp_path))
    tier = PeerFetchCache(local, [stalled_peer], timeout_s=3.0)
    with DesignService(cache=tier) as service:
        held, missing = (service.job_for("kmeans", "informed"),
                         service.job_for("nbody", "informed"))
        local.put(held.key(), held.spec(), RESULT)

        fetching = threading.Event()
        fetch_one = tier._fetch_one

        def announced_fetch(peer, key):
            fetching.set()
            return fetch_one(peer, key)

        monkeypatch.setattr(tier, "_fetch_one", announced_fetch)
        miss = threading.Thread(target=service.lookup, args=(missing,))
        miss.start()
        try:
            assert fetching.wait(5.0)
            started = time.monotonic()
            hit = service.lookup(held)
            assert time.monotonic() - started < 1.0
            assert hit is not None and hit.source == "cache-disk"
        finally:
            miss.join()
