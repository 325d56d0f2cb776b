"""Persistent content-addressed store of flow results.

Layout: one JSON file per job key under ``<root>/<key[:2]>/<key>.json``
(two-level fan-out keeps directories small at fleet scale), each
holding::

    {"format": CACHE_FORMAT_VERSION,
     "key": "<sha256>",
     "job": {...job spec...},
     "result": {...flow.serialize.result_to_dict(..., sources=True)...},
     "crc32": <checksum of the canonical entry body>}

Entries written before the ``"telemetry"`` span dump was dropped still
carry that key; it is covered by the CRC like any other field, so they
verify and hit unchanged.

Keys are the :meth:`FlowJob.key` content hashes, which already include
the format version and the app source hash -- so *semantic* staleness
never resolves to an existing file.  The ``format`` field inside the
file guards the other direction: an old process reading a newer (or a
newer process reading an older) entry detects the mismatch, deletes
the file and reports a miss (`stats.invalidated`).

Integrity is separate from staleness.  Every entry carries a CRC32 of
its canonical body, verified on read; a truncated, bit-flipped or
otherwise unreadable entry is **quarantined** -- moved to a
``.quarantine/`` sibling directory (evidence kept for diagnosis, never
silently deleted), logged with the offending path, and counted in
``stats.corrupt`` and ``repro_cache_corrupt_total{reason=...}`` --
then reported as a miss so the caller re-runs and re-caches.

Writes are atomic (temp file + ``os.replace``) so a parallel reader
never sees a half-written entry.  With ``REPRO_DURABLE=1`` each write
additionally fsyncs the temp file *before* the rename (and the
directory after), upgrading "no torn entry visible" to "no committed
entry lost on power failure" -- the same knob that puts the router
journal into fsync mode.  The ``cache.read`` / ``cache.write`` /
``cache.fsync`` fault-injection sites let chaos tests drive the
corruption and write-failure paths deterministically
(:mod:`repro.resilience.faults`).
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

try:                                    # py3.8+: typing.Protocol
    from typing import Protocol, runtime_checkable
except ImportError:                     # pragma: no cover - ancient py
    Protocol = object

    def runtime_checkable(cls):
        return cls

from repro import obs
from repro.flow.serialize import FlowResultRecord, result_from_dict
from repro.resilience import faults

#: bump when the serialized result schema or flow semantics change
#: (2: entries carry a ``crc32`` integrity checksum)
CACHE_FORMAT_VERSION = 2


def _durable() -> bool:
    """``REPRO_DURABLE=1``: fsync writes (checked per call so tests
    and long-lived services can flip it without re-importing)."""
    return os.environ.get("REPRO_DURABLE", "").strip() == "1"


def _fsync_handle(fh) -> None:
    """Push ``fh`` to stable storage (the ``cache.fsync`` fault site)."""
    faults.inject("cache.fsync")
    fh.flush()
    os.fsync(fh.fileno())


def _fsync_dirname(path: str) -> None:
    try:
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)

#: sibling directory corrupt entries are moved into (never a key shard:
#: :meth:`ResultCache.keys` skips dot-directories)
QUARANTINE_DIRNAME = ".quarantine"

logger = logging.getLogger(__name__)

_CORRUPT_TOTAL = obs.REGISTRY.counter(
    "repro_cache_corrupt_total",
    "result-cache entries quarantined on failed read verification",
    ("reason",))


def entry_crc32(entry: Dict[str, Any]) -> int:
    """Checksum of the canonical JSON body, ``crc32`` field excluded."""
    body = {k: v for k, v in entry.items() if k != "crc32"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalidated: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@runtime_checkable
class CacheBackend(Protocol):
    """What :class:`~repro.service.core.DesignService` needs from a
    result store.

    :class:`ResultCache` is the default (CRC-verified disk) backend;
    :class:`repro.fleet.peers.PeerFetchCache` wraps one to consult
    shard-owner nodes on a local miss.  Implementations must keep
    :meth:`put` atomic with respect to concurrent readers, and two
    concurrent :meth:`put` calls for the same key must converge on one
    valid entry (content-hash keys make the writes byte-identical, so
    last-write-wins is idempotent).
    """

    stats: CacheStats

    def get(self, key: str) -> Optional[FlowResultRecord]:
        """Deserialized result for ``key``, or None on miss."""
        ...

    def get_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """The raw, integrity-verified entry dict, or None."""
        ...

    def put(self, key: str, job_spec: Dict[str, Any],
            result_dict: Dict[str, Any]) -> str:
        """Persist one computed result; returns a storage locator."""
        ...


class ResultCache:
    """Disk-backed result store keyed by job content hash."""

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """The raw cache entry dict, or None on miss/invalidation."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            faults.inject("cache.read")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except faults.InjectedFault as exc:
            return self._corrupt_miss(path, "injected", exc)
        except json.JSONDecodeError as exc:
            return self._corrupt_miss(path, "json", exc)
        except OSError as exc:
            return self._corrupt_miss(path, "os", exc)
        if entry.get("format") != CACHE_FORMAT_VERSION:
            # stale schema, not damage: no evidence worth keeping
            self._discard(path)
            self.stats.invalidated += 1
            self.stats.misses += 1
            return None
        if entry.get("crc32") != entry_crc32(entry):
            return self._corrupt_miss(
                path, "crc",
                ValueError(f"crc32 mismatch (stored "
                           f"{entry.get('crc32')!r})"))
        self.stats.hits += 1
        return entry

    def get(self, key: str) -> Optional[FlowResultRecord]:
        """Deserialized flow result for ``key``, or None on miss."""
        entry = self.get_entry(key)
        if entry is None:
            return None
        return result_from_dict(entry["result"])

    def put(self, key: str, job_spec: Dict[str, Any],
            result_dict: Dict[str, Any]) -> str:
        """Atomically persist one result; returns the file path."""
        faults.inject("cache.write")
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "job": job_spec,
            "result": result_dict,
        }
        entry["crc32"] = entry_crc32(entry)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
                if _durable():
                    # sync BEFORE the rename: a crash between the two
                    # leaves either no entry or a complete one, never
                    # a renamed-but-empty file after power loss
                    _fsync_handle(fh)
            os.replace(tmp, path)
            if _durable():
                _fsync_dirname(path)
        except BaseException:
            self._discard(tmp)
            raise
        self.stats.writes += 1
        return path

    def get_local_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get_entry` but never consults peers.

        The peer-serving HTTP endpoint reads through this so two nodes
        missing the same key can never chase each other in a fetch
        loop.  For the plain disk cache it *is* ``get_entry``.
        """
        return self.get_entry(key)

    def put_entry(self, entry: Dict[str, Any]) -> str:
        """Adopt a complete entry produced elsewhere (peer fetch).

        The entry is verified exactly like a read -- format version and
        CRC32 -- before it touches disk, so a corrupt or stale payload
        from a peer can never poison the local store.  Re-adopting an
        entry that already exists is idempotent (atomic replace with
        byte-identical content).
        """
        if not isinstance(entry, dict) or not entry.get("key"):
            raise ValueError("cache entry must be a dict with a 'key'")
        if entry.get("format") != CACHE_FORMAT_VERSION:
            raise ValueError(
                f"cache entry format {entry.get('format')!r} != "
                f"{CACHE_FORMAT_VERSION}")
        if entry.get("crc32") != entry_crc32(entry):
            raise ValueError(
                f"cache entry crc32 mismatch (stored "
                f"{entry.get('crc32')!r})")
        path = self._path(entry["key"])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
                if _durable():
                    _fsync_handle(fh)
            os.replace(tmp, path)
            if _durable():
                _fsync_dirname(path)
        except BaseException:
            self._discard(tmp)
            raise
        self.stats.writes += 1
        return path

    # ------------------------------------------------------------------
    def _corrupt_miss(self, path: str, reason: str,
                      exc: BaseException) -> None:
        """Quarantine a damaged entry and account it as a miss."""
        moved = self._quarantine(path)
        logger.warning(
            "result cache: corrupt entry at %s (%s: %s); %s",
            path, reason, exc,
            f"quarantined to {moved}" if moved else "could not move it")
        self.stats.corrupt += 1
        self.stats.misses += 1
        _CORRUPT_TOTAL.inc(reason=reason)
        obs.event("cache.corrupt", path=path, reason=reason)
        return None

    def _quarantine(self, path: str) -> Optional[str]:
        """Move ``path`` under ``.quarantine/``; None when impossible."""
        dest_dir = os.path.join(self.root, QUARANTINE_DIRNAME)
        dest = os.path.join(dest_dir, os.path.basename(path))
        try:
            os.makedirs(dest_dir, exist_ok=True)
            os.replace(path, dest)
            return dest
        except OSError:
            return None

    def quarantined(self) -> Iterator[str]:
        """Paths of quarantined entry files, sorted."""
        dest_dir = os.path.join(self.root, QUARANTINE_DIRNAME)
        try:
            names = sorted(os.listdir(dest_dir))
        except OSError:
            return
        for name in names:
            yield os.path.join(dest_dir, name)

    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            # dot-dirs are service state (.quarantine, .deadletter),
            # not key shards
            if shard.startswith(".") or not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    yield name[:-len(".json")]

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Every readable entry (does not touch hit/miss stats)."""
        for key in self.keys():
            try:
                with open(self._path(key), "r", encoding="utf-8") as fh:
                    yield json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue

    def size_bytes(self) -> int:
        total = 0
        for key in self.keys():
            try:
                total += os.path.getsize(self._path(key))
            except OSError:
                pass
        return total

    def purge(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for key in list(self.keys()):
            self._discard(self._path(key))
            removed += 1
        return removed

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __repr__(self):
        return (f"<ResultCache {self.root} entries={len(self)} "
                f"hits={self.stats.hits} misses={self.stats.misses}>")
