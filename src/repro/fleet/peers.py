"""Peer-fetch cache tier: fill local misses from fleet peers.

:class:`PeerFetchCache` is a :class:`~repro.service.cache.CacheBackend`
wrapping the node's local :class:`~repro.service.cache.ResultCache`.
On a local miss it asks peer runners for the completed entry over
``GET /v1/cache/{key}`` on kept-alive connections -- shard owner first,
in the fleet's shared :class:`~repro.fleet.hashring.HashRing`
preference order -- and adopts
a hit into the local store through
:meth:`~repro.service.cache.ResultCache.put_entry`, which re-verifies
the format version and CRC32.  A peer can therefore never poison the
local cache: a corrupt or stale payload is dropped and the next peer
(or a recompute) takes over.

Peers serve ``/v1/cache/{key}`` strictly from *their* local store
(:meth:`get_local_entry`), so two nodes missing the same key fetch at
most one hop and never loop.

Writes are purely local -- the fabric has no replication protocol.
Consistency comes from content addressing: every node computing the
same key writes byte-identical entries, so fetch-vs-recompute races
are idempotent.
"""

from __future__ import annotations

import json
import logging
import socket
import time
import urllib.error
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro import obs
from repro.fleet.hashring import HashRing
from repro.flow.serialize import FlowResultRecord, result_from_dict
from repro.server.http import ConnectionPool
from repro.service.cache import CacheStats, ResultCache

logger = logging.getLogger(__name__)

_PEER_FETCH_TOTAL = obs.REGISTRY.counter(
    "repro_fleet_peer_fetch_total",
    "peer cache-fetch attempts by outcome",
    ("outcome",))

#: seconds a peer whose fetch timed out is skipped: a stalled peer
#: costs one timeout, not one per local miss
PEER_TIMEOUT_COOLDOWN_S = 30.0


class PeerFetchCache:
    """Local disk cache with read-through to fleet peers."""

    def __init__(self, local: ResultCache, peers: Iterable[str],
                 timeout_s: float = 5.0,
                 ring: Optional[HashRing] = None):
        self.local = local
        self.peers: List[str] = [p.rstrip("/") for p in peers]
        self.timeout_s = timeout_s
        self.ring = ring or HashRing(self.peers)
        #: kept-alive connections to the peers, shared by every fetch
        self._pool = ConnectionPool()
        # peer -> monotonic time until which it is skipped; unlocked,
        # since a race costs at most one more timeout
        self._cooling: Dict[str, float] = {}

    # -- CacheBackend surface (delegating writes/identity to local) ----
    @property
    def root(self) -> str:
        return self.local.root

    @property
    def stats(self) -> CacheStats:
        return self.local.stats

    def put(self, key: str, job_spec: Dict[str, Any],
            result_dict: Dict[str, Any]) -> str:
        return self.local.put(key, job_spec, result_dict)

    def put_entry(self, entry: Dict[str, Any]) -> str:
        return self.local.put_entry(entry)

    def get_local_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """Strictly local lookup -- what this node serves to peers."""
        return self.local.get_local_entry(key)

    # ------------------------------------------------------------------
    def get_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """Local entry, else the first verifiable peer copy (adopted)."""
        entry = self.local.get_entry(key)
        if entry is not None:
            return entry
        return self._fetch_from_peers(key)

    def get(self, key: str) -> Optional[FlowResultRecord]:
        entry = self.get_entry(key)
        if entry is None:
            return None
        return result_from_dict(entry["result"])

    # ------------------------------------------------------------------
    def _fetch_from_peers(self, key: str) -> Optional[Dict[str, Any]]:
        for peer in self.ring.preference(key):
            if self._cooling.get(peer, 0.0) > time.monotonic():
                _PEER_FETCH_TOTAL.inc(outcome="skipped")
                continue
            entry = self._fetch_one(peer, key)
            if entry is not None:
                return entry
        return None

    def _fetch_one(self, peer: str,
                   key: str) -> Optional[Dict[str, Any]]:
        try:
            status, raw, _ = self._pool.exchange(
                peer, "GET", f"/v1/cache/{key}", timeout_s=self.timeout_s)
            entry = (json.loads(raw.decode("utf-8")) if status == 200
                     else None)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            _PEER_FETCH_TOTAL.inc(outcome="error")
            if isinstance(getattr(exc, "reason", exc),
                          (socket.timeout, TimeoutError)):
                self._cooling[peer] = (time.monotonic()
                                       + PEER_TIMEOUT_COOLDOWN_S)
            logger.debug("peer fetch %s from %s failed: %s",
                         key[:12], peer, exc)
            return None
        if entry is None:
            _PEER_FETCH_TOTAL.inc(outcome="miss" if status == 404
                                  else "error")
            return None
        try:
            # adoption re-verifies format + CRC before touching disk
            self.local.put_entry(entry)
        except (ValueError, OSError) as exc:
            _PEER_FETCH_TOTAL.inc(outcome="invalid")
            logger.warning("peer %s served unusable entry for %s: %s",
                           peer, key[:12], exc)
            return None
        _PEER_FETCH_TOTAL.inc(outcome="hit")
        obs.event("fleet.peer_fetch", key=key[:12], peer=peer)
        return entry

    # -- remaining ResultCache conveniences ----------------------------
    def quarantined(self) -> Iterator[str]:
        return self.local.quarantined()

    def keys(self) -> Iterator[str]:
        return self.local.keys()

    def size_bytes(self) -> int:
        return self.local.size_bytes()

    def purge(self) -> int:
        return self.local.purge()

    def __len__(self) -> int:
        return len(self.local)

    def __repr__(self):
        return (f"<PeerFetchCache {self.local.root} "
                f"peers={len(self.peers)}>")
