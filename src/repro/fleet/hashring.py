"""Consistent hashing: job content hash -> shard-owner runner.

A classic hash ring with virtual nodes: each runner URL is hashed onto
the ring at ``replicas`` points, and a job key's owner is the first
ring point clockwise from the key's own hash.  Two properties matter
to the fleet:

- **stability** -- adding or removing one runner re-assigns only the
  ~1/N keys adjacent to its ring points, so a node restart does not
  reshuffle the whole placement (and with it every warm cache);
- **determinism** -- the mapping depends only on the member URLs, so
  the router, a rebooted router, and any peer-fetching runner all
  compute the same owner for a key without coordination.

Keys and nodes are hashed with sha256 (the job keys already *are*
sha256 hex, but re-hashing keeps arbitrary strings uniform).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

#: virtual nodes per member: keeps the per-node share within a few
#: percent of 1/N for small fleets without bloating ring rebuilds
DEFAULT_REPLICAS = 64


def _point(value: str) -> int:
    return int.from_bytes(
        hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring over runner URLs (or any string ids)."""

    def __init__(self, nodes: Iterable[str] = (),
                 replicas: int = DEFAULT_REPLICAS):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._nodes: List[str] = []
        self._points: List[Tuple[int, str]] = []
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.append(node)
        for i in range(self.replicas):
            bisect.insort(self._points, (_point(f"{node}#{i}"), node))

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.remove(node)
        self._points = [(p, n) for p, n in self._points if n != node]

    # ------------------------------------------------------------------
    def owner(self, key: str,
              exclude: Iterable[str] = ()) -> Optional[str]:
        """The node owning ``key``, skipping ``exclude`` members.

        With every member excluded (or an empty ring) returns None.
        """
        for node in self.preference(key):
            if node not in exclude:
                return node
        return None

    def preference(self, key: str) -> List[str]:
        """All nodes in fail-over order for ``key`` (owner first).

        Walking clockwise from the key's hash yields a deterministic
        ordering every fleet member agrees on -- the peer-fetch tier
        tries owners in exactly this order.
        """
        if not self._points:
            return []
        start = bisect.bisect(self._points, (_point(key), ""))
        seen: Dict[str, None] = {}
        count = len(self._points)
        for i in range(count):
            node = self._points[(start + i) % count][1]
            if node not in seen:
                seen[node] = None
                if len(seen) == len(self._nodes):
                    break
        return list(seen)

    def __repr__(self):
        return (f"<HashRing nodes={len(self._nodes)} "
                f"replicas={self.replicas}>")


def pick_target(ring: HashRing, loads: Dict[str, int], key: str,
                steal_threshold: int
                ) -> Tuple[Optional[str], Optional[str]]:
    """Where to place ``key`` among ``loads`` (candidate -> in-flight).

    The shard owner takes it unless its load is at or past
    ``steal_threshold``; then the least-loaded candidate (first on
    ties) steals it.  Returns ``(target, owner)``; ``target != owner``
    is a steal, ``(None, None)`` means no candidate.
    """
    if not loads:
        return None, None
    owner = ring.owner(key, exclude={n for n in ring.nodes
                                     if n not in loads})
    lightest = min(loads, key=loads.get)
    if owner is None:
        return lightest, None
    if loads[owner] >= steal_threshold:
        return lightest, owner
    return owner, owner
