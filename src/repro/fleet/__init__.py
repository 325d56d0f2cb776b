"""repro.fleet -- the multi-node job fabric.

Scales the design-generation service past one process by fanning
``/v1`` jobs across N runner nodes (each a ``python -m repro serve``
instance), with a shared-nothing cache tier stitched together over
HTTP:

- :mod:`repro.fleet.hashring` -- consistent hashing from job content
  hash to shard-owner runner, stable under node churn;
- :mod:`repro.fleet.runner` -- :class:`RunnerHandle` (the router's
  view of one node: health probe, version, drain and restart state,
  in-flight accounting) and :class:`RunnerProcess` (a supervised local
  ``repro serve`` subprocess for benchmarks, chaos tests and CI);
- :mod:`repro.fleet.peers` -- :class:`PeerFetchCache`, a
  :class:`~repro.service.cache.CacheBackend` that fills local misses
  from the shard owner's ``/v1/cache/{key}`` before recomputing;
- :mod:`repro.fleet.router` -- :class:`FleetRouter`, the front door:
  shard routing with work stealing, node-loss re-routing that never
  consumes job retries, a fleet admission breaker, aggregated
  ``/healthz`` and router-side ``repro_fleet_*`` metrics;
- :mod:`repro.fleet.durable` -- the placement table's one reducer
  :func:`apply_record` (live router, replay, standbys and tests all
  fold through it) and pure recovery core, :class:`RouterJournal`
  (its crash-consistent write-ahead journal) and :class:`LeaseFile`.

Start a fleet on localhost, with a durable control plane::

    python -m repro serve --port 8001 &
    python -m repro serve --port 8002 &
    python -m repro router --port 8000 --journal-dir .journal \\
        --runners http://127.0.0.1:8001,http://127.0.0.1:8002 &
    python -m repro router --port 8010 --journal-dir .journal \\
        --runners http://127.0.0.1:8001,http://127.0.0.1:8002 \\
        --standby-of http://127.0.0.1:8000

Clients keep using :class:`repro.client.ReproClient` unchanged -- the
router speaks the same ``/v1`` wire schema as a single runner, and the
client accepts ``"http://primary,http://standby"`` endpoint lists for
connect-error failover.
"""

from repro.fleet.durable import (
    FencedOut, LeaseFile, RouterJournal, apply_record,
)
from repro.fleet.hashring import HashRing
from repro.fleet.peers import PeerFetchCache
from repro.fleet.router import FleetRouter
from repro.fleet.runner import RouterProcess, RunnerHandle, RunnerProcess

__all__ = [
    "FencedOut", "FleetRouter", "HashRing", "LeaseFile",
    "PeerFetchCache", "RouterJournal", "RouterProcess", "RunnerHandle",
    "RunnerProcess", "apply_record",
]
