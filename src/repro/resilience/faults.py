"""Deterministic, seeded fault injection for chaos testing.

One process-global :class:`FaultPlan` decides, at each named *injection
site* (``inject("cache.read")``, ``inject("cache.write")``, ...),
whether that invocation fails.  The decision is a pure function of
``(seed, site, invocation index)`` -- a SHA-256 of the triple compared
against the configured rate -- so a chaos run replays the same fault
sequence every time the same code path executes the same number of
times, and two sites never correlate.

Off by default: with no plan installed :func:`inject` is one ``None``
check (the same null-object discipline as ``obs.span``), so production
hot paths pay nothing.  A plan is installed either via
:func:`install_plan` or the ``REPRO_FAULTS`` environment spec::

    REPRO_FAULTS="seed=7,rate=0.05"                    # all sites
    REPRO_FAULTS="seed=7,rate=0.1,sites=cache.read|cache.write"
    REPRO_FAULTS="seed=3,rate=0.2,max=10"              # stop after 10

The env path is how pool *worker processes* join a chaos run: they
inherit the variable and parse it at import time, so a storm covers
every process of a traced batch.

Sites wired through the stack (see README "Resilience"):

==================  ====================================================
``cache.read``      ResultCache entry treated as corrupt (quarantined)
``cache.write``     ResultCache.put fails (service skips the write)
``worker.crash``    pool worker hard-exits (BrokenProcessPool recovery)
``exec.compiled``   compiled engine faults (interpreter fallback,
                    counted in ``repro_exec_fallback_total``)
``profile.disk``    profile-cache disk tier read/write fails (miss)
``net.request``     HTTP request between fleet processes misbehaves
                    (:func:`inject_wire`: drop / delay / http_500 /
                    truncated, mode chosen from the same hash word)
``journal.write``   router journal append torn mid-record (the bytes
                    a crash mid-write leaves behind)
``cache.fsync``     durable fsync (cache entry or journal batch) fails
==================  ====================================================

Single-shot sites *raise* :class:`InjectedFault` from :func:`inject`.
The wire site is richer: :func:`inject_wire` returns one of
:data:`WIRE_MODES` (or None), and the transport call site acts it out
-- a drop never sends the request, a truncation sends it and then
loses the response (so the side effect may have happened: exactly the
ambiguity real networks have, which content-hash idempotency absorbs).
The mode comes from a different byte range of the same SHA-256 word
that decides firing, so one seed fixes the full (fire, mode) schedule.

Every fired fault increments ``repro_faults_injected_total{site=...}``
and attaches a ``fault.injected`` event to the current span, so chaos
assertions can check *every* injected fault is visible in telemetry.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
from typing import Dict, Iterable, Optional

from repro import obs

_FAULTS_TOTAL = obs.REGISTRY.counter(
    "repro_faults_injected_total",
    "deterministic faults fired by injection site",
    ("site",))

#: the sites this codebase currently threads ``inject`` through
KNOWN_SITES = (
    "cache.read", "cache.write", "worker.crash",
    "exec.compiled", "profile.disk",
    "net.request", "journal.write", "cache.fsync",
)

#: how a fired ``net.request`` fault manifests on the wire
WIRE_MODES = ("drop", "delay", "http_500", "truncated")


class InjectedFault(RuntimeError):
    """A fault fired by the active :class:`FaultPlan`."""

    def __init__(self, site: str, index: int, seed: int):
        super().__init__(
            f"injected fault at {site!r} (invocation {index}, "
            f"seed {seed})")
        self.site = site
        self.index = index
        self.seed = seed


class FaultPlan:
    """Seeded per-site fault schedule.

    ``rate`` is the per-invocation fire probability; ``sites`` limits
    injection to the named sites (None = every site); ``max_faults``
    caps the total number of fired faults (None = unbounded).
    """

    def __init__(self, seed: int = 0, rate: float = 0.05,
                 sites: Optional[Iterable[str]] = None,
                 max_faults: Optional[int] = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if max_faults is not None and max_faults < 0:
            raise ValueError(f"max must be >= 0, got {max_faults}")
        self.seed = int(seed)
        self.rate = float(rate)
        self.sites = frozenset(sites) if sites is not None else None
        self.max_faults = max_faults
        self.fired = 0
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _word(self, site: str, index: int) -> int:
        blob = f"{self.seed}:{site}:{index}".encode("utf-8")
        return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")

    def would_fire(self, site: str, index: int) -> bool:
        """The pure (seed, site, index) -> bool decision."""
        if self.rate <= 0.0:
            return False
        return self._word(site, index) / 2.0 ** 64 < self.rate

    def wire_mode(self, site: str, index: int) -> str:
        """The pure (seed, site, index) -> manifestation decision.

        Reads a different byte range of the hash word than
        :meth:`would_fire`, so the fire threshold and the mode choice
        are independent coordinates of one deterministic schedule.
        """
        return WIRE_MODES[(self._word(site, index) >> 16)
                          % len(WIRE_MODES)]

    def _count_and_decide(self, site: str) -> Optional[int]:
        """Count one invocation; the fired index, or None."""
        if self.sites is not None and site not in self.sites:
            return None
        with self._lock:
            index = self._counts.get(site, 0)
            self._counts[site] = index + 1
            if self.max_faults is not None \
                    and self.fired >= self.max_faults:
                return None
            if not self.would_fire(site, index):
                return None
            self.fired += 1
        return index

    def check(self, site: str) -> None:
        """Count one invocation of ``site``; raise when the plan fires."""
        index = self._count_and_decide(site)
        if index is None:
            return
        _FAULTS_TOTAL.inc(site=site)
        obs.event("fault.injected", site=site, index=index,
                  seed=self.seed)
        raise InjectedFault(site, index, self.seed)

    def check_wire(self, site: str) -> Optional[str]:
        """Count one invocation of ``site``; the wire mode if it fires
        (the call site acts the mode out), else None."""
        index = self._count_and_decide(site)
        if index is None:
            return None
        mode = self.wire_mode(site, index)
        _FAULTS_TOTAL.inc(site=site)
        obs.event("fault.injected", site=site, index=index,
                  seed=self.seed, mode=mode)
        return mode

    def counts(self) -> Dict[str, int]:
        """Invocations seen per site (testing/reporting)."""
        with self._lock:
            return dict(self._counts)

    # ------------------------------------------------------------------
    def spec(self) -> str:
        """The ``REPRO_FAULTS`` string reproducing this plan."""
        parts = [f"seed={self.seed}", f"rate={self.rate:g}"]
        if self.sites is not None:
            parts.append("sites=" + "|".join(sorted(self.sites)))
        if self.max_faults is not None:
            parts.append(f"max={self.max_faults}")
        return ",".join(parts)

    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        """Parse ``seed=7,rate=0.05,sites=a|b,max=100``."""
        kwargs: Dict[str, object] = {}
        for field in text.split(","):
            field = field.strip()
            if not field:
                continue
            if "=" not in field:
                raise ValueError(
                    f"REPRO_FAULTS field {field!r} is not key=value")
            name, _, value = field.partition("=")
            name = name.strip().lower()
            value = value.strip()
            if name == "seed":
                kwargs["seed"] = int(value)
            elif name == "rate":
                kwargs["rate"] = float(value)
            elif name == "sites":
                kwargs["sites"] = [s for s in value.split("|") if s]
            elif name == "max":
                kwargs["max_faults"] = int(value)
            else:
                raise ValueError(f"unknown REPRO_FAULTS key {name!r}")
        return cls(**kwargs)

    def __repr__(self):
        return f"<FaultPlan {self.spec()} fired={self.fired}>"


# -------------------------------------------------------------------------
# Process-global plan (null fast path when absent).
# -------------------------------------------------------------------------
_plan: Optional[FaultPlan] = None


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Make ``plan`` the process-global plan; returns it.

    ``install_plan(None)`` is :func:`clear_plan`.
    """
    global _plan
    _plan = plan
    return plan


def clear_plan() -> None:
    global _plan
    _plan = None


def current_plan() -> Optional[FaultPlan]:
    return _plan


def inject(site: str) -> None:
    """Fault-injection chokepoint; no-op unless a plan is installed."""
    if _plan is None:
        return
    _plan.check(site)


def inject_wire(site: str) -> Optional[str]:
    """Wire-fault chokepoint: the mode to act out, or None.

    Unlike :func:`inject` this never raises -- the transport call site
    owns the semantics (drop before the request, truncate after it),
    because *where* the failure lands relative to the side effect is
    the interesting part of a network fault.
    """
    if _plan is None:
        return None
    return _plan.check_wire(site)


class active_plan:
    """``with active_plan(FaultPlan(...)):`` -- scoped install (tests)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        self._previous = current_plan()
        install_plan(self.plan)
        return self.plan

    def __exit__(self, *exc):
        install_plan(self._previous)
        return False


def configure_from_env() -> Optional[FaultPlan]:
    """Install a plan from ``$REPRO_FAULTS`` (idempotent).

    A malformed spec is reported on stderr and ignored -- a typo in a
    chaos knob must not take down a production run.
    """
    spec = os.environ.get("REPRO_FAULTS") or None
    if spec is None or _plan is not None:
        return _plan
    try:
        return install_plan(FaultPlan.from_spec(spec))
    except (ValueError, TypeError) as exc:
        print(f"repro.resilience: ignoring malformed REPRO_FAULTS "
              f"{spec!r}: {exc}", file=sys.stderr)
        return None


configure_from_env()
