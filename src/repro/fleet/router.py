"""The fleet front door: shard, steal, survive node loss.

:class:`FleetRouter` speaks the same ``/v1`` wire schema as a single
``python -m repro serve`` node, so :class:`repro.client.ReproClient`
needs no changes -- it just points at the router.  Behind the facade:

**Sharding.**  ``POST /v1/jobs`` routes by the job's content hash on a
consistent :class:`~repro.fleet.hashring.HashRing` over the *routable*
runners, so identical specs land on the same node (its cache and
in-flight dedup absorb them) and a node restart only reshuffles its
own shard.

**Work stealing.**  When the shard owner's router-side queue depth
(:meth:`RunnerHandle.load`) is at or past ``steal_threshold``, the job
is placed on the least-loaded routable runner instead -- hash affinity
is a cache optimization, not a correctness constraint, because results
are content-addressed and the peer-fetch tier heals misplacement.

**Node-loss recovery.**  A dead runner (forward error, failed probes)
or one that lost its memory (restart answering 404) gets its in-flight
jobs *resubmitted* to survivors with their full retry budget; content-
hash idempotency makes that safe (a finished job resolves from cache
or dedup, never runs twice).  One forward per key runs at a time, so
the probe loop and a status read never re-route one job twice.

**Admission breaker.**  Zero routable runners strikes the fleet
breaker and sheds with ``503 unavailable``; once open, the breaker
sheds with ``429 overloaded`` until its cooldown, mirroring the
single-node service's admission semantics.

The probe loop re-admits recovered runners automatically, and rejects
runners whose ``/healthz`` ``version`` differs from the router's
(mixed-version fleets corrupt cache-entry compatibility assumptions).

**One placement table.**  ``Dict[str, dict]`` in the exact entry
shape of :func:`~repro.fleet.durable.apply_record`; :meth:`_commit` is
the only way it changes (with ``journal_dir``, journal the record
*before* the client hears of it; then fold it), and every runner's
in-flight count is derived from it: an undone entry counts against its
runner, an open forward against its target.  A restarted primary serves the table its journal
replays, reconciled by :func:`~repro.fleet.durable.plan_recovery`; a
**warm standby** (``standby_of``) folds the primary's journal tail
into its own table and takes over after ``takeover_after`` missed
tails, behind the lease's fencing token (the stale primary's next
append raises ``FencedOut``).  ``role`` moves ``standby -> recovering
-> primary -> fenced`` and only ``primary`` serves job traffic, so no
request sees a half-reconciled table.  See DESIGN.md §18.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import urllib.error
import urllib.parse
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Tuple

import repro
from repro import obs
from repro.fleet.durable import (
    FencedOut, RouterJournal, apply_record, holder, inflight_counts,
    orphans, plan_recovery,
)
from repro.fleet.hashring import HashRing, pick_target
from repro.fleet.runner import RunnerHandle
from repro.resilience import CircuitBreaker, faults
from repro.server import protocol
from repro.server.http import JSON_TYPE, HttpServerBase, decode_reply
from repro.server.protocol import JobNotFound, ServerError

log = logging.getLogger("repro.fleet.router")

#: forward statuses that mean "this runner refused, try another"
_REFUSAL_CODES = ("busy", "overloaded", "unavailable")


#: why each non-serving role sheds job traffic (a retryable 503: the
#: client's endpoint rotation lands the request on the serving node)
_SHED = {
    "standby": "standby router (tailing {primary}); not serving jobs "
               "until takeover",
    "recovering": "router taking over; recovering journaled placements",
    "fenced": "router fenced out by a newer primary; use the standby "
              "endpoint",
}


class FleetRouter(HttpServerBase):
    """Shards ``/v1`` traffic across N runner nodes."""

    route_prefix = "fleet."

    def __init__(self, runners: Iterable[str],
                 host: str = "127.0.0.1", port: int = 8000,
                 steal_threshold: int = 4,
                 probe_interval_s: float = 2.0,
                 expected_version: Optional[str] = None,
                 forward_timeout_s: float = 60.0,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 5.0,
                 obs_buffer: int = 4096,
                 journal: Optional[RouterJournal] = None,
                 journal_dir: Optional[str] = None,
                 node_name: Optional[str] = None,
                 standby_of: Optional[str] = None,
                 takeover_after: int = 3,
                 tail_interval_s: float = 0.5):
        # the router's own spans land in span_buffer (on by default --
        # a router serves few requests and every one should trace)
        super().__init__(obs_buffer)
        urls = [u.rstrip("/") for u in runners]
        if not urls:
            raise ValueError("a fleet router needs at least one runner")
        self.host = host
        self.port = port
        #: standby -> recovering -> primary -> fenced; ``recovering``
        #: journals as primary while it reconciles the table, and only
        #: ``primary`` serves job traffic
        self.role = "standby" if standby_of else "recovering"
        self.node_name = node_name or ("standby" if standby_of
                                       else "primary")
        self.journal = journal
        if self.journal is None and journal_dir:
            self.journal = RouterJournal(journal_dir,
                                         name=self.node_name)
        self.takeover_after = max(1, int(takeover_after))
        self.tail_interval_s = tail_interval_s
        self._primary = (RunnerHandle(standby_of) if standby_of
                         else None)
        self._tail_cursor = 0
        self._tail_failures = 0
        self._tail_task: Optional[asyncio.Task] = None
        self.steal_threshold = steal_threshold
        self.probe_interval_s = probe_interval_s
        self.forward_timeout_s = forward_timeout_s
        #: runners must match this version exactly (None disables)
        self.expected_version = (repro.__version__
                                 if expected_version is None
                                 else expected_version) or None
        self.handles: Dict[str, RunnerHandle] = {
            url: RunnerHandle(url) for url in urls}
        self.ring = HashRing(urls)
        self.breaker = CircuitBreaker(
            "fleet.admission", failure_threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s)
        self.draining = False
        # the router's spans and the runner spans the probe loop pulls
        # stitch per trace id here
        self.trace_store = obs.TraceStore()
        self._own_cursor = 0          # drain cursor into span_buffer
        #: the placement table: changed only by :meth:`_commit` /
        #: :meth:`_fold`, replaced only by :meth:`_reset`
        self._placements: Dict[str, Dict[str, Any]] = {}
        #: key -> target of its forward POST on the wire
        self._open: Dict[str, str] = {}
        #: key -> future resolved when its current forward ends
        self._forwarding: Dict[str, asyncio.Future] = {}
        self._probe_task: Optional[asyncio.Task] = None
        # blocking forwards run here, never on the loop; sized
        # past the runner count so probes can't starve forwards
        self._executor = ThreadPoolExecutor(
            max_workers=max(8, 2 * len(urls) + 2),
            thread_name_prefix="fleet-fwd")
        reg = obs.REGISTRY
        self._m_shard = reg.counter(
            "repro_fleet_shard_jobs_total",
            "jobs placed on a runner by the router", ("runner",))
        self._m_steals = reg.counter(
            "repro_fleet_steals_total", "jobs placed off-owner because "
            "the owner was overloaded", ("runner",))
        self._m_reroutes = reg.counter(
            "repro_fleet_reroutes_total",
            "jobs moved between runners after placement", ("reason",))
        self._m_inflight = reg.gauge(
            "repro_fleet_runner_inflight",
            "router-tracked jobs in flight per runner", ("runner",))
        self._m_healthy = reg.gauge(
            "repro_fleet_runners_healthy", "routable runner count")
        self._m_failovers = reg.counter(
            "repro_fleet_failovers_total",
            "standby-to-primary takeovers on this node")
        self._m_readopts = reg.counter(
            "repro_fleet_readopts_total",
            "placements rebuilt by scatter-asking the runners (a "
            "journal record was torn or never written)")
        self._m_lease_term = reg.gauge(
            "repro_fleet_lease_term",
            "last fencing-lease term this router observed")
        for url in urls:
            self._m_inflight.set(0, runner=url)
        self._m_healthy.set(0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def _prepare(self) -> None:
        """Replay the journal and recover (a primary) before binding.

        A primary reconciles its table *before* the socket binds; a
        standby binds at once (it sheds job traffic anyway) and runs
        the tail loop instead of the probe loop.
        """
        if self.journal is not None:
            # a primary takes the lease; a *restarted* standby replays
            # its own mirror and resumes tailing where it left off
            self._reset(await self._in_executor(
                self.journal.open, self.role != "standby"))
            self._tail_cursor = self.journal.seq
            self._m_lease_term.set(self.journal.term)
        if self.role != "standby":
            await self._recover()

    def _listening(self) -> None:
        if self.role == "standby":
            self._tail_task = self._loop.create_task(self._tail_loop())
            log.info("fleet standby on http://%s:%d tailing %s "
                     "(takeover after %d missed tails)",
                     self.host, self.port, self._primary.url,
                     self.takeover_after)
            return
        self._probe_task = self._loop.create_task(self._probe_loop())
        log.info("fleet router on http://%s:%d over %d runner(s)%s",
                 self.host, self.port, len(self.handles),
                 f" [journal {self.journal.path}, term "
                 f"{self.journal.term}]" if self.journal else "")

    async def shutdown(self) -> None:
        self.draining = True
        for task in (self._probe_task, self._tail_task):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        self._probe_task = self._tail_task = None
        await super().shutdown()
        if self.journal is not None:
            self.journal.close()
        self._executor.shutdown(wait=False)
        for handle in (*self.handles.values(), self._primary):
            if handle is not None:
                handle.close()

    # ------------------------------------------------------------------
    # Fleet membership
    # ------------------------------------------------------------------

    def routable(self) -> List[RunnerHandle]:
        return [h for h in self.handles.values() if h.routable]

    def _reachable(self) -> List[RunnerHandle]:
        return [h for h in self.handles.values()
                if h.state in ("healthy", "draining", "rejected")]

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.probe_interval_s)
            try:
                await self._probe_all()
            except Exception:           # noqa: BLE001 - keep probing
                log.exception("fleet probe pass failed")

    async def _probe_all(self) -> None:
        for handle in self.handles.values():
            before = handle.state
            await self._in_executor(handle.probe, self.expected_version)
            after = handle.state
            if after != before:
                log.info("runner %s: %s -> %s%s", handle.url, before,
                         after,
                         f" ({handle.last_error})" if handle.last_error
                         else "")
                obs.event("fleet.runner_state", runner=handle.url,
                          before=before, after=after)
            if after == "unhealthy" and before != "unhealthy":
                await self._reroute_orphans(handle, reason="node_loss")
        self._m_healthy.set(len(self.routable()))
        await self._collect_spans()

    async def _collect_spans(self) -> None:
        """Pull span batches fleet-wide into the trace store (after
        every probe pass and before a trace read).  Runner timestamps
        shift by the probe-derived clock offset; ingestion dedups by
        span id, so overlapping passes are safe."""
        if self.span_buffer is not None:
            spans, self._own_cursor = self.span_buffer.since(
                self._own_cursor)
            self.trace_store.ingest(spans, 0.0, runner="router")
        for handle in self._reachable():
            # probes own liveness; a missed pull is fine
            with contextlib.suppress(urllib.error.URLError, OSError):
                data = await self._in_executor(handle.fetch_spans)
                self.trace_store.ingest(data.get("spans") or (),
                                        handle.clock_offset_s,
                                        runner=handle.url)

    async def _reroute_orphans(self, dead: RunnerHandle,
                               reason: str) -> None:
        """Resubmit a lost runner's in-flight jobs to survivors."""
        for key in orphans(self._placements, dead.url):
            await self._reroute(key, dead.url, reason)
            if holder(self._placements.get(key)) == dead.url:
                # no survivor took it; the entry stays pointed at the
                # dead node and the next poll retries the re-route
                log.warning("no survivor accepted orphan %s from %s",
                            key[:12], dead.url)

    async def _reroute(self, key: str, runner: str, reason: str) -> None:
        """Move ``key`` off the lost ``runner`` unless already moved;
        a scatter-adopted entry (no spec to resubmit) is forgotten."""
        entry = self._placements.get(key)
        if entry is None or entry["runner"] != runner:
            return
        if not isinstance(entry["payload"], dict):
            self._commit("forget", key)
            return
        await self._forward_submit(
            key, entry["payload"], away_from=runner,
            reroute_reason=reason, obs_ctx=entry["trace"])

    # ------------------------------------------------------------------
    # Durability: journal writes, crash recovery, standby tail/takeover
    # ------------------------------------------------------------------

    def _commit(self, op: str, key: str, **fields: Any) -> None:
        """The one way the placement table changes: journal, then fold.

        A torn append (``journal.write`` fault, disk error) loses only
        the durable copy -- the fold still happens, and reconciliation
        plus content-hash idempotency re-resolve the rest.
        :class:`FencedOut` means a newer term owns the journal: this
        node turns ``fenced`` and sheds rather than race it.
        """
        record = {"op": op, "key": key, **fields}
        if self.journal is not None and self.role in ("recovering",
                                                      "primary"):
            try:
                record = self.journal.append(op, key, **fields)
            except FencedOut as exc:
                self.role = "fenced"
                self._m_lease_term.set(exc.lease_term)
                log.error("router fenced out (term %d -> %d): shedding "
                          "until restarted", exc.own_term, exc.lease_term)
                obs.event("fleet.fenced", own_term=exc.own_term,
                          lease_term=exc.lease_term)
            except (faults.InjectedFault, OSError) as exc:
                log.warning("journal append %s/%s failed (contained): "
                            "%s", op, key[:12], exc)
                obs.event("fleet.journal_write_failed", op=op,
                          key=key[:12], error=str(exc))
        self._fold(record)

    def _fold(self, record: Dict[str, Any]) -> None:
        """Fold one record; move the in-flight slot its entry holds."""
        key = record.get("key")
        before = holder(self._placements.get(key))
        apply_record(self._placements, record)
        after = holder(self._placements.get(key))
        if before != after:
            self._count(before, -1)
            self._count(after, 1)

    def _reset(self, table: Dict[str, Dict[str, Any]]) -> None:
        """Serve ``table`` (a replay or a ``reset`` snapshot) and
        re-derive every runner's in-flight count from it."""
        self._placements = table
        counts = inflight_counts(table, self._open)
        for handle in self.handles.values():
            self._count(handle.url, counts[handle.url] - handle.inflight)

    def _count(self, runner: Optional[str], delta: int) -> None:
        handle = self.handles.get(runner)
        if handle is not None and delta:
            handle.inflight += delta
            self._m_inflight.set(handle.inflight, runner=handle.url)

    async def _observe(self, key: str,
                       runner: Optional[str]) -> Tuple[str, Optional[str]]:
        """Ask ``runner`` about ``key``: ``running``, ``done`` (with its
        status) or ``lost`` (gone, amnesiac, unreachable)."""
        handle = self.handles.get(runner)
        if handle is not None and handle.routable:
            try:
                status, data, _ = await self._in_executor(
                    handle.request, "GET", f"/v1/jobs/{key}")
            except (urllib.error.URLError, OSError) as exc:
                self._note_forward_failure(handle, exc)
            else:
                if status == 200 and isinstance(data, dict):
                    return (("done", data.get("status"))
                            if data.get("done") else ("running", None))
        return "lost", None

    async def _recover(self) -> None:
        """Probe the fleet, reconcile the table, then turn ``primary``.

        One observation per undone entry feeds the pure
        :func:`~repro.fleet.durable.plan_recovery`; lost jobs resubmit
        on their ORIGINAL trace.
        """
        table = self._placements
        try:
            await self._probe_all()
            if not table:
                return
            with obs.span("journal.recover", records=len(table),
                          node=self.node_name):
                observations = {
                    key: await self._observe(key, entry["runner"])
                    for key, entry in list(table.items())
                    if not entry["done"]}
                plan = plan_recovery(table, observations)
                for key, action, status in plan:
                    if action == "settle":
                        self._commit("done", key, status=status)
                    elif action == "forget":
                        self._commit("forget", key)
                    elif action == "resubmit":
                        await self._forward_submit(
                            key, table[key]["payload"],
                            reroute_reason="recovered",
                            obs_ctx=table[key]["trace"])
                done = Counter(action for _, action, _ in plan)
                log.info("journal recovery: %d placement(s) -> %d "
                         "adopted, %d settled, %d resubmitted",
                         len(table), done["adopt"], done["settle"],
                         done["resubmit"])
                obs.event("fleet.recovered", placements=len(table),
                          adopted=done["adopt"], settled=done["settle"],
                          resubmitted=done["resubmit"])
        finally:
            if self.role == "recovering":
                self.role = "primary"

    async def _tail_loop(self) -> None:
        """Standby: mirror the primary's journal until it goes dark."""
        while True:
            await asyncio.sleep(self.tail_interval_s)
            try:
                status, data, _ = await self._in_executor(
                    self._primary.request, "GET",
                    f"/v1/journal?since={self._tail_cursor}",
                    None, None, 10.0)
            except (urllib.error.URLError, OSError) as exc:
                self._tail_failures += 1
                log.warning("journal tail failed (%d/%d): %s",
                            self._tail_failures, self.takeover_after,
                            exc)
                if self._tail_failures >= self.takeover_after:
                    await self._takeover()
                    return
                continue
            self._tail_failures = 0
            if status != 200 or not isinstance(data, dict):
                continue              # primary alive but not serving yet
            self._apply_tail(data)
            # pull the primary's own spans too: a post-failover
            # stitched trace must still have its fleet.job root
            with contextlib.suppress(urllib.error.URLError, OSError):
                spans = await self._in_executor(self._primary.fetch_spans)
                self.trace_store.ingest(spans.get("spans") or (), 0.0,
                                        runner="primary")

    def _apply_tail(self, data: Dict[str, Any]) -> None:
        """Fold one ``/v1/journal`` answer into the table."""
        if data.get("reset"):
            placements = data.get("placements") or {}
            if self.journal is not None:
                self.journal.adopt_snapshot(
                    placements, int(data.get("next") or 0),
                    int(data.get("term") or 0))
            self._reset(placements)
        else:
            for record in data.get("records") or ():
                if not isinstance(record, dict):
                    continue
                if self.journal is not None:
                    self.journal.append_mirror(record)
                self._fold(record)
        self._tail_cursor = int(data.get("next") or self._tail_cursor)

    async def _takeover(self) -> None:
        """Standby -> primary: fence the old writer, recover, serve."""
        term = None
        if self.journal is not None:
            term = await self._in_executor(self.journal.promote,
                                           self.node_name)
            self._m_lease_term.set(term)
        self.role = "recovering"
        self._m_failovers.inc()
        log.warning("standby taking over as primary (term %s) after "
                    "%d missed tails of %s", term,
                    self._tail_failures, self._primary.url)
        obs.event("fleet.takeover", term=term,
                  primary=self._primary.url,
                  placements=len(self._placements))
        await self._recover()
        self._probe_task = self._loop.create_task(self._probe_loop())

    # ------------------------------------------------------------------
    # Forwarding core
    # ------------------------------------------------------------------

    def _pick_target(self, key: str,
                     exclude: Iterable[str] = ()
                     ) -> Optional[RunnerHandle]:
        """Shard owner, unless overloaded -- then the lightest node."""
        loads = {h.url: h.load() for h in self.routable()
                 if h.url not in exclude}
        target, owner = pick_target(self.ring, loads, key,
                                    self.steal_threshold)
        if target is None:
            return None
        if owner is not None and target != owner:
            self._m_steals.inc(runner=target)
            obs.event("fleet.steal", key=key[:12], owner=owner,
                      target=target, owner_load=loads[owner])
        return self.handles[target]

    @contextlib.asynccontextmanager
    async def _one_forward(self, key: str):
        """One forward per key at a time; a second caller waits for
        the first, then decides against the table the first left."""
        while key in self._forwarding:
            await asyncio.wait((self._forwarding[key],))
        ended = asyncio.get_running_loop().create_future()
        self._forwarding[key] = ended
        try:
            yield
        finally:
            del self._forwarding[key]
            ended.set_result(None)

    def _note_forward_failure(self, handle: RunnerHandle,
                              exc: BaseException) -> None:
        """A forward died on the wire: treat it like a failed probe."""
        handle.consecutive_failures += 1
        handle.last_error = f"{type(exc).__name__}: {exc}"
        if handle.state in ("healthy", "draining", "unknown"):
            handle.state = "unhealthy"
            log.warning("runner %s unreachable on forward: %s",
                        handle.url, handle.last_error)
            obs.event("fleet.runner_state", runner=handle.url,
                      before="healthy", after="unhealthy")

    async def _in_executor(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, lambda: fn(*args))

    async def _forward_submit(self, key: str, payload: Dict[str, Any],
                              away_from: Optional[str] = None,
                              reroute_reason: Optional[str] = None,
                              obs_ctx: Optional[Dict[str, str]] = None):
        """Place one job; returns ``(handle, status, data)`` or None.

        ``data`` is the runner's undecoded answer when it accepted the
        job (2xx), its decoded error payload otherwise.

        A resubmit of a placed key tries its runner first (its dedup
        makes that free).  ``away_from`` re-routes off a lost runner
        unless another caller moved the job first; ``reroute_reason``
        alone resubmits anywhere (recovery)."""
        async with self._one_forward(key):
            entry = self._placements.get(key)
            if away_from is not None and (entry or {}).get(
                    "runner") != away_from:
                return None           # another caller moved it first
            exclude = () if away_from is None else (away_from,)
            if entry is not None and reroute_reason is None:
                sticky = self.handles.get(entry["runner"])
                if sticky is not None and sticky.routable:
                    outcome = await self._forward(
                        key, payload, set(self.handles) - {sticky.url},
                        None, obs_ctx)
                    if outcome is not None:
                        return outcome
                exclude = (entry["runner"],)
            return await self._forward(key, payload, exclude,
                                       reroute_reason, obs_ctx)

    async def _forward(self, key: str, payload: Dict[str, Any],
                       exclude: Iterable[str],
                       reroute_reason: Optional[str],
                       obs_ctx: Optional[Dict[str, str]]):
        """Try the picked target, then every other routable runner once.

        Wire failures mark the runner unhealthy and move on.  The
        ``fleet.route`` span parents onto ``obs_ctx`` (the job's root,
        the *original* one for reroutes) and travels as
        ``traceparent``, so a job keeps one trace id for life.
        """
        tried = set(exclude)
        last_refusal = None
        while True:
            target = self._pick_target(key, exclude=tried)
            if target is None:
                return last_refusal
            tried.add(target.url)
            with obs.span("fleet.route", parent=obs_ctx, key=key[:12],
                          runner=target.url,
                          rerouted=reroute_reason or "no"):
                ctx = obs.current_context() or obs_ctx
                traceparent = obs.format_traceparent(ctx) if ctx else None
                headers = ({"traceparent": traceparent} if traceparent
                           else None)
                # the open forward counts against its target: a burst
                # of submits sees its own load and stealing balances it
                self._open[key] = target.url
                self._count(target.url, 1)
                try:
                    status, raw, replied = await self._in_executor(
                        target.exchange, "POST", "/v1/jobs", payload,
                        headers, self.forward_timeout_s)
                except (urllib.error.URLError, OSError) as exc:
                    self._note_forward_failure(target, exc)
                    self._m_reroutes.inc(reason="forward_error")
                    continue
                finally:
                    del self._open[key]
                    self._count(target.url, -1)
            if status in (200, 201):
                # the answer (an inlined result too) is relayed as the
                # runner's bytes; the table needs only the status header
                self._m_shard.inc(runner=target.url)
                entry = self._placements.get(key)
                done = (replied.get(protocol.JOB_STATUS_HEADER)
                        in protocol.TERMINAL)
                # first writer wins: the job's root context survives
                # every later reroute, keeping one trace id for life
                trace = ((entry or {}).get("trace") or obs_ctx)
                # a resubmit that lands where the job already lives
                # changes nothing the journal does not already hold
                if (entry is None or entry["runner"] != target.url
                        or entry["done"] != done
                        or entry["trace"] != trace
                        or not isinstance(entry["payload"], dict)):
                    fields = {"runner": target.url, "payload": payload,
                              "trace": trace, "done": done}
                    if reroute_reason is not None:
                        fields["reason"] = reroute_reason
                    self._commit("place" if reroute_reason is None
                                 else "reroute", key, **fields)
                if reroute_reason is not None:
                    self._m_reroutes.inc(reason=reroute_reason)
                self.breaker.record_success()
                return target, status, raw
            status, data, _ = decode_reply(status, raw, replied)
            code = ((data.get("error") or {}).get("code")
                    if isinstance(data, dict) else None)
            if code in _REFUSAL_CODES:
                # alive but shedding; remember the refusal (it carries
                # Retry-After) and offer the job elsewhere
                last_refusal = (target, status, data)
                continue
            # anything else (e.g. validation) is a real answer
            return target, status, data

    async def _forward_any(self, method: str, path: str):
        """Forward a stateless catalog read to any routable runner."""
        for handle in self.routable():
            try:
                status, data, _ = await self._in_executor(
                    handle.request, method, path, None, None,
                    self.forward_timeout_s)
                return status, data
            except (urllib.error.URLError, OSError) as exc:
                self._note_forward_failure(handle, exc)
        raise ServerError("no routable runner for catalog read",
                          status=503, code="unavailable")

    # ------------------------------------------------------------------
    # HTTP surface
    # ------------------------------------------------------------------

    def _route(self, method: str, path: str, query):
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            return "healthz", self._h_healthz, ()
        if parts[:1] == [protocol.API_VERSION]:
            rest = parts[1:]
            if (len(rest) == 3 and rest[:2] == ["obs", "traces"]
                    and method == "GET"):
                return "obs_trace", self._h_obs_trace, (rest[2],)
            if rest == ["obs", "summary"] and method == "GET":
                return "obs_summary", self._h_obs_summary, ()
            if rest == ["journal"] and method == "GET":
                return "journal", self._h_journal, (
                    query.get("since", "0"),)
            if rest in (["apps"], ["modes"]) and method == "GET":
                return rest[0], self._h_catalog, (rest[0],)
            if rest == ["jobs"] and method == "POST":
                return "submit", self._h_submit, ()
            if rest == ["jobs"] and method == "GET":
                return "jobs", self._h_jobs, ()
            if len(rest) == 2 and rest[0] == "jobs" and method == "GET":
                return "job", self._h_job, (rest[1], "")
            if (len(rest) == 3 and rest[0] == "jobs"
                    and rest[2] == "result" and method == "GET"):
                return "result", self._h_job, (rest[1], "/result")
            if (len(rest) == 3 and rest[0] == "jobs"
                    and rest[2] == "events" and method == "GET"):
                return "events", self._h_events, (rest[1],)
        return super()._route(method, path, query)

    def _shed_unless_primary(self) -> None:
        """Job traffic is a primary-only privilege (see ``_SHED``)."""
        reason = _SHED.get(self.role)
        if reason is not None:
            raise ServerError(
                reason.format(primary=getattr(self._primary, "url", "")),
                status=503, code="unavailable")

    def _status(self) -> Dict[str, Any]:
        """What ``/healthz`` and ``/v1/obs/summary`` both report; the
        wire ``role`` is ``standby``/``primary``, ``fenced`` a bool."""
        handles = list(self.handles.values())
        return {
            "role": "standby" if self.role == "standby" else "primary",
            "fenced": self.role == "fenced", "node": self.node_name,
            "journal": (self.journal.stats()
                        if self.journal is not None else None),
            "version": repro.__version__, "now": obs.now(),
            "fleet": {
                "healthy": len(self.routable()), "total": len(handles),
                "steal_threshold": self.steal_threshold,
                "placements": len(self._placements),
                "inflight": sum(h.inflight for h in handles),
                "breaker": self.breaker.snapshot(),
                "runners": [h.snapshot() for h in handles],
            },
        }

    async def _h_healthz(self, writer, body, headers) -> int:
        payload = self._status()
        ok = (payload["fleet"]["healthy"] > 0 and not self.draining
              and self.role in ("recovering", "primary"))
        payload["status"] = "ok" if ok else "degraded"
        return await self._send_json(writer, 200 if ok else 503, payload)

    async def _metrics_text(self, query: Dict[str, str]) -> str:
        """Fleet-federated Prometheus dump (``?local=1`` skips peers):
        every reachable runner's ``/metrics`` merges in under a
        ``runner="<url>"`` label; one failing mid-scrape is absent."""
        text = await super()._metrics_text(query)
        if query.get("local"):
            return text
        peers = []
        for handle in self._reachable():
            with contextlib.suppress(urllib.error.URLError, OSError):
                peers.append((handle.url, await self._in_executor(
                    handle.fetch_text, "/metrics")))
        return obs.federate_metrics(text, peers) if peers else text

    # -- fleet observability: stitched traces + summary -----------------

    async def _h_obs_trace(self, writer, body, headers,
                           job_id: str) -> int:
        """One whole-fleet Perfetto trace for a routed job (a standby
        answers too: the trace context is journaled with the entry)."""
        entry = self._placements.get(job_id)
        if entry is None:
            raise JobNotFound(f"no job {job_id!r} routed by this fleet")
        trace_ctx = entry["trace"]
        if trace_ctx is None:
            raise ServerError(
                f"no trace recorded for job {job_id[:12]} "
                f"(tracing was off when it was placed)",
                status=404, code="not_found")
        # pull fresh batches so a just-finished job reads complete
        await self._collect_spans()
        trace_id = trace_ctx.get("trace_id")
        spans = self.trace_store.spans(trace_id or "")
        if not spans:
            raise ServerError(
                f"trace {trace_id} has no collected spans yet",
                status=404, code="not_found")
        trace = obs.chrome_trace(spans)
        trace["traceId"] = trace_id
        trace["jobId"] = job_id
        return await self._send_json(writer, 200, trace)

    async def _h_obs_summary(self, writer, body, headers) -> int:
        status = self._status()
        fleet = status.pop("fleet")
        payload = {
            "role": "router", "fleet_role": status.pop("role"), **status,
            "traces": {"count": len(self.trace_store),
                       "dropped": self.trace_store.dropped},
            "spans": self._span_stats(),
            "fleet": {key: fleet[key] for key in (
                "healthy", "total", "placements", "inflight", "breaker")},
            "runners": fleet["runners"],
        }
        return await self._send_json(writer, 200, payload)

    async def _h_journal(self, writer, body, headers,
                         since: str) -> int:
        """The standby's tail cursor into this primary's journal."""
        if self.journal is None:
            raise ServerError(
                "this router runs without a journal (--journal-dir)",
                status=404, code="not_found")
        payload = self.journal.tail(self._cursor(since))
        payload["role"] = "standby" if self.role == "standby" else "primary"
        payload["node"] = self.node_name
        return await self._send_json(writer, 200, payload)

    async def _h_catalog(self, writer, body, headers, what: str) -> int:
        status, data = await self._forward_any("GET", f"/v1/{what}")
        return await self._send_json(writer, status, data)

    async def _h_jobs(self, writer, body, headers) -> int:
        self._shed_unless_primary()
        merged: Dict[str, Dict[str, Any]] = {}
        for handle in self.routable():
            try:
                status, data, _ = await self._in_executor(
                    handle.request, "GET", "/v1/jobs", None, None,
                    self.forward_timeout_s)
            except (urllib.error.URLError, OSError) as exc:
                self._note_forward_failure(handle, exc)
                continue
            if status == 200:
                for job in data.get("jobs", ()):
                    merged.setdefault(job.get("id"), job)
        return await self._send_json(writer, 200,
                                     {"jobs": list(merged.values())})

    async def _h_submit(self, writer, body, headers) -> int:
        self._shed_unless_primary()
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise protocol.JobValidationError(
                f"body is not JSON: {exc}") from None
        job = protocol.job_from_payload(payload)
        key = job.key()
        if self.draining:
            return await self._send_json(writer, 503, protocol._body(
                "unavailable", "router is shutting down",
                retry_after_s=1.0))
        if not self.breaker.allow():
            return await self._send_json(writer, 429, protocol._body(
                "overloaded",
                f"fleet admission breaker open after "
                f"{self.breaker.trips} trip(s)",
                retry_after_s=self.breaker.cooldown_s))
        entry = self._placements.get(key)
        if entry is not None and entry["trace"] is not None:
            # resubmit-dedup: the job already has a root span; attach
            # this placement attempt to the ORIGINAL trace
            return await self._submit_placed(writer, key, payload,
                                             entry["trace"])
        # a fresh job opens the fleet-wide root span here at the
        # router, parented on the client's traceparent when present
        # (malformed/absent -> a fresh root, never an error)
        client_ctx = obs.parse_traceparent(headers.get("traceparent"))
        with obs.span("fleet.job", parent=client_ctx, key=key[:12],
                      app=payload.get("app"),
                      mode=payload.get("mode")) as root:
            obs_ctx = (root.context() if isinstance(root, obs.Span)
                       else client_ctx)
            return await self._submit_placed(writer, key, payload,
                                             obs_ctx)

    async def _submit_placed(self, writer, key: str,
                             payload: Dict[str, Any],
                             obs_ctx: Optional[Dict[str, str]]) -> int:
        """Route one admitted submission (sticky dedup, then anywhere)."""
        outcome = await self._forward_submit(key, payload, obs_ctx=obs_ctx)
        if outcome is None:
            self.breaker.record_failure()
            return await self._send_json(writer, 503, protocol._body(
                "unavailable",
                f"no routable runner among {len(self.handles)} "
                f"(fleet breaker at {self.breaker.snapshot()['failures']}"
                f" strike(s))",
                retry_after_s=self.probe_interval_s))
        _, status, data = outcome
        if isinstance(data, bytes):
            return await self._send(writer, status, data, JSON_TYPE)
        return await self._send_json(writer, status, data)

    async def _h_job(self, writer, body, headers, key: str,
                     tail: str) -> int:
        self._shed_unless_primary()
        status, data = await self._forward_job_read(
            key, f"/v1/jobs/{key}{tail}")
        if isinstance(data, bytes):
            return await self._send(writer, status, data, JSON_TYPE)
        return await self._send_json(writer, status, data)

    async def _scatter_adopt(self, key: str) -> Optional[Dict[str, Any]]:
        """Rebuild a forgotten placement by asking every runner.

        A torn ``place`` record loses a placement the fleet still
        holds; re-adopt -- and re-journal -- it wherever it answers.
        The entry has no payload (a runner's job record carries only
        app/mode), so it serves reads but cannot be resubmitted.
        """
        for handle in self.routable():
            try:
                status, data, _ = await self._in_executor(
                    handle.request, "GET", f"/v1/jobs/{key}")
            except (urllib.error.URLError, OSError) as exc:
                self._note_forward_failure(handle, exc)
                continue
            if status != 200 or not isinstance(data, dict):
                continue
            done = bool(data.get("done"))
            self._commit("place", key, runner=handle.url, payload=None,
                         trace=None, done=done)
            self._m_readopts.inc()
            log.warning("re-adopted unjournaled job %s from %s "
                        "(done=%s)", key[:12], handle.url, done)
            obs.event("fleet.readopted", key=key[:12],
                      runner=handle.url, done=done)
            return self._placements[key]
        return None

    async def _forward_job_read(self, key: str, path: str):
        """Read job state from its runner, healing lost placements.

        A wire error or a runner that forgot the job re-routes it and
        answers ``202 pending``.  The read is bounded by the handle's
        own ``timeout_s``: a state read never waits on a flow, so a
        runner that stalls it is partitioned.

        A finished job's ready result comes back as the runner's bytes,
        relayed without decoding: nothing in it changes the table.
        """
        entry = self._placements.get(key)
        if entry is None:
            entry = await self._scatter_adopt(key)
        if entry is None:
            raise JobNotFound(f"no job {key!r} routed by this fleet")
        runner = entry["runner"]
        handle = self.handles.get(runner)
        reason = None
        if handle is None or handle.state == "unhealthy":
            reason = "node_loss"
        else:
            relay = entry["done"] and path.endswith("/result")
            try:
                if relay:
                    status, raw, replied = await self._in_executor(
                        handle.exchange, "GET", path)
                    if status == 200:
                        return status, raw
                    status, data, _ = decode_reply(status, raw, replied)
                else:
                    status, data, _ = await self._in_executor(
                        handle.request, "GET", path)
            except (urllib.error.URLError, OSError) as exc:
                self._note_forward_failure(handle, exc)
                reason = "node_loss"
            else:
                code = ((data.get("error") or {}).get("code")
                        if isinstance(data, dict) else None)
                if code == "not_found" and not entry["done"]:
                    # the runner restarted and lost its job table
                    reason = "lost_state"
                else:
                    done_now = (bool(data.get("done"))
                                if isinstance(data, dict) else False)
                    if status == 200 and path.endswith("/result"):
                        done_now = True    # a ready result is terminal
                    if ((done_now or code not in (None, "pending"))
                            and not entry["done"]):
                        self._commit("done", key,
                                     status=(data.get("status")
                                             if isinstance(data, dict)
                                             else None))
                    return status, data
        await self._reroute(key, runner, reason)
        if key not in self._placements:
            raise JobNotFound(
                f"job {key!r} lost with its runner and no recorded "
                f"payload to resubmit; resubmit it (idempotent)")
        return 202, protocol._body(
            "pending", f"job {key[:12]} re-routed after {reason}",
            key=key, status="queued", attempts=0, retry_after_s=1.0)

    async def _h_events(self, writer, body, headers, key: str) -> int:
        """Byte-pipe the runner's SSE stream through to the client; a
        reconnecting client's ``Last-Event-ID`` rides through."""
        self._shed_unless_primary()
        entry = self._placements.get(key)
        if entry is None:
            raise JobNotFound(f"no job {key!r} routed by this fleet")
        runner = entry["runner"]
        parsed = urllib.parse.urlsplit(runner)
        try:
            upstream_r, upstream_w = await asyncio.open_connection(
                parsed.hostname, parsed.port or 80)
        except OSError:
            raise ServerError(
                f"runner {runner} unreachable for event "
                f"stream", status=502, code="unavailable") from None
        try:
            last_id = headers.get("last-event-id")
            resume = f"Last-Event-ID: {last_id}\r\n" if last_id else ""
            self._take_over(writer)
            request = (f"GET /v1/jobs/{key}/events HTTP/1.1\r\n"
                       f"Host: {parsed.netloc}\r\n"
                       f"Accept: text/event-stream\r\n"
                       f"{resume}"
                       f"Connection: close\r\n\r\n")
            upstream_w.write(request.encode("latin-1"))
            await upstream_w.drain()
            while True:
                chunk = await upstream_r.read(4096)
                if not chunk:
                    break
                writer.write(chunk)
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            with contextlib.suppress(Exception):
                upstream_w.close()
                await upstream_w.wait_closed()
        return 200
