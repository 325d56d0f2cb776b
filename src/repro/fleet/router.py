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

**Node-loss recovery.**  Every accepted job's payload is kept in the
router's placement table.  A dead runner (forward error, failed
probes) or one that lost its memory (restart answering 404) gets its
in-flight jobs *resubmitted* to survivors -- a fresh submission with
the job's full retry budget, so node loss never consumes job retries.
Content-hash idempotency makes resubmission safe: a job that actually
completed resolves instantly from cache or dedup, never runs twice.

**Admission breaker.**  Zero routable runners strikes the fleet
breaker and sheds with ``503 unavailable``; once open, the breaker
sheds with ``429 overloaded`` until its cooldown, mirroring the
single-node service's admission semantics.

The probe loop re-admits recovered runners automatically, and rejects
runners whose ``/healthz`` ``version`` differs from the router's
(mixed-version fleets corrupt cache-entry compatibility assumptions).

**Durability.**  With ``journal_dir`` set, every placement mutation is
journaled through :class:`~repro.fleet.durable.RouterJournal` *before*
the client hears about it, so a router crash mid-batch is recoverable:
on restart the journal replays, each live placement is reconciled
against its runner's ``/v1/jobs/{id}``, and anything lost is
resubmitted (content-hash idempotency makes the replay safe).  A
**warm standby** (``standby_of``) tails the primary's journal over
``GET /v1/journal?since=`` and, after ``takeover_after`` consecutive
tail failures, takes over behind the lease's monotonic fencing token
-- the stale primary's next journal append raises ``FencedOut`` and it
demotes itself to shedding 503s (split-brain writes are impossible,
not just unlikely).  See DESIGN.md §18 for the full protocol.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import urllib.error
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Iterable, List, Optional

import repro
from repro import obs
from repro.fleet.durable import FencedOut, RouterJournal, apply_record
from repro.fleet.hashring import HashRing
from repro.fleet.runner import RunnerHandle
from repro.resilience import CircuitBreaker, faults
from repro.server import protocol
from repro.server.http import HttpServerBase, parse_trace_parent
from repro.server.protocol import JobNotFound, ServerError

log = logging.getLogger("repro.fleet.router")

#: forward statuses that mean "this runner refused, try another"
_REFUSAL_CODES = ("busy", "overloaded", "unavailable")


class _Placement:
    """Where one accepted job lives and what it would take to redo it."""

    __slots__ = ("runner", "payload", "done", "counted", "trace")

    def __init__(self, runner: str, payload: Dict[str, Any]):
        self.runner = runner
        self.payload = payload        # the validated POST body
        self.done = False
        self.counted = False          # holds an inflight slot on runner
        #: the job's root span context -- reroutes and resubmissions
        #: parent onto it so the job keeps ONE trace id for life
        self.trace: Optional[Dict[str, str]] = None


class FleetRouter(HttpServerBase):
    """Shards ``/v1`` traffic across N runner nodes."""

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
        urls = [u.rstrip("/") for u in runners]
        if not urls:
            raise ValueError("a fleet router needs at least one runner")
        self.host = host
        self.port = port
        #: "primary" serves traffic; "standby" tails the primary's
        #: journal and sheds until takeover.  ``fenced`` marks a
        #: primary whose lease moved on (it sheds too).
        self.role = "standby" if standby_of else "primary"
        self.fenced = False
        #: set while a promoted standby reconciles its journal: it
        #: journals as primary but still sheds job traffic, so no
        #: request sees a half-recovered placement table
        self.recovering = False
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
        #: the standby's mirror of the primary's folded table (also
        #: kept when it has no journal of its own)
        self._mirror: Dict[str, Dict[str, Any]] = {}
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
        # the fleet's observability brain: the router's own spans land
        # in span_buffer (on by default -- a router serves few requests
        # and every one should trace), runner spans are pulled by the
        # probe loop, and both stitch per trace id in trace_store
        self.span_buffer: Optional[obs.SpanBuffer] = (
            obs.SpanBuffer(obs_buffer) if obs_buffer > 0 else None)
        self.trace_store = obs.TraceStore()
        self.slo = obs.SLOTracker("router")
        self._own_cursor = 0          # drain cursor into span_buffer
        self._placements: Dict[str, _Placement] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._probe_task: Optional[asyncio.Task] = None
        # blocking urllib forwards run here, never on the loop; sized
        # past the runner count so probes can't starve forwards
        self._executor = ThreadPoolExecutor(
            max_workers=max(8, 2 * len(urls) + 2),
            thread_name_prefix="fleet-fwd")
        reg = obs.REGISTRY
        self._m_requests = reg.counter(
            "repro_http_requests_total", "HTTP requests served",
            labelnames=("route", "status"))
        self._m_latency = reg.histogram(
            "repro_http_request_seconds", "HTTP request latency",
            labelnames=("route",))
        self._m_shard = reg.counter(
            "repro_fleet_shard_jobs_total",
            "jobs placed on a runner by the router",
            labelnames=("runner",))
        self._m_steals = reg.counter(
            "repro_fleet_steals_total",
            "jobs placed off-owner because the owner was overloaded",
            labelnames=("runner",))
        self._m_reroutes = reg.counter(
            "repro_fleet_reroutes_total",
            "jobs moved between runners after placement",
            labelnames=("reason",))
        self._m_inflight = reg.gauge(
            "repro_fleet_runner_inflight",
            "router-tracked jobs in flight per runner",
            labelnames=("runner",))
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

    async def start(self) -> None:
        """Recover (journal replay + reconciliation), bind, serve.

        A primary replays its journal *before* binding the socket, so
        no request ever observes a half-recovered table.  A standby
        binds immediately (it sheds job traffic anyway) and starts the
        tail loop instead of the probe loop.
        """
        self._loop = asyncio.get_running_loop()
        if self.span_buffer is not None:
            obs.add_sink(self.span_buffer)
        self.slo.attach(obs.REGISTRY)
        if self.role == "standby":
            if self.journal is not None:
                # a *restarted* standby replays its own mirror first
                self._mirror = await self._in_executor(
                    self.journal.open, False)
                self._tail_cursor = self.journal.seq
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port)
            self.port = self._server.sockets[0].getsockname()[1]
            self._tail_task = self._loop.create_task(self._tail_loop())
            log.info("fleet standby on http://%s:%d tailing %s "
                     "(takeover after %d missed tails)",
                     self.host, self.port, self._primary.url,
                     self.takeover_after)
            return
        table: Dict[str, Dict[str, Any]] = {}
        if self.journal is not None:
            table = await self._in_executor(self.journal.open, True)
            self._m_lease_term.set(self.journal.term)
        await self._probe_all()
        if table:
            await self._recover(table)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
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
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._probe_task = self._tail_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.journal is not None:
            self.journal.close()
        if self.span_buffer is not None:
            obs.remove_sink(self.span_buffer)
        self.slo.detach()
        self._executor.shutdown(wait=False)

    def run(self) -> None:
        """Serve until SIGINT/SIGTERM (blocking)."""
        async def main():
            await self.start()
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except (NotImplementedError, RuntimeError):
                    pass
            await stop.wait()
            log.info("signal received: shutting down router")
            await self.shutdown()

        asyncio.run(main())

    # ------------------------------------------------------------------
    # Fleet membership
    # ------------------------------------------------------------------

    def routable(self) -> List[RunnerHandle]:
        return [h for h in self.handles.values() if h.routable]

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
        """Pull span batches fleet-wide into the trace store.

        Runs after every probe pass and on demand before serving a
        trace read.  Runner timestamps are shifted by the probe-derived
        clock offset; the router's own spans ingest at offset 0.
        Ingestion dedups by span id, so overlapping passes are safe.
        """
        if self.span_buffer is not None:
            spans, self._own_cursor = self.span_buffer.since(
                self._own_cursor)
            self.trace_store.ingest(spans, 0.0, runner="router")
        for handle in self.handles.values():
            if handle.state not in ("healthy", "draining", "rejected"):
                continue
            try:
                data = await self._in_executor(handle.fetch_spans)
            except (urllib.error.URLError, OSError):
                continue       # probes own liveness; a miss is fine
            spans = data.get("spans") or ()
            if spans:
                self.trace_store.ingest(
                    spans, handle.clock_offset_s, runner=handle.url)

    async def _reroute_orphans(self, dead: RunnerHandle,
                               reason: str) -> None:
        """Resubmit a lost runner's in-flight jobs to survivors."""
        orphans = [(key, p) for key, p in self._placements.items()
                   if p.runner == dead.url and not p.done]
        for key, placement in orphans:
            self._release(placement)
            if not isinstance(placement.payload, dict):
                # scatter-adopted (no recorded spec): nothing to
                # resubmit with -- drop it; the read path 404s and the
                # submitter's idempotent resubmit recreates it
                self._placements.pop(key, None)
                continue
            target = await self._forward_submit(
                key, placement.payload, exclude=(dead.url,),
                reroute_reason=reason, obs_ctx=placement.trace)
            if target is None:
                # no survivor took it; the placement stays pointed at
                # the dead node and the next poll retries the re-route
                log.warning("no survivor accepted orphan %s from %s",
                            key[:12], dead.url)

    # ------------------------------------------------------------------
    # Durability: journal writes, crash recovery, standby tail/takeover
    # ------------------------------------------------------------------

    def _journal_place(self, key: str, placement: _Placement,
                       reroute_reason: Optional[str] = None) -> None:
        """Journal one (re)placement.  Reroutes carry the full payload
        too, so a torn ``place`` record still replays to a live entry."""
        fields: Dict[str, Any] = {
            "runner": placement.runner, "payload": placement.payload,
            "trace": placement.trace, "done": placement.done}
        if reroute_reason is not None:
            fields["reason"] = reroute_reason
        self._journal_append(
            "place" if reroute_reason is None else "reroute",
            key, **fields)

    def _journal_append(self, op: str, key: str, **fields: Any) -> None:
        """Append one record, containing every failure mode.

        A torn write (``journal.write`` fault, disk error) loses only
        that record -- recovery reconciliation plus content-hash
        idempotency re-resolve whatever it described, so the router
        keeps serving.  :class:`FencedOut` is the one exception that
        changes behavior: a newer term exists, so this node demotes
        itself to shedding rather than racing the new primary.
        """
        if self.journal is None or self.role != "primary" or self.fenced:
            return
        try:
            self.journal.append(op, key, **fields)
        except FencedOut as exc:
            self.fenced = True
            self._m_lease_term.set(exc.lease_term)
            log.error("router fenced out (term %d -> %d): shedding "
                      "until restarted", exc.own_term, exc.lease_term)
            obs.event("fleet.fenced", own_term=exc.own_term,
                      lease_term=exc.lease_term)
        except (faults.InjectedFault, OSError) as exc:
            log.warning("journal append %s/%s failed (contained): %s",
                        op, key[:12], exc)
            obs.event("fleet.journal_write_failed", op=op,
                      key=key[:12], error=str(exc))

    async def _recover(self, table: Dict[str, Dict[str, Any]]) -> None:
        """Reconcile a replayed placement table against the fleet.

        For every undone entry, ask its recorded runner: still
        running -> re-adopt (inflight accounting restored); finished
        -> settle; 404/unreachable/unknown -> resubmit to a survivor
        on the job's ORIGINAL trace.  Content-hash idempotency makes
        the resubmissions safe -- a job that actually completed
        resolves from cache or dedup, never runs twice.
        """
        with obs.span("journal.recover", records=len(table),
                      node=self.node_name):
            adopted = settled = resubmitted = 0
            for key, entry in table.items():
                payload = entry.get("payload")
                if not isinstance(payload, dict):
                    continue          # torn past recovery; nothing to do
                placement = _Placement(entry.get("runner") or "",
                                       payload)
                placement.trace = entry.get("trace")
                self._placements[key] = placement
                if entry.get("done"):
                    placement.done = True
                    continue
                handle = self.handles.get(placement.runner)
                if handle is not None and handle.routable:
                    try:
                        status, data, _ = await self._in_executor(
                            handle.request, "GET", f"/v1/jobs/{key}")
                    except (urllib.error.URLError, OSError) as exc:
                        self._note_forward_failure(handle, exc)
                    else:
                        if status == 200 and isinstance(data, dict):
                            if data.get("done"):
                                self._settle(key, placement,
                                             status=data.get("status"))
                                settled += 1
                            else:
                                placement.counted = True
                                handle.inflight += 1
                                self._m_inflight.set(
                                    handle.inflight, runner=handle.url)
                                adopted += 1
                            continue
                # lost: the runner is gone, amnesiac, or was never
                # recorded -- resubmit anywhere (idempotent)
                await self._forward_submit(
                    key, payload, reroute_reason="recovered",
                    obs_ctx=placement.trace)
                resubmitted += 1
            log.info("journal recovery: %d placement(s) -> %d adopted, "
                     "%d settled, %d resubmitted", len(table), adopted,
                     settled, resubmitted)
            obs.event("fleet.recovered", placements=len(table),
                      adopted=adopted, settled=settled,
                      resubmitted=resubmitted)

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
            # pull the primary's own spans too, so the fleet.job root
            # spans survive the primary: a post-failover stitched
            # trace must still have its root
            try:
                spans = await self._in_executor(
                    self._primary.fetch_spans)
            except (urllib.error.URLError, OSError):
                continue
            batch = spans.get("spans") or ()
            if batch:
                self.trace_store.ingest(batch, 0.0, runner="primary")

    def _apply_tail(self, data: Dict[str, Any]) -> None:
        """Fold one ``/v1/journal`` answer into the mirror."""
        if data.get("reset"):
            placements = data.get("placements") or {}
            self._mirror = placements
            if self.journal is not None:
                self.journal.adopt_snapshot(
                    placements, int(data.get("next") or 0),
                    int(data.get("term") or 0))
        else:
            for record in data.get("records") or ():
                if not isinstance(record, dict):
                    continue
                if self.journal is not None:
                    self.journal.append_mirror(record)
                else:
                    apply_record(self._mirror, record)
            if self.journal is not None:
                self._mirror = self.journal.table
        self._tail_cursor = int(data.get("next") or self._tail_cursor)

    async def _takeover(self) -> None:
        """Standby -> primary: fence the old writer, recover, serve."""
        term = None
        if self.journal is not None:
            term = await self._in_executor(self.journal.promote,
                                           self.node_name)
            self._m_lease_term.set(term)
        self.recovering = True
        self.role = "primary"
        self._m_failovers.inc()
        log.warning("standby taking over as primary (term %s) after "
                    "%d missed tails of %s", term,
                    self._tail_failures, self._primary.url)
        obs.event("fleet.takeover", term=term,
                  primary=self._primary.url,
                  placements=len(self._mirror))
        table = (self.journal.table if self.journal is not None
                 else self._mirror)
        try:
            await self._probe_all()
            if table:
                await self._recover(dict(table))
        finally:
            self.recovering = False
        self._probe_task = self._loop.create_task(self._probe_loop())

    # ------------------------------------------------------------------
    # Placement helpers
    # ------------------------------------------------------------------

    def _pick_target(self, key: str,
                     exclude: Iterable[str] = ()
                     ) -> Optional[RunnerHandle]:
        """Shard owner, unless overloaded -- then the lightest node."""
        candidates = [h for h in self.routable()
                      if h.url not in set(exclude)]
        if not candidates:
            return None
        owner_url = self.ring.owner(
            key, exclude={h.url for h in self.handles.values()
                          if h not in candidates})
        owner = self.handles.get(owner_url) if owner_url else None
        if owner is None:
            return min(candidates, key=lambda h: h.load())
        if owner.load() >= self.steal_threshold:
            lightest = min(candidates, key=lambda h: h.load())
            if lightest is not owner:
                self._m_steals.inc(runner=lightest.url)
                obs.event("fleet.steal", key=key[:12],
                          owner=owner.url, target=lightest.url,
                          owner_load=owner.load())
                return lightest
        return owner

    def _track(self, key: str, payload: Dict[str, Any],
               handle: RunnerHandle, done: bool,
               reserved: bool = False,
               obs_ctx: Optional[Dict[str, str]] = None) -> _Placement:
        """Record where ``key`` lives.  With ``reserved`` the caller
        already holds one :meth:`_reserve` slot on ``handle``; an
        undone placement adopts it, a done one gives it back."""
        placement = self._placements.get(key)
        if placement is None:
            placement = _Placement(handle.url, payload)
            self._placements[key] = placement
        else:
            self._release(placement)
            placement.runner = handle.url
        if obs_ctx is not None and placement.trace is None:
            # first writer wins: the job's root context survives every
            # later reroute/resubmission, keeping one trace id for life
            placement.trace = obs_ctx
        placement.done = done
        if not done:
            placement.counted = True
            if not reserved:
                handle.inflight += 1
            self._m_inflight.set(handle.inflight, runner=handle.url)
        elif reserved:
            self._unreserve(handle)
        self._m_shard.inc(runner=handle.url)
        return placement

    def _reserve(self, handle: RunnerHandle) -> None:
        """Count a placement-in-progress *before* the forward runs, so
        concurrent submits see each other's load and work stealing
        balances a burst instead of reading every queue as empty."""
        handle.inflight += 1
        self._m_inflight.set(handle.inflight, runner=handle.url)

    def _unreserve(self, handle: RunnerHandle) -> None:
        handle.inflight = max(0, handle.inflight - 1)
        self._m_inflight.set(handle.inflight, runner=handle.url)

    def _release(self, placement: _Placement) -> None:
        if not placement.counted:
            return
        placement.counted = False
        handle = self.handles.get(placement.runner)
        if handle is not None:
            handle.inflight = max(0, handle.inflight - 1)
            self._m_inflight.set(handle.inflight, runner=handle.url)

    def _settle(self, key: str, placement: _Placement,
                status: Optional[str] = None) -> None:
        if not placement.done:
            placement.done = True
            self._release(placement)
            self._journal_append("done", key, status=status)

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

    # ------------------------------------------------------------------
    # Forwarding core
    # ------------------------------------------------------------------

    async def _forward_submit(self, key: str, payload: Dict[str, Any],
                              exclude: Iterable[str] = (),
                              reroute_reason: Optional[str] = None,
                              obs_ctx: Optional[Dict[str, str]] = None):
        """Place one job; returns ``(handle, status, data)`` or None.

        Tries the sharded target first, then every other routable
        runner once; wire failures mark the runner unhealthy and move
        on (node loss is the router's problem, never the job's).

        ``obs_ctx`` is the job's root span context: the ``fleet.route``
        span parents onto it, and the context travels to the runner as
        a ``traceparent`` header -- for reroutes the *original* context
        is passed back in, so a re-placed job stays on its first trace.
        """
        tried = set(exclude)
        last_refusal = None
        while True:
            target = self._pick_target(key, exclude=tried)
            if target is None:
                return last_refusal
            tried.add(target.url)
            self._reserve(target)
            with obs.span("fleet.route", parent=obs_ctx, key=key[:12],
                          runner=target.url,
                          rerouted=reroute_reason or "no"):
                ctx = obs.current_context() or obs_ctx
                headers = None
                if ctx:
                    traceparent = obs.format_traceparent(ctx)
                    if traceparent:
                        headers = {"traceparent": traceparent}
                try:
                    status, data, _ = await self._in_executor(
                        target.request, "POST", "/v1/jobs", payload,
                        headers, self.forward_timeout_s)
                except (urllib.error.URLError, OSError) as exc:
                    self._unreserve(target)
                    self._note_forward_failure(target, exc)
                    self._m_reroutes.inc(reason="forward_error")
                    continue
            code = ((data.get("error") or {}).get("code")
                    if isinstance(data, dict) else None)
            if status in (200, 201):
                done = bool(data.get("done"))
                before = self._placements.get(key)
                # a resubmit that lands where the job already lives
                # changes nothing the journal does not already hold
                unchanged = (before is not None
                             and before.runner == target.url
                             and before.done == done)
                placement = self._track(key, payload, target, done=done,
                                        reserved=True, obs_ctx=obs_ctx)
                if not unchanged:
                    self._journal_place(key, placement,
                                        reroute_reason=reroute_reason)
                if reroute_reason is not None:
                    self._m_reroutes.inc(reason=reroute_reason)
                self.breaker.record_success()
                return target, status, data, placement
            self._unreserve(target)
            if code in _REFUSAL_CODES:
                # alive but shedding; remember the refusal (it carries
                # Retry-After) and offer the job elsewhere
                last_refusal = (target, status, data, None)
                continue
            # anything else (e.g. validation) is a real answer
            return target, status, data, None

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

    def _observe_request(self, route: str, status: int,
                         elapsed_s: float) -> None:
        self._m_requests.inc(route=f"fleet.{route}", status=str(status))
        self._m_latency.observe(elapsed_s, route=f"fleet.{route}")
        self.slo.observe(ok=status < 500, latency_s=elapsed_s)

    def _route(self, method: str, path: str, query):
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            return "healthz", self._h_healthz, ()
        if path == "/metrics" and method == "GET":
            return "metrics", self._h_metrics, (query.get("local"),)
        if parts[:1] == [protocol.API_VERSION]:
            rest = parts[1:]
            if (len(rest) == 3 and rest[:2] == ["obs", "traces"]
                    and method == "GET"):
                return "obs_trace", self._h_obs_trace, (rest[2],)
            if rest == ["obs", "summary"] and method == "GET":
                return "obs_summary", self._h_obs_summary, ()
            if rest == ["obs", "spans"] and method == "GET":
                return "obs_spans", self._h_obs_spans, (
                    query.get("since", "0"),)
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
                return "job", self._h_job, (rest[1],)
            if (len(rest) == 3 and rest[0] == "jobs"
                    and rest[2] == "result" and method == "GET"):
                return "result", self._h_result, (rest[1],)
            if (len(rest) == 3 and rest[0] == "jobs"
                    and rest[2] == "events" and method == "GET"):
                return "events", self._h_events, (rest[1],)
        raise ServerError(f"no route for {method} {path}",
                          status=404, code="not_found")

    def _shed_unless_primary(self) -> None:
        """Job traffic is a primary-only privilege.

        A standby sheds with a retryable 503 until takeover has
        recovered its journaled placements; a fenced
        ex-primary sheds forever (a newer term owns the journal) -- in
        both cases the client's endpoint rotation lands the request on
        the node that is actually serving.
        """
        if self.role == "standby":
            raise ServerError(
                f"standby router (tailing {self._primary.url}); "
                f"not serving jobs until takeover",
                status=503, code="unavailable")
        if self.recovering:
            raise ServerError(
                "router taking over; recovering journaled placements",
                status=503, code="unavailable")
        if self.fenced:
            raise ServerError(
                "router fenced out by a newer primary; use the "
                "standby endpoint", status=503, code="unavailable")

    async def _h_healthz(self, writer, body, headers) -> int:
        healthy = self.routable()
        ok = (bool(healthy) and not self.draining
              and self.role == "primary" and not self.fenced)
        payload = {
            "status": "ok" if ok else "degraded",
            "version": repro.__version__,
            "now": obs.now(),
            "role": self.role,
            "fenced": self.fenced,
            "node": self.node_name,
            "journal": (self.journal.stats()
                        if self.journal is not None else None),
            "slo": self.slo.snapshot(),
            "fleet": {
                "healthy": len(healthy),
                "total": len(self.handles),
                "steal_threshold": self.steal_threshold,
                "placements": len(self._placements),
                "inflight": sum(h.inflight
                                for h in self.handles.values()),
                "breaker": self.breaker.snapshot(),
                "runners": [h.snapshot()
                            for h in self.handles.values()],
            },
        }
        return await self._send_json(writer, 200 if ok else 503, payload)

    async def _h_metrics(self, writer, body, headers,
                         local: Optional[str]) -> int:
        """Fleet-federated Prometheus dump (``?local=1`` skips peers).

        Every reachable runner's ``/metrics`` is merged in with a
        ``runner="<url>"`` label, so one scrape of the router sees the
        whole fleet; a runner that fails mid-scrape is simply absent
        from that pass.
        """
        text = obs.REGISTRY.to_prometheus()
        if not local:
            peers = []
            for handle in self.handles.values():
                if handle.state not in ("healthy", "draining",
                                        "rejected"):
                    continue
                try:
                    peer_text = await self._in_executor(
                        handle.fetch_text, "/metrics")
                except (urllib.error.URLError, OSError):
                    continue
                peers.append((handle.url, peer_text))
            if peers:
                text = obs.federate_metrics(text, peers)
        return await self._send(writer, 200, text.encode("utf-8"),
                                "text/plain; version=0.0.4")

    # -- fleet observability: stitched traces + summary -----------------

    async def _h_obs_trace(self, writer, body, headers,
                           job_id: str) -> int:
        """One whole-fleet Perfetto trace for a routed job.

        A standby answers from its journal mirror -- the trace context
        is journaled with the placement, so stitched traces survive
        the primary that opened them.
        """
        placement = self._placements.get(job_id)
        trace_ctx = placement.trace if placement is not None else (
            (self._mirror.get(job_id) or {}).get("trace"))
        if placement is None and trace_ctx is None:
            raise JobNotFound(f"no job {job_id!r} routed by this fleet")
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
        payload = {
            "role": "router",
            "fleet_role": self.role,
            "fenced": self.fenced,
            "node": self.node_name,
            "journal": (self.journal.stats()
                        if self.journal is not None else None),
            "version": repro.__version__,
            "now": obs.now(),
            "slo": self.slo.snapshot(),
            "traces": {
                "count": len(self.trace_store),
                "dropped": self.trace_store.dropped,
            },
            "spans": {
                "enabled": self.span_buffer is not None,
                "buffered": (len(self.span_buffer)
                             if self.span_buffer is not None else 0),
                "dropped": (self.span_buffer.dropped
                            if self.span_buffer is not None else 0),
            },
            "fleet": {
                "healthy": len(self.routable()),
                "total": len(self.handles),
                "placements": len(self._placements),
                "inflight": sum(h.inflight
                                for h in self.handles.values()),
                "breaker": self.breaker.snapshot(),
            },
            "runners": [h.snapshot() for h in self.handles.values()],
        }
        return await self._send_json(writer, 200, payload)

    async def _h_obs_spans(self, writer, body, headers,
                           since: str) -> int:
        """Drain the ROUTER's own span buffer (standbys tail this so
        the fleet.job root spans survive a primary crash)."""
        try:
            cursor = int(since)
        except (TypeError, ValueError):
            raise ServerError(f"bad since cursor {since!r}",
                              status=400, code="bad_request") from None
        if self.span_buffer is None:
            payload = {"enabled": False, "spans": [], "next": 0,
                       "dropped": 0, "now": obs.now()}
        else:
            spans, next_seq = self.span_buffer.since(cursor)
            payload = {"enabled": True, "spans": spans,
                       "next": next_seq,
                       "dropped": self.span_buffer.dropped,
                       "now": obs.now()}
        return await self._send_json(writer, 200, payload)

    async def _h_journal(self, writer, body, headers,
                         since: str) -> int:
        """The standby's tail cursor into this primary's journal."""
        if self.journal is None:
            raise ServerError(
                "this router runs without a journal (--journal-dir)",
                status=404, code="not_found")
        try:
            cursor = int(since)
        except (TypeError, ValueError):
            raise ServerError(f"bad since cursor {since!r}",
                              status=400, code="bad_request") from None
        payload = self.journal.tail(cursor)
        payload["role"] = self.role
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
        placement = self._placements.get(key)
        if placement is not None and placement.trace is not None:
            # resubmit-dedup: the job already has a root span; attach
            # this placement attempt to the ORIGINAL trace
            return await self._submit_placed(writer, key, payload,
                                             placement, placement.trace)
        # a fresh job opens the fleet-wide root span here at the
        # router, parented on the client's traceparent when present
        # (malformed/absent -> a fresh root, never an error)
        client_ctx = parse_trace_parent(headers)
        with obs.span("fleet.job", parent=client_ctx, key=key[:12],
                      app=payload.get("app"),
                      mode=payload.get("mode")) as root:
            obs_ctx = (root.context() if isinstance(root, obs.Span)
                       else client_ctx)
            return await self._submit_placed(writer, key, payload,
                                             placement, obs_ctx)

    async def _submit_placed(self, writer, key: str,
                             payload: Dict[str, Any],
                             placement: Optional[_Placement],
                             obs_ctx: Optional[Dict[str, str]]) -> int:
        """Route one admitted submission (sticky dedup, then anywhere)."""
        # sticky dedup: a key we already placed goes back to its node
        # (whose content-hash dedup makes the resubmission free)
        exclude = ()
        if placement is not None:
            handle = self.handles.get(placement.runner)
            if handle is not None and handle.routable:
                outcome = await self._forward_submit(
                    key, payload, exclude=[
                        h.url for h in self.handles.values()
                        if h.url != placement.runner],
                    obs_ctx=obs_ctx)
                if outcome is not None:
                    _, status, data, _ = outcome
                    return await self._send_json(writer, status, data)
            exclude = (placement.runner,)
        outcome = await self._forward_submit(
            key, payload,
            exclude=exclude if placement is not None else (),
            obs_ctx=obs_ctx)
        if outcome is None:
            self.breaker.record_failure()
            return await self._send_json(writer, 503, protocol._body(
                "unavailable",
                f"no routable runner among {len(self.handles)} "
                f"(fleet breaker at {self.breaker.snapshot()['failures']}"
                f" strike(s))",
                retry_after_s=self.probe_interval_s))
        _, status, data, _ = outcome
        return await self._send_json(writer, status, data)

    # -- per-job reads --------------------------------------------------

    def _placement_of(self, key: str) -> _Placement:
        placement = self._placements.get(key)
        if placement is None:
            raise JobNotFound(f"no job {key!r} routed by this fleet")
        return placement

    async def _h_job(self, writer, body, headers, key: str) -> int:
        self._shed_unless_primary()
        status, data = await self._forward_job_read(key, f"/v1/jobs/{key}")
        return await self._send_json(writer, status, data)

    async def _h_result(self, writer, body, headers, key: str) -> int:
        self._shed_unless_primary()
        status, data = await self._forward_job_read(
            key, f"/v1/jobs/{key}/result")
        return await self._send_json(writer, status, data)

    async def _scatter_adopt(self, key: str) -> Optional[_Placement]:
        """Rebuild a forgotten placement by asking every runner.

        A torn ``place`` record (crash mid-append) loses a placement
        the fleet still holds; instead of 404ing a job that is alive,
        scatter the read and re-adopt -- and re-journal -- wherever it
        answers.  The adopted placement has no payload (the runner's
        job record carries only app/mode), so it can serve reads but
        not resubmissions; if its runner later dies too, the read path
        drops it and the client's idempotent resubmit is the backstop.
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
            placement = _Placement(handle.url, None)
            placement.done = bool(data.get("done"))
            self._placements[key] = placement
            if not placement.done:
                placement.counted = True
                handle.inflight += 1
                self._m_inflight.set(handle.inflight, runner=handle.url)
            self._m_readopts.inc()
            log.warning("re-adopted unjournaled job %s from %s "
                        "(done=%s)", key[:12], handle.url,
                        placement.done)
            obs.event("fleet.readopted", key=key[:12],
                      runner=handle.url, done=placement.done)
            self._journal_place(key, placement)
            return placement
        return None

    async def _forward_job_read(self, key: str, path: str):
        """Read job state from its runner, healing lost placements.

        A wire error or a runner that forgot the job (it restarted)
        triggers a resubmission to a survivor and answers ``202
        pending`` -- the polling client never observes the failover.
        The read is bounded by the handle's own ``timeout_s``, not
        ``forward_timeout_s``: a state read never waits on a flow, so
        a runner that stalls it is partitioned, and the router must
        answer before the client's own read timeout fires.
        """
        placement = self._placements.get(key)
        if placement is None:
            placement = await self._scatter_adopt(key)
        if placement is None:
            raise JobNotFound(f"no job {key!r} routed by this fleet")
        handle = self.handles.get(placement.runner)
        reason = None
        if handle is None or handle.state == "unhealthy":
            reason = "node_loss"
        else:
            try:
                status, data, _ = await self._in_executor(
                    handle.request, "GET", path)
            except (urllib.error.URLError, OSError) as exc:
                self._note_forward_failure(handle, exc)
                reason = "node_loss"
            else:
                code = ((data.get("error") or {}).get("code")
                        if isinstance(data, dict) else None)
                if code == "not_found" and not placement.done:
                    # the runner restarted and lost its job table
                    reason = "lost_state"
                else:
                    done_now = (bool(data.get("done"))
                                if isinstance(data, dict) else False)
                    if status == 200 and path.endswith("/result"):
                        done_now = True    # a ready result is terminal
                    if done_now or code not in (None, "pending"):
                        self._settle(key, placement,
                                     status=(data.get("status")
                                             if isinstance(data, dict)
                                             else None))
                    return status, data
        self._release(placement)
        if not isinstance(placement.payload, dict):
            # a scatter-adopted placement has no spec to resubmit;
            # forget it so the caller's idempotent resubmit can land
            self._placements.pop(key, None)
            raise JobNotFound(
                f"job {key!r} lost with its runner and no recorded "
                f"payload to resubmit; resubmit it (idempotent)")
        await self._forward_submit(
            key, placement.payload, exclude=(placement.runner,),
            reroute_reason=reason, obs_ctx=placement.trace)
        return 202, protocol._body(
            "pending", f"job {key[:12]} re-routed after {reason}",
            key=key, status="queued", attempts=0, retry_after_s=1.0)

    async def _h_events(self, writer, body, headers, key: str) -> int:
        """Byte-pipe the runner's SSE stream through to the client."""
        self._shed_unless_primary()
        placement = self._placement_of(key)
        parsed = urllib.parse.urlsplit(placement.runner)
        try:
            upstream_r, upstream_w = await asyncio.open_connection(
                parsed.hostname, parsed.port or 80)
        except OSError:
            raise ServerError(
                f"runner {placement.runner} unreachable for event "
                f"stream", status=502, code="unavailable") from None
        try:
            # a reconnecting client's resume cursor rides through to
            # the runner, which replays only the missed events
            resume = ""
            last_id = headers.get("last-event-id")
            if last_id:
                resume = f"Last-Event-ID: {last_id}\r\n"
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
            try:
                upstream_w.close()
                await upstream_w.wait_closed()
            except Exception:           # noqa: BLE001
                pass
        return 200
