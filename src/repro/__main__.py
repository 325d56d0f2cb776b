"""Top-level CLI: drive PSA-flows from the shell.

    python -m repro list
    python -m repro run <app> [--mode informed|uninformed]
                             [--export-dir DIR] [--trace] [--time]
                             [--timeline]
    python -m repro eval <fig5|table1|fig6|table2|energy|report|all>
                         [--server URL]
    python -m repro batch [--all | --apps a,b] [--modes m1,m2]
                          [--jobs N] [--pool auto] [--timeout S]
                          [--telemetry] [--json PATH] [--server URL]
    python -m repro serve [--host H] [--port P] [--max-queue N]
                          [--drain-timeout S] [--peers URL,URL]
    python -m repro router [--host H] [--port P] [--runners URL,URL]
                           [--steal-threshold N] [--probe-interval S]
                           [--journal-dir DIR] [--standby-of URL]
                           [--node-name NAME]
    python -m repro obs <top|trace> [--server URL] ...
    python -m repro config
    python -m repro service <stats|ls|purge|dead-letter> --cache-dir DIR
                            [--clear]

Every flow-running subcommand (``run``, ``eval``, ``batch``,
``serve``, ``config``) shares one flag vocabulary, layered over the
``REPRO_*`` environment by :class:`repro.config.ReproConfig`
(env < flag < explicit kwarg):

    --cache-dir DIR    persistent result cache
    --workers N        service worker pool size
    --retries N        per-job retry budget
    --trace-out PATH   write a Perfetto-loadable Chrome trace
    --metrics-out PATH write the Prometheus text dump

``python -m repro config`` prints the fully-resolved configuration as
JSON, so an operator can check what any process would run with.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro import obs
from repro.apps.registry import ALL_APPS, get_app
from repro.config import ConfigError, ReproConfig


def _config_from_args(args) -> ReproConfig:
    """env < CLI flag, for the flags every subcommand shares."""
    return ReproConfig.resolve(cli={
        "cache_dir": getattr(args, "cache_dir", None),
        "workers": getattr(args, "workers", None),
        "retries": getattr(args, "retries", None),
        "fleet_runners": getattr(args, "runners", None),
        "fleet_peers": getattr(args, "peers", None),
        "fleet_steal_threshold": getattr(args, "steal_threshold", None),
        "fleet_probe_interval_s": getattr(args, "probe_interval", None),
        "journal_dir": getattr(args, "journal_dir", None),
        "fleet_standby_of": getattr(args, "standby_of", None),
    })


def cmd_list(_args) -> int:
    print(f"{'app':14s} {'display name':14s} {'ref LOC':>7s}  summary")
    for name in sorted(ALL_APPS):
        app = ALL_APPS[name]
        print(f"{name:14s} {app.display_name:14s} "
              f"{app.reference_loc:7d}  {app.summary}")
    return 0


def cmd_config(args) -> int:
    print(_config_from_args(args).to_json())
    return 0


#: ``run --time`` rows in print order
PHASE_ROWS = ("parse", "analysis exec", "analysis tasks", "transforms",
              "DSE", "codegen", "other")
_KIND_ROWS = {"A": "analysis tasks", "T": "transforms", "O": "DSE",
              "CG": "codegen"}


def _phase_of(span) -> Optional[str]:
    if span.name == "parse":
        return "parse"
    if span.name == "execute_unit":
        return "analysis exec"
    return _KIND_ROWS.get(span.attrs.get("kind"))


def phase_totals(spans) -> Dict[str, float]:
    """Exclusive wall seconds per :data:`PHASE_ROWS` row, plus ``total``.

    A span's exclusive time is its wall minus the union of its
    children's intervals (clipped to its own), so nested work counts
    once, in the innermost classified span: an ``execute_unit`` inside
    an analysis or DSE task lands in "analysis exec" only.  The
    ``parse`` / ``execute_unit`` chokepoint spans and the flow-task
    spans (by their ``kind`` attribute) are classified; any other span
    (``dse.sweep``, ``profile.collect``, PSA branches) counts toward
    its nearest classified ancestor, and work under none toward
    "other".  ``total`` is the summed wall of the roots -- spans whose
    parent is not in ``spans`` -- which the rows add up to whenever
    sibling spans do not overlap, as within one flow.
    """
    by_id = {s.span_id: s for s in spans}
    children: Dict[Optional[str], list] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    totals = dict.fromkeys(PHASE_ROWS, 0.0)
    totals["total"] = 0.0
    for s in spans:
        end = s.t0 + s.wall_s
        covered, cursor = 0.0, s.t0
        for child in sorted(children.get(s.span_id, ()),
                            key=lambda c: c.t0):
            lo, hi = max(child.t0, cursor), min(child.t0 + child.wall_s, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        owner, phase = s, _phase_of(s)
        while phase is None and owner.parent_id in by_id:
            owner = by_id[owner.parent_id]
            phase = _phase_of(owner)
        totals[phase or "other"] += s.wall_s - covered
        if s.parent_id not in by_id:
            totals["total"] += s.wall_s
    return totals


def _render_phases(spans, total_label: str = "total flow") -> str:
    """``run --time`` / ``batch --telemetry``: the exclusive breakdown."""
    from repro.lang.engine import execution_mode

    totals = phase_totals(spans)
    runs = sum(1 for s in spans if s.name == "execute_unit")
    notes = {"analysis exec": f"({runs} program runs, "
                              f"engine={execution_mode()})",
             "analysis tasks": "(excl. exec)", "DSE": "(excl. exec)",
             "other": "(flow and service glue)"}
    rows = [(name, totals[name], notes.get(name, ""))
            for name in PHASE_ROWS]
    rows.append((total_label, totals["total"], "(sum of the rows)"))
    width = max(len(name) for name, _, _ in rows)
    lines = ["phase breakdown (wall):"]
    for name, secs, note in rows:
        suffix = f"   {note}" if note else ""
        lines.append(f"  {name:{width}s} {secs * 1e3:9.1f} ms{suffix}")
    return "\n".join(lines)


def _export_design(design, path: str) -> Optional[str]:
    """Write one design's source; returns an error note or None."""
    export = getattr(design, "export", None)
    if export is not None:
        export(path)
        return None
    try:
        source = design.render()       # FlowResultRecord designs
    except ValueError as exc:
        return str(exc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source)
    return None


def cmd_run(args) -> int:
    from repro import api

    cfg = _config_from_args(args).apply()
    app = get_app(args.app)
    want_spans = (getattr(args, "time", False) or args.trace_out
                  or args.timeline)
    collector = obs.add_sink(obs.SpanCollector()) if want_spans else None
    try:
        result = api.run_flow(args.app, args.mode, config=cfg)
    finally:
        if collector is not None:
            obs.remove_sink(collector)
    spans = collector.snapshot() if collector is not None else []
    if getattr(args, "time", False):
        print(_render_phases(spans))
        print()
    if args.timeline:
        print(obs.ascii_timeline(spans))
        print()
    if args.trace:
        print(result.explain())
        print()
    print(f"app: {app.display_name}   mode: {args.mode}")
    print(f"informed selection: {result.selected_target}")
    print(f"reference hotspot (1-thread CPU): "
          f"{result.reference_time_s * 1e3:.3f} ms")
    for design in result.designs:
        if design.synthesizable:
            print(f"  {design.metadata.get('device_label'):12s} "
                  f"{design.speedup:8.1f}x   "
                  f"{design.predicted_time_s * 1e3:9.3f} ms   "
                  f"+{design.loc_delta_pct:.0f}% LOC")
        else:
            print(f"  {design.metadata.get('device_label'):12s} "
                  f"unsynthesizable: {design.failure_reason}")
    if args.json:
        from repro.flow.serialize import dump_result

        dump_result(result, args.json)
        print(f"  result JSON written to {args.json}")
    if args.export_dir:
        os.makedirs(args.export_dir, exist_ok=True)
        for design in result.designs:
            label = design.metadata.get("device_label", "design")
            path = os.path.join(args.export_dir,
                                f"{app.name}_{label}.cpp")
            note = _export_design(design, path)
            if note is None:
                print(f"  exported {path}")
            else:
                print(f"  cannot export {label}: {note}")
    if args.trace_out:
        obs.write_chrome_trace(spans, args.trace_out)
        print(f"  chrome trace ({len(spans)} spans) written to "
              f"{args.trace_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(obs.REGISTRY.to_prometheus())
        print(f"  metrics written to {args.metrics_out}")
    return 0


def cmd_eval(args) -> int:
    from repro.evalharness.__main__ import main as eval_main

    _config_from_args(args).apply()
    if args.server:
        # the shared EvaluationRunner picks this up and routes every
        # flow through ReproClient instead of the local service
        os.environ["REPRO_SERVER"] = args.server
    argv = [args.experiment]
    if args.trace_out:
        argv += ["--trace-out", args.trace_out]
    if args.metrics_out:
        argv += ["--metrics-out", args.metrics_out]
    return eval_main(argv)


def _batch_remote(args, jobs) -> int:
    """``batch --server``: run the job list through a remote server."""
    from repro.client import ReproClient
    from repro.service.scheduler import JobError

    client = ReproClient(args.server)
    print(f"batch: {len(jobs)} jobs on {args.server}")
    failed = 0
    for job in jobs:
        try:
            record = client.run_flow(job.app, job.mode,
                                     timeout=args.timeout)
        except (JobError, OSError) as exc:
            failed += 1
            print(f"[{'remote':12s}] {job.label:26s} FAILED: {exc}")
            continue
        speedups = [(d.speedup, d.label) for d in record.designs
                    if d.synthesizable and d.speedup is not None]
        best = (f"best {max(speedups)[0]:7.1f}x ({max(speedups)[1]})"
                if speedups else "no synthesizable design")
        print(f"[{'remote':12s}] {job.label:26s} {best}")
    print(f"done: {len(jobs) - failed}/{len(jobs)} ok")
    return 0 if failed == 0 else 1


def _render_batch(report, spans, top: int = 5) -> str:
    """``batch --telemetry``: sources, cache counts, phases, slow jobs."""
    lines = ["== batch telemetry ==",
             f"jobs: {len(report.items)} total | run {report.count('run')}"
             f" | cache "
             f"{report.count('cache-disk') + report.count('cache-memory')}"
             f" | inflight-joins {report.count('inflight')}"
             f" | failed {len(report.failed)}"]
    if report.cache_stats is not None:
        stats = report.cache_stats
        lines.append(f"disk cache: {stats['hits']} hits / "
                     f"{stats['misses']} misses / {stats['writes']} "
                     f"writes / {stats['invalidated']} invalidated")
    if spans:
        lines.append(_render_phases(spans, total_label="total jobs"))
    executed = sorted((item for item in report.items
                       if item.source == "run"),
                      key=lambda item: -item.wall_s)
    if executed:
        lines.append(f"slowest jobs (of {len(executed)} executed):")
        for item in executed[:top]:
            lines.append(f"  {item.job.label:28s}{item.wall_s:8.2f}s  "
                         f"({'ok' if item.ok else 'failed'})")
    return "\n".join(lines)


def _batch_json(report, spans) -> dict:
    """``batch --json``: per-job outcomes, cache counts, phase totals."""
    return {
        "jobs": [{"app": item.job.app, "mode": item.job.mode,
                  "source": item.source, "ok": item.ok,
                  "wall_s": item.wall_s,
                  "error": str(item.error) if item.error else None}
                 for item in report.items],
        "cache": report.cache_stats,
        "phases": phase_totals(spans),
    }


def cmd_batch(args) -> int:
    import json as _json

    from repro.service import (
        DesignService, JobValidationError, expand_jobs, run_batch,
    )

    try:
        cfg = _config_from_args(args).apply()
    except ConfigError as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return 2
    apps = args.apps.split(",") if args.apps else None
    modes = args.modes.split(",") if args.modes else None
    if not args.all and apps is None:
        print("batch: select work with --all or --apps a,b "
              "(optionally --modes informed,uninformed)")
        return 2
    job_kwargs = {}
    if args.timeout is not None:
        job_kwargs["timeout_s"] = args.timeout
    if args.retries is not None:
        job_kwargs["retries"] = args.retries
    try:
        jobs = expand_jobs(apps, modes, **job_kwargs)
    except (KeyError, JobValidationError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"batch: {message}", file=sys.stderr)
        return 2
    if args.server:
        return _batch_remote(args, jobs)

    def show(item):
        if item.ok:
            best = (f"best {item.best_speedup:7.1f}x ({item.best_label})"
                    if item.best_speedup is not None
                    else "no synthesizable design")
            print(f"[{item.source:12s}] {item.job.label:26s} {best}"
                  f"{item.wall_s:8.2f}s")
        else:
            print(f"[{item.source:12s}] {item.job.label:26s} "
                  f"FAILED: {item.error}")

    with obs.trace_session(args.trace_out, args.metrics_out,
                           root="batch", jobs=len(jobs),
                           collect=args.telemetry or bool(args.json)
                           ) as collector, \
         DesignService(cache_dir=cfg.cache_dir, workers=cfg.workers,
                       pool=args.pool) as service:
        if service.scheduler.fallback_note:
            print(f"note: {service.scheduler.fallback_note}")
        print(f"batch: {len(jobs)} jobs on {cfg.workers} "
              f"{service.scheduler.mode} worker(s)"
              + (f", cache at {cfg.cache_dir}" if cfg.cache_dir else ""))
        report = run_batch(service, jobs, on_item=show)
        disk = report.count("cache-disk")
        memory = report.count("cache-memory")
        misses = (report.cache_stats or {}).get("misses", 0)
        print(f"done: {len(report.items) - len(report.failed)}/"
              f"{len(report.items)} ok | "
              f"cache hits {disk + memory} "
              f"(disk {disk}, memory {memory}) | "
              f"misses {misses} | runs {report.count('run')}")
        # the session root is still open, so each executed job's
        # service.job span is a root of this snapshot
        spans = collector.snapshot() if collector is not None else []
        if args.telemetry:
            print()
            print(_render_batch(report, spans))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(_batch_json(report, spans), fh, indent=2)
            print(f"telemetry JSON written to {args.json}")
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    import logging

    from repro import api
    from repro.server import ReproServer

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    cfg = _config_from_args(args).apply()
    service = api.open_service(cfg)
    server = ReproServer(service, host=args.host, port=args.port,
                         max_queue=args.max_queue,
                         drain_timeout_s=args.drain_timeout,
                         config=cfg)
    try:
        server.run()
    finally:
        service.close()
    return 0


def cmd_router(args) -> int:
    import logging

    from repro.fleet import FleetRouter

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    cfg = _config_from_args(args).apply()
    runners = cfg.runner_list()
    if not runners:
        print("router: no runners configured; pass --runners URL,URL "
              "or set $REPRO_FLEET_RUNNERS", file=sys.stderr)
        return 2
    router = FleetRouter(
        runners, host=args.host, port=args.port,
        steal_threshold=cfg.fleet_steal_threshold,
        probe_interval_s=cfg.fleet_probe_interval_s,
        # span collection is on by default for a router; REPRO_OBS_BUFFER
        # can only resize it upward from the CLI, never disable tracing
        obs_buffer=cfg.obs_buffer or 4096,
        journal_dir=cfg.journal_dir,
        node_name=getattr(args, "node_name", None),
        standby_of=cfg.fleet_standby_of)
    router.run()
    return 0


def cmd_obs(args) -> int:
    from repro.obs import console

    server = args.server or os.environ.get("REPRO_SERVER",
                                           "http://127.0.0.1:8000")
    if args.action == "top":
        return console.run_top(server, interval_s=args.interval,
                               once=args.once)
    return console.run_trace(server, args.job_id, out_path=args.out,
                             timeline=args.timeline)


def cmd_service(args) -> int:
    from repro.service import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        entries = list(cache.entries())
        print(f"cache at {cache.root}")
        print(f"entries: {len(entries)}   "
              f"size: {cache.size_bytes() / 1024:.1f} KiB")
        by_app = {}
        for entry in entries:
            job = entry.get("job") or {}
            label = f"{job.get('app', '?')}/{job.get('mode', '?')}"
            by_app[label] = by_app.get(label, 0) + 1
        for label in sorted(by_app):
            print(f"  {label:26s} {by_app[label]} entry(ies)")
    elif args.action == "ls":
        for entry in cache.entries():
            job = entry.get("job") or {}
            designs = (entry.get("result") or {}).get("designs") or []
            speedups = [d.get("speedup") for d in designs
                        if d.get("speedup") is not None]
            best = f"{max(speedups):8.1f}x" if speedups else "     n/a"
            print(f"{entry.get('key', '?')[:12]}  "
                  f"{job.get('app', '?'):12s} {job.get('mode', '?'):11s} "
                  f"{len(designs)} designs  best {best}")
    elif args.action == "purge":
        removed = cache.purge()
        print(f"purged {removed} entry(ies) from {cache.root}")
    elif args.action == "dead-letter":
        from repro.resilience import DEAD_LETTER_DIRNAME, DeadLetterQueue

        dlq = DeadLetterQueue(os.path.join(args.cache_dir,
                                           DEAD_LETTER_DIRNAME))
        if args.clear:
            released = dlq.purge()
            print(f"released {released} dead-lettered job(s)")
            return 0
        entries = dlq.entries()
        quarantined_files = list(cache.quarantined())
        if not entries and not quarantined_files:
            print(f"dead-letter queue at {dlq.root}: empty")
            return 0
        for record in entries:
            job = record.get("job") or {}
            print(f"{record.get('key', '?')[:12]}  "
                  f"{job.get('app', '?'):12s} {job.get('mode', '?'):11s} "
                  f"crashes={record.get('crashes', 0)} "
                  f"attempts={record.get('attempts', 0)}  "
                  f"{record.get('reason', '?')}")
        if quarantined_files:
            print(f"({len(quarantined_files)} corrupt cache file(s) "
                  f"in {os.path.join(cache.root, '.quarantine')})")
    return 0


def _add_obs_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write a Chrome trace-event JSON of the run "
                          "(load in Perfetto / chrome://tracing)")
    sub.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write the Prometheus text metrics dump")


def _common_parent() -> argparse.ArgumentParser:
    """The flag vocabulary every flow-running subcommand shares.

    Defaults are all ``None`` ("not given") so
    :meth:`ReproConfig.resolve` can layer them over the environment.
    """
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("shared configuration "
                                      "(env < flag; see `repro config`)")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent result cache directory "
                            "($REPRO_CACHE_DIR)")
    group.add_argument("--workers", type=int, default=None, metavar="N",
                       help="service worker pool size ($REPRO_WORKERS)")
    group.add_argument("--retries", type=int, default=None, metavar="N",
                       help="retry failed/timed-out jobs up to N times "
                            "($REPRO_RETRIES)")
    _add_obs_flags(group)
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PSA-flows: auto-generate diverse heterogeneous "
                    "designs from a single high-level source")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parent()

    sub.add_parser("list", help="list the benchmark applications") \
        .set_defaults(func=cmd_list)

    run = sub.add_parser("run", parents=[common],
                         help="run the Fig. 4 PSA-flow on an app")
    run.add_argument("app", choices=sorted(ALL_APPS))
    run.add_argument("--mode", choices=("informed", "uninformed"),
                     default="informed")
    run.add_argument("--export-dir", default=None,
                     help="export every generated design here")
    run.add_argument("--trace", action="store_true",
                     help="print the full decision trace")
    run.add_argument("--time", action="store_true",
                     help="print a per-phase wall-time breakdown "
                          "(parse / analysis exec / DSE / codegen)")
    run.add_argument("--json", default=None, metavar="PATH",
                     help="dump the flow result (designs, decisions, "
                          "profile) as JSON")
    run.add_argument("--timeline", action="store_true",
                     help="print an ASCII span timeline of the run")
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", parents=[common],
                        help="regenerate the paper's experiments")
    ev.add_argument("experiment",
                    choices=("fig5", "table1", "fig6", "table2",
                             "energy", "report", "all"))
    ev.add_argument("--server", default=None, metavar="URL",
                    help="run every flow on a `repro serve` instance "
                         "($REPRO_SERVER)")
    ev.set_defaults(func=cmd_eval)

    batch = sub.add_parser(
        "batch", parents=[common],
        help="run many PSA-flows through the design service")
    batch.add_argument("--all", action="store_true",
                       help="all apps x all modes (10 jobs)")
    batch.add_argument("--apps", default=None, metavar="A,B",
                       help="comma-separated app subset")
    batch.add_argument("--modes", default=None, metavar="M1,M2",
                       help="comma-separated mode subset "
                            "(informed,uninformed)")
    batch.add_argument("--jobs", type=int, default=None, metavar="N",
                       dest="workers",
                       help="worker count (alias for --workers)")
    batch.add_argument("--pool", choices=("auto", "thread", "process"),
                       default="auto",
                       help="worker pool kind (auto: processes when "
                            "workers > 1, thread fallback)")
    batch.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job attempt timeout in seconds")
    batch.add_argument("--telemetry", action="store_true",
                       help="print the batch telemetry report")
    batch.add_argument("--json", default=None, metavar="PATH",
                       help="dump batch telemetry as JSON")
    batch.add_argument("--server", default=None, metavar="URL",
                       help="run the batch against a `repro serve` "
                            "instance instead of a local service")
    batch.set_defaults(func=cmd_batch)

    serve = sub.add_parser(
        "serve", parents=[common],
        help="serve the /v1 design-job HTTP API over a DesignService")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--max-queue", type=int, default=8, metavar="N",
                       help="max uncached jobs in flight before "
                            "shedding with 429 (default 8)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="S",
                       help="graceful-shutdown drain budget (default 30)")
    serve.add_argument("--peers", default=None, metavar="URL,URL",
                       help="fleet peers this runner may fetch cached "
                            "results from ($REPRO_FLEET_PEERS)")
    serve.set_defaults(func=cmd_serve)

    router = sub.add_parser(
        "router", parents=[common],
        help="shard /v1 jobs across a fleet of `repro serve` runners")
    router.add_argument("--host", default="127.0.0.1")
    router.add_argument("--port", type=int, default=8000,
                        help="TCP port (0 picks a free one)")
    router.add_argument("--runners", default=None, metavar="URL,URL",
                        help="comma-separated runner base URLs "
                             "($REPRO_FLEET_RUNNERS)")
    router.add_argument("--steal-threshold", type=int, default=None,
                        metavar="N",
                        help="owner queue depth past which jobs go to "
                             "the least-loaded runner "
                             "($REPRO_FLEET_STEAL_THRESHOLD)")
    router.add_argument("--probe-interval", type=float, default=None,
                        metavar="S",
                        help="runner health-probe period "
                             "($REPRO_FLEET_PROBE_INTERVAL)")
    router.add_argument("--journal-dir", default=None, metavar="DIR",
                        help="write-ahead journal + lease directory; "
                             "enables crash recovery and failover "
                             "($REPRO_JOURNAL_DIR)")
    router.add_argument("--standby-of", default=None, metavar="URL",
                        help="run as the warm standby of this primary "
                             "router ($REPRO_FLEET_STANDBY_OF)")
    router.add_argument("--node-name", default=None, metavar="NAME",
                        help="journal/lease identity of this router "
                             "process (default: primary or standby)")
    router.set_defaults(func=cmd_router)

    obs_cmd = sub.add_parser(
        "obs", help="live fleet console and stitched-trace viewer")
    obs_sub = obs_cmd.add_subparsers(dest="action", required=True)
    top = obs_sub.add_parser(
        "top", help="ASCII dashboard over /v1/obs/summary + /metrics")
    top.add_argument("--server", default=None, metavar="URL",
                     help="router or runner base URL ($REPRO_SERVER, "
                          "default http://127.0.0.1:8000)")
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="refresh period (default 2s)")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (no ANSI clear)")
    top.set_defaults(func=cmd_obs)
    trace = obs_sub.add_parser(
        "trace", help="fetch one job's whole-fleet stitched trace")
    trace.add_argument("job_id")
    trace.add_argument("--server", default=None, metavar="URL",
                       help="router base URL ($REPRO_SERVER)")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="write the Perfetto-loadable JSON here")
    trace.add_argument("--timeline", action="store_true",
                       help="also print the ASCII timeline (default "
                            "when --out is not given)")
    trace.set_defaults(func=cmd_obs)

    config = sub.add_parser(
        "config", parents=[common],
        help="print the resolved REPRO_* configuration as JSON")
    fleet = config.add_argument_group(
        "fleet settings (REPRO_FLEET_*; see `serve` and `router`)")
    fleet.add_argument("--runners", default=None, metavar="URL,URL",
                       help="router: runner base URLs")
    fleet.add_argument("--peers", default=None, metavar="URL,URL",
                       help="runner: peer URLs for cache read-through")
    fleet.add_argument("--steal-threshold", type=int, default=None,
                       metavar="N", help="router: owner queue depth "
                       "that triggers work stealing")
    fleet.add_argument("--probe-interval", type=float, default=None,
                       metavar="S", help="router: seconds between "
                       "runner health probes")
    config.set_defaults(func=cmd_config)

    svc = sub.add_parser(
        "service", help="inspect/maintain the persistent result cache")
    svc.add_argument("action",
                     choices=("stats", "ls", "purge", "dead-letter"))
    svc.add_argument("--cache-dir", required=True, metavar="DIR")
    svc.add_argument("--clear", action="store_true",
                     help="with dead-letter: release every "
                          "quarantined job")
    svc.set_defaults(func=cmd_service)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # e.g. `... service ls | head`; die quietly like other CLIs
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
