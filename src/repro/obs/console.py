"""`repro obs` console: a live fleet dashboard and trace viewer.

``python -m repro obs top`` polls one endpoint pair -- the router's
``/v1/obs/summary`` and its federated ``/metrics`` -- and renders an
ASCII dashboard: fleet totals, then one row per runner (state,
in-flight, shed counts, cache hit tiers, breaker state).  The
rendering is a pure function of ``(summary, samples)`` so tests
snapshot it without a terminal; the loop just clears the screen and
re-renders.  Pointing it at a single runner instead of a router also
works -- the summary says ``role: runner`` and the per-runner table
collapses to local metrics.

``python -m repro obs trace <job_id>`` fetches the stitched
Perfetto JSON from ``/v1/obs/traces/{job_id}`` and either writes it to
a file or folds the Chrome events back into spans for the existing
ASCII timeline renderer.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
import time
import urllib.error
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.span import Span
from repro.server import http

#: one Prometheus sample: (metric name, labels, value)
Sample = Tuple[str, Dict[str, str], float]

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> List[Sample]:
    """Parse the Prometheus text format into ``(name, labels, value)``."""
    samples: List[Sample] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, brace, rest = line.partition("{")
        if brace:
            label_blob, _, value_part = rest.rpartition("}")
            labels = {m.group(1): (m.group(2)
                                   .replace(r'\"', '"')
                                   .replace(r"\n", "\n")
                                   .replace(r"\\", "\\"))
                      for m in _LABEL_RE.finditer(label_blob)}
        else:
            name, _, value_part = line.partition(" ")
            labels = {}
        try:
            value = float(value_part.strip().split()[0])
        except (ValueError, IndexError):
            continue
        samples.append((name.strip(), labels, value))
    return samples


def metric_sum(samples: Iterable[Sample], name: str,
               **labels: str) -> float:
    """Sum of samples matching ``name`` and the given label subset."""
    total = 0.0
    for sample_name, sample_labels, value in samples:
        if sample_name != name:
            continue
        if all(sample_labels.get(k) == v for k, v in labels.items()):
            total += value
    return total


def label_values(samples: Iterable[Sample], name: str,
                 label: str) -> List[str]:
    """Sorted distinct values of ``label`` across ``name``'s samples."""
    return sorted({sample_labels[label]
                   for sample_name, sample_labels, _ in samples
                   if sample_name == name and label in sample_labels})


# -------------------------------------------------------------------------
# Rendering (pure: summary dict + samples -> text)
# -------------------------------------------------------------------------
def _fmt_count(value: float) -> str:
    if value >= 10000:
        return f"{value / 1000:.0f}k"
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def render_top(summary: Dict[str, Any],
               samples: List[Sample]) -> str:
    """The dashboard frame as plain text (no ANSI)."""
    lines: List[str] = []
    role = summary.get("role", "runner")
    version = summary.get("version", "?")
    lines.append(f"repro fleet console · {role} v{version} · "
                 f"traces {((summary.get('traces') or {}).get('count', 0))}")
    fleet = summary.get("fleet") or {}
    if fleet:
        lines.append(
            f"runners {fleet.get('healthy', 0)}/{fleet.get('total', 0)} "
            f"healthy · placements {fleet.get('placements', 0)} · "
            f"inflight {fleet.get('inflight', 0)} · breaker "
            f"{(fleet.get('breaker') or {}).get('state', '?')}")
    lines.append("")

    runners = [r.get("url", "?") for r in summary.get("runners") or ()]
    if not runners:
        # single-node mode: everything under one implicit row
        runners = label_values(samples, "repro_server_jobs_inflight",
                               "runner") or [""]
    header = (f"{'runner':<28} {'state':<10} {'infl':>5} {'shed':>5} "
              f"{'hit:mem':>8} {'hit:disk':>9} {'miss':>6} "
              f"{'brkr':>5}")
    lines.append(header)
    lines.append("-" * len(header))
    states = {r.get("url"): r for r in summary.get("runners") or ()}

    for runner in runners:
        sel = {"runner": runner} if runner else {}
        state = states.get(runner, {})
        inflight = metric_sum(samples, "repro_server_jobs_inflight",
                              **sel)
        shed = metric_sum(samples, "repro_server_jobs_shed_total", **sel)
        hit_mem = metric_sum(samples, "repro_profile_cache_total",
                             tier="memory", **sel)
        hit_disk = metric_sum(samples, "repro_profile_cache_total",
                              tier="disk", **sel)
        miss = metric_sum(samples, "repro_profile_cache_total",
                          tier="miss", **sel)
        breakers_open = sum(
            1 for name, labels, value in samples
            if name == "repro_breaker_state" and value > 0
            and all(labels.get(k) == v for k, v in sel.items()))
        label = runner or "(local)"
        lines.append(
            f"{label:<28.28} {state.get('state', 'up'):<10} "
            f"{_fmt_count(inflight):>5} {_fmt_count(shed):>5} "
            f"{_fmt_count(hit_mem):>8} {_fmt_count(hit_disk):>9} "
            f"{_fmt_count(miss):>6} {breakers_open:>5}")

    reroutes = metric_sum(samples, "repro_fleet_reroutes_total")
    steals = metric_sum(samples, "repro_fleet_steals_total")
    dropped = metric_sum(samples, "repro_metrics_dropped_labels_total")
    lines.append("")
    lines.append(f"fleet: reroutes {_fmt_count(reroutes)} · steals "
                 f"{_fmt_count(steals)} · dropped-label obs "
                 f"{_fmt_count(dropped)}")
    return "\n".join(lines)


# -------------------------------------------------------------------------
# Fetch + loop
# -------------------------------------------------------------------------
def fetch_text(server: str, path: str, timeout_s: float = 10.0) -> str:
    """GET ``path``; an error status raises ``urllib.error.HTTPError``."""
    with contextlib.closing(http.ConnectionPool()) as pool:
        return http.fetch_text(pool, server.rstrip("/"), path, timeout_s)


def fetch_json(server: str, path: str,
               timeout_s: float = 10.0) -> Dict[str, Any]:
    return json.loads(fetch_text(server, path, timeout_s))


def run_top(server: str, interval_s: float = 2.0, once: bool = False,
            stream=None) -> int:
    """Poll and render until interrupted; returns an exit code."""
    out = stream or sys.stdout
    while True:
        try:
            summary = fetch_json(server, "/v1/obs/summary")
            samples = parse_prometheus(fetch_text(server, "/metrics"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"error: cannot reach {server}: {exc}", file=sys.stderr)
            return 1
        frame = render_top(summary, samples)
        if once:
            print(frame, file=out)
            return 0
        # ANSI clear + home, then the frame
        print("\x1b[2J\x1b[H" + frame, file=out, flush=True)
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:
            return 0


# -------------------------------------------------------------------------
# Trace viewing
# -------------------------------------------------------------------------
def spans_from_chrome(trace: Dict[str, Any]) -> List[Span]:
    """Fold Chrome ``X`` events back into spans for the ASCII timeline."""
    spans: List[Span] = []
    for event in trace.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        args = event.get("args") or {}
        t0 = float(event.get("ts", 0.0)) / 1e6
        spans.append(Span(
            name=event.get("name", "?"),
            trace_id=str(args.get("trace_id") or ""),
            span_id=str(args.get("span_id") or ""),
            parent_id=args.get("parent_id"),
            t0=t0,
            end=t0 + float(event.get("dur", 0.0)) / 1e6,
            status=str(args.get("status", "ok")),
            error=args.get("error"),
            attrs={k: v for k, v in args.items()
                   if k not in ("span_id", "parent_id", "trace_id",
                                "status", "error")},
        ))
    return spans


def run_trace(server: str, job_id: str, out_path: Optional[str] = None,
              timeline: bool = False, stream=None) -> int:
    """Fetch the stitched trace for ``job_id`` and show or save it."""
    out = stream or sys.stdout
    try:
        trace = fetch_json(server, f"/v1/obs/traces/{job_id}")
    except urllib.error.HTTPError as exc:
        print(f"error: {exc.code} fetching trace for {job_id}",
              file=sys.stderr)
        return 1
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"error: cannot reach {server}: {exc}", file=sys.stderr)
        return 1
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(trace.get('traceEvents', ()))} events to "
              f"{out_path}", file=out)
    if timeline or not out_path:
        from repro.obs.export import ascii_timeline
        spans = spans_from_chrome(trace)
        runners = sorted({str(s.attrs.get("runner"))
                          for s in spans if s.attrs.get("runner")})
        print(f"trace for {job_id}: {len(spans)} spans across "
              f"{len(runners) or 1} node(s)"
              + (f" [{', '.join(runners)}]" if runners else ""),
              file=out)
        print(ascii_timeline(spans, width=40), file=out)
    return 0
