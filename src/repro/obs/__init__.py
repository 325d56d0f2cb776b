"""repro.obs: one observability layer for every subsystem.

Hierarchical :mod:`spans <repro.obs.span>` (trace/span ids, contextvars
nesting, dict serialization across pool boundaries), a process-wide
:mod:`metrics registry <repro.obs.metrics>` (labeled counters / gauges /
histograms with Prometheus text + JSON dumps), and :mod:`exporters
<repro.obs.export>` (JSONL sink, Chrome trace events, ASCII timeline).

Spans are **off by default** -- ``span()`` is a no-op until a sink is
attached -- and metrics are always on (one lock + dict update per
observation).  Setting ``$REPRO_TRACE_DIR`` attaches a per-process
:class:`JsonlSink` at import time, which is how pool worker processes
inherit tracing; CLI flags (``--trace-out``) attach an in-memory
collector via :func:`trace_session` instead.
"""

from __future__ import annotations

import contextlib
import os
from typing import Optional

from repro.obs.collect import (
    SpanBuffer, TraceStore, align_spans, clock_offset, federate_metrics,
    format_traceparent, parse_traceparent,
)
from repro.obs.export import (
    JsonlSink, ascii_timeline, chrome_trace, read_jsonl, span_depth,
    write_chrome_trace,
)
from repro.obs.metrics import (
    REGISTRY, Counter, Gauge, Histogram, MetricsRegistry, get_registry,
)
from repro.obs.profiler import StackProfiler
from repro.obs.span import (
    NULL_SPAN, Span, SpanCollector, SpanEvent, add_sink, adopt_spans,
    current_context, current_span, enabled, event, new_trace_id, now,
    remove_sink, span,
)

__all__ = [
    "SpanBuffer", "TraceStore", "align_spans", "clock_offset",
    "federate_metrics", "format_traceparent", "parse_traceparent",
    "JsonlSink", "ascii_timeline", "chrome_trace", "read_jsonl",
    "span_depth", "write_chrome_trace",
    "REGISTRY", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry",
    "StackProfiler",
    "NULL_SPAN", "Span", "SpanCollector", "SpanEvent", "add_sink",
    "adopt_spans", "current_context", "current_span", "enabled",
    "event", "new_trace_id", "now", "remove_sink", "span",
    "configure_from_env", "trace_session",
]

_env_sink: Optional[JsonlSink] = None


def configure_from_env() -> Optional[JsonlSink]:
    """Attach a per-process JSONL sink when ``$REPRO_TRACE_DIR`` is set.

    Idempotent; returns the sink (or None).  Pool worker processes
    inherit the environment, so every process of a traced run writes
    its own ``trace-<pid>.jsonl`` under the same directory.
    """
    global _env_sink
    root = os.environ.get("REPRO_TRACE_DIR") or None
    if root is None or _env_sink is not None:
        return _env_sink
    try:
        path = os.path.join(root, f"trace-{os.getpid()}.jsonl")
        _env_sink = add_sink(JsonlSink(path))
    except OSError:
        _env_sink = None  # unwritable dir: tracing stays off
    return _env_sink


@contextlib.contextmanager
def trace_session(trace_out: Optional[str] = None,
                  metrics_out: Optional[str] = None,
                  root: Optional[str] = None, collect: bool = False,
                  **root_attrs):
    """CLI session: collect spans, then export on exit.

    Attaches an in-memory collector (when ``trace_out`` is given or a
    span-consuming caller passes ``collect=True``), opens an optional
    root span, and on exit writes the Chrome trace to ``trace_out`` and
    the Prometheus text dump to ``metrics_out``.  Yields the collector
    (or None when nothing was requested).
    """
    if trace_out is None and metrics_out is None and not collect:
        yield None
        return
    collector: Optional[SpanCollector] = None
    if trace_out is not None or collect:
        collector = add_sink(SpanCollector())
    try:
        if collector is not None and root is not None:
            with span(root, **root_attrs):
                yield collector
        else:
            yield collector
    finally:
        if collector is not None:
            remove_sink(collector)
        if trace_out is not None:
            write_chrome_trace(collector.snapshot(), trace_out)
        if metrics_out is not None:
            with open(metrics_out, "w", encoding="utf-8") as fh:
                fh.write(REGISTRY.to_prometheus())


configure_from_env()
