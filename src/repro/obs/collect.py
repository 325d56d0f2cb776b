"""Fleet-wide span collection: buffers, trace stitching, federation.

The PR 3 span layer stops at a process boundary crossed by *pools*;
this module carries traces across the *wire* so one job submitted to a
fleet yields ONE stitched trace:

- **traceparent format** -- :func:`format_traceparent` /
  :func:`parse_traceparent` encode a span context as a W3C-style
  ``00-<trace_id>-<span_id>-01`` header value.  ``ReproClient`` and the
  fleet router stamp it onto outgoing requests; the runner adopts it as
  the parent of its ``service.job`` span.  A malformed value parses to
  ``None`` -- the receiver opens a fresh root rather than failing.
- :class:`SpanBuffer` -- a bounded ring-buffer sink every server
  process attaches.  Finished spans are kept as dicts with a monotonic
  sequence number; ``GET /v1/obs/spans?since=N`` drains increments, so
  a central collector can tail a runner without resetting it.
- :class:`TraceStore` -- the router-side aggregate: span batches pulled
  from runners land here keyed by trace id; reads apply each runner's
  latest clock offset (:func:`clock_offset`) and stamp a ``runner``
  attribute on, so ``GET /v1/obs/traces/{job_id}`` can serve one
  Perfetto-loadable file whose timestamps order correctly across nodes.
- :func:`clock_offset` -- round-trip midpoint offset: the router reads
  the runner's ``now`` next to its own send/receive times and maps
  runner timestamps onto the router clock (probe RTTs are milliseconds
  on a LAN, so the midpoint is accurate to well under the span
  durations being aligned).
- :func:`federate_metrics` -- merges N runners' Prometheus text dumps
  into the router's own, injecting a ``runner`` label on every sample,
  so one scrape of the router sees the whole fleet.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict, deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.span import Span

#: ``00-<trace>-<span>-01`` -- trace ids are hex, span ids are the
#: pid-prefixed ``<pid hex>.<counter hex>`` form (no dashes in either)
_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{8,32})-([0-9a-f]+(?:\.[0-9a-f]+)?)-[0-9a-f]{2}$")


def format_traceparent(ctx: Optional[Dict[str, str]]) -> Optional[str]:
    """``{"trace_id", "span_id"}`` -> header value (None passes through)."""
    if not ctx or not ctx.get("trace_id") or not ctx.get("span_id"):
        return None
    return f"00-{ctx['trace_id']}-{ctx['span_id']}-01"


def parse_traceparent(value: Optional[str]) -> Optional[Dict[str, str]]:
    """Header value -> span context; malformed values parse to None."""
    if not value or not isinstance(value, str):
        return None
    match = _TRACEPARENT_RE.match(value.strip())
    if match is None:
        return None
    return {"trace_id": match.group(1), "span_id": match.group(2)}


def clock_offset(t_sent: float, t_received: float,
                 remote_now: float) -> float:
    """Seconds to ADD to a remote timestamp to land on the local clock.

    ``remote_now`` was sampled on the remote between ``t_sent`` and
    ``t_received`` (local clock); the round-trip midpoint is the best
    local estimate of when that sample was taken.
    """
    midpoint = (t_sent + t_received) / 2.0
    return midpoint - remote_now


class SpanBuffer:
    """Bounded in-memory span sink with a drain cursor (thread-safe).

    Every finished span is stored as ``(seq, dict)``; ``since(cursor)``
    returns the spans with ``seq > cursor`` plus the newest sequence
    number, so remote collectors poll incrementally.  When the buffer
    overflows, the oldest spans fall off and ``dropped`` counts them --
    a slow collector loses history, never blocks the hot path.
    """

    def __init__(self, cap: int = 4096):
        if cap < 1:
            raise ValueError(f"SpanBuffer cap must be >= 1, got {cap}")
        self.cap = cap
        self._lock = threading.Lock()
        self._items: "deque[Tuple[int, Dict[str, Any]]]" = deque()
        self._seq = 0
        self.dropped = 0

    def emit(self, span: Span) -> None:
        with self._lock:
            self._seq += 1
            self._items.append((self._seq, span.to_dict()))
            while len(self._items) > self.cap:
                self._items.popleft()
                self.dropped += 1

    def since(self, cursor: int = 0
              ) -> Tuple[List[Dict[str, Any]], int]:
        """``(span dicts with seq > cursor, newest seq)``."""
        with self._lock:
            spans = [dict(item) for seq, item in self._items
                     if seq > cursor]
            return spans, self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


def align_spans(dicts: Iterable[Dict[str, Any]], offset_s: float,
                runner: Optional[str] = None) -> List[Dict[str, Any]]:
    """Shift span timestamps onto the collector's clock.

    Returns new dicts with ``t0``/``end``/event times shifted by
    ``offset_s`` and (when given) a ``runner`` attribute stamped on, so
    a stitched trace records which node produced each span.
    """
    out: List[Dict[str, Any]] = []
    for data in dicts:
        span = dict(data)
        span["t0"] = data["t0"] + offset_s
        if data.get("end") is not None:
            span["end"] = data["end"] + offset_s
        if runner is not None:
            span["attrs"] = {**(data.get("attrs") or {}), "runner": runner}
        if data.get("events"):
            span["events"] = [{**ev, "t": ev["t"] + offset_s}
                              for ev in data["events"]]
        out.append(span)
    return out


class TraceStore:
    """Per-trace-id span aggregate with LRU eviction (thread-safe).

    The router ingests every span batch it pulls -- its own buffer and
    each runner's -- and serves whole traces back out.  Spans are kept
    on their node's clock and shifted by that node's latest offset when
    read, so the spans of one process keep their order however the
    offset estimate moved between pulls.  Bounded two ways: at most
    ``max_traces`` distinct trace ids (least recently *updated* evicted
    first) and ``max_spans_per_trace`` spans each (further spans of a
    runaway trace are counted, not kept).
    """

    def __init__(self, max_traces: int = 512,
                 max_spans_per_trace: int = 8192):
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, List[Dict[str, Any]]]" = \
            OrderedDict()
        self._seen: Dict[str, set] = {}       # trace_id -> span ids
        self._offsets: Dict[Optional[str], float] = {}   # runner -> s
        self.dropped = 0

    def ingest(self, dicts: Iterable[Dict[str, Any]],
               offset_s: float = 0.0,
               runner: Optional[str] = None) -> int:
        """Store a span batch; returns how many were added.

        ``offset_s`` becomes ``runner``'s offset for every span of it
        read from now on.  Re-ingesting the same span id for a trace is
        a no-op, so the on-demand pull a trace read performs never
        duplicates what the background pull loop already collected.
        """
        added = 0
        with self._lock:
            self._offsets[runner] = offset_s
        for span in dicts:
            trace_id = span.get("trace_id")
            span_id = span.get("span_id")
            if not trace_id or not span_id:
                continue
            with self._lock:
                bucket = self._traces.get(trace_id)
                if bucket is None:
                    bucket = self._traces[trace_id] = []
                    self._seen[trace_id] = set()
                    while len(self._traces) > self.max_traces:
                        evicted, _ = self._traces.popitem(last=False)
                        self._seen.pop(evicted, None)
                else:
                    self._traces.move_to_end(trace_id)
                if span_id in self._seen[trace_id]:
                    continue
                if len(bucket) >= self.max_spans_per_trace:
                    self.dropped += 1
                    continue
                self._seen[trace_id].add(span_id)
                bucket.append((runner, span))
                added += 1
        return added

    def spans(self, trace_id: str) -> List[Dict[str, Any]]:
        """The trace's spans on the collector's clock."""
        with self._lock:
            return [align_spans([span], self._offsets[runner], runner)[0]
                    for runner, span in self._traces.get(trace_id, ())]

    def trace_ids(self) -> List[str]:
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


# -------------------------------------------------------------------------
# Prometheus federation.
# -------------------------------------------------------------------------
def _label_samples(lines: Iterable[str], label: str,
                   value: str) -> Iterable[Tuple[str, str]]:
    """Yield ``(family_header_or_None, sample)`` with the label injected."""
    escaped = value.replace("\\", r"\\").replace('"', r'\"')
    pair = f'{label}="{escaped}"'
    for line in lines:
        line = line.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            yield line, ""
            continue
        name, sep, rest = line.partition("{")
        if sep:
            yield "", f"{name}{{{pair},{rest}"
        else:
            name, _, sample_value = line.partition(" ")
            yield "", f"{name}{{{pair}}} {sample_value}"


def federate_metrics(own_text: str,
                     peers: Iterable[Tuple[str, str]]) -> str:
    """Merge peer Prometheus dumps into ``own_text``.

    Every peer sample gains a ``runner="<name>"`` label; families are
    merged so each ``# TYPE`` header appears once (first writer wins --
    the fleet runs one version, so the families agree).  The router's
    own samples stay unlabeled: they describe the fleet, not a node.
    """
    # family name -> (help line, type line, [sample lines])
    families: "OrderedDict[str, List[Any]]" = OrderedDict()
    order_hint = 0

    def family_for(name: str) -> List[Any]:
        nonlocal order_hint
        fam = families.get(name)
        if fam is None:
            fam = families[name] = [None, None, []]
        return fam

    def base_name(sample: str) -> str:
        name = sample.split("{", 1)[0].split(" ", 1)[0]
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                # histogram series belong to the family without suffix
                # when that family was TYPEd; otherwise keep as-is
                stem = name[:-len(suffix)]
                if stem in families:
                    return stem
        return name

    def feed(lines: Iterable[str], runner: Optional[str]) -> None:
        pending = (_label_samples(lines, "runner", runner)
                   if runner is not None
                   else ((ln, "") if ln.startswith("#") else ("", ln)
                         for ln in (l.rstrip() for l in lines) if ln))
        current: Optional[str] = None
        for header, sample in pending:
            if header:
                parts = header.split()
                if header.startswith("# TYPE ") and len(parts) >= 4:
                    current = parts[2]
                    fam = family_for(current)
                    if fam[1] is None:
                        fam[1] = header
                elif header.startswith("# HELP ") and len(parts) >= 3:
                    fam = family_for(parts[2])
                    if fam[0] is None:
                        fam[0] = header
                continue
            if sample:
                family_for(base_name(sample) if current is None
                           else _owning_family(sample, current))[2] \
                    .append(sample)

    def _owning_family(sample: str, current: str) -> str:
        name = sample.split("{", 1)[0].split(" ", 1)[0]
        if name == current or (name.startswith(current) and
                               name[len(current):] in
                               ("_bucket", "_sum", "_count")):
            return current
        return name

    feed(own_text.splitlines(), None)
    for runner, text in peers:
        feed(text.splitlines(), runner)
    lines: List[str] = []
    for _name, (help_line, type_line, samples) in families.items():
        if not samples:
            continue
        if help_line:
            lines.append(help_line)
        if type_line:
            lines.append(type_line)
        lines.extend(samples)
    return "\n".join(lines) + "\n"
