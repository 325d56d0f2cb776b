"""MetricsRegistry: labeled counters, gauges and histograms.

One process-wide :data:`REGISTRY` (plus per-test instances) holds every
metric the instrumented layers emit: execution-engine mode counts,
profile-cache tier hits, scheduler queue waits, service cache/dedup
events.  Metrics are cheap -- one lock acquisition and a dict update
per observation -- so they stay on even when span tracing is off.

Two dump formats:

- :meth:`MetricsRegistry.to_prometheus` -- the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` headers, ``name{label=
  "value"} sample`` lines, ``_bucket``/``_sum``/``_count`` series for
  histograms);
- :meth:`MetricsRegistry.to_dict` -- a JSON-compatible nested dict.

Pull-style sources (e.g. ``ProfileCacheStats``, which predates this
layer and is still mutated directly) register a *collector* callback;
collectors run at dump time and refresh gauges from the source of
truth, so the dump is consistent without touching the source's hot
path.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default histogram buckets (seconds-flavoured, Prometheus-style)
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
                   10.0, 60.0)


def _escape(value: Any) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Metric:
    """Shared bookkeeping: name, help text, label names, sample store."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Tuple[str, ...], lock: threading.Lock):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        #: cardinality guard, set by the owning registry (None = off)
        self.label_cap: Optional[int] = None
        self._on_drop: Optional[Callable[[str], None]] = None

    def _admit(self, key: Tuple[str, ...], values: Dict) -> bool:
        """Whether a new label set may be stored (call with lock held).

        Federation multiplies label sets (every runner URL becomes a
        label value); past the cap, observations on *new* label sets
        are dropped and counted rather than growing without bound.
        """
        if (key in values or self.label_cap is None
                or len(values) < self.label_cap):
            return True
        if self._on_drop is not None:
            self._on_drop(self.name)
        return False

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def _label_suffix(self, key: Tuple[str, ...],
                      extra: Optional[Tuple[str, str]] = None) -> str:
        pairs = list(zip(self.labelnames, key))
        if extra is not None:
            pairs.append(extra)
        if not pairs:
            return ""
        body = ",".join(f'{name}="{_escape(value)}"'
                        for name, value in pairs)
        return "{" + body + "}"


class Counter(_Metric):
    """Monotonically increasing labeled counter."""

    kind = "counter"

    def __init__(self, name, help_text, labelnames, lock):
        super().__init__(name, help_text, labelnames, lock)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, n: float = 1, **labels: Any) -> None:
        if n < 0:
            raise ValueError(f"{self.name}: counters only go up ({n})")
        key = self._key(labels)
        with self._lock:
            if not self._admit(key, self._values):
                return
            self._values[key] = self._values.get(key, 0.0) + n

    def get(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def samples(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [f"{self.name}{self._label_suffix(key)} "
                f"{_format_value(value)}" for key, value in items]

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            items = sorted(self._values.items())
        return {"type": self.kind, "help": self.help,
                "labels": list(self.labelnames),
                "samples": [{"labels": dict(zip(self.labelnames, key)),
                             "value": value} for key, value in items]}


class Gauge(Counter):
    """Labeled gauge: settable, can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            if not self._admit(key, self._values):
                return
            self._values[key] = float(value)

    def inc(self, n: float = 1, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            if not self._admit(key, self._values):
                return
            self._values[key] = self._values.get(key, 0.0) + n

    def dec(self, n: float = 1, **labels: Any) -> None:
        self.inc(-n, **labels)


class Histogram(_Metric):
    """Labeled histogram with cumulative Prometheus buckets."""

    kind = "histogram"

    def __init__(self, name, help_text, labelnames, lock,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, help_text, labelnames, lock)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"{self.name}: need at least one bucket")
        # key -> [per-bucket counts..., +Inf count, sum]
        self._values: Dict[Tuple[str, ...], List[float]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            row = self._values.get(key)
            if row is None:
                if not self._admit(key, self._values):
                    return
                row = [0.0] * (len(self.buckets) + 2)
                self._values[key] = row
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    row[i] += 1
            row[-2] += 1          # +Inf / total count
            row[-1] += value      # sum

    def count(self, **labels: Any) -> float:
        with self._lock:
            row = self._values.get(self._key(labels))
        return row[-2] if row else 0.0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            row = self._values.get(self._key(labels))
        return row[-1] if row else 0.0

    def samples(self) -> List[str]:
        with self._lock:
            items = sorted((k, list(v)) for k, v in self._values.items())
        lines: List[str] = []
        for key, row in items:
            for bound, count in zip(self.buckets, row):
                suffix = self._label_suffix(key, ("le", repr(bound)))
                lines.append(f"{self.name}_bucket{suffix} "
                             f"{_format_value(count)}")
            inf = self._label_suffix(key, ("le", "+Inf"))
            lines.append(f"{self.name}_bucket{inf} "
                         f"{_format_value(row[-2])}")
            plain = self._label_suffix(key)
            lines.append(f"{self.name}_sum{plain} "
                         f"{_format_value(row[-1])}")
            lines.append(f"{self.name}_count{plain} "
                         f"{_format_value(row[-2])}")
        return lines

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            items = sorted((k, list(v)) for k, v in self._values.items())
        return {"type": self.kind, "help": self.help,
                "labels": list(self.labelnames),
                "buckets": list(self.buckets),
                "samples": [{"labels": dict(zip(self.labelnames, key)),
                             "bucket_counts": row[:-2],
                             "count": row[-2], "sum": row[-1]}
                            for key, row in items]}


#: where the cardinality guard records what it refused to store
DROPPED_METRIC = "repro_metrics_dropped_labels_total"

#: default per-metric distinct-label-set cap (fleet federation can
#: multiply label sets by the runner count; past this, drop + count)
DEFAULT_LABEL_CAP = 1000


class MetricsRegistry:
    """Name -> metric map with idempotent get-or-create accessors."""

    def __init__(self, label_cap: Optional[int] = DEFAULT_LABEL_CAP):
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self.label_cap = label_cap

    def _note_dropped(self, metric_name: str) -> None:
        self.counter(
            DROPPED_METRIC,
            "Observations dropped by the label-cardinality guard.",
            ("metric",)).inc(metric=metric_name)

    # -- get-or-create -------------------------------------------------
    def _get(self, cls, name: str, help_text: str,
             labelnames: Tuple[str, ...], **kwargs) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, tuple(labelnames),
                             threading.Lock(), **kwargs)
                if name != DROPPED_METRIC:
                    # the drop counter itself is exempt: its label
                    # cardinality is the metric count, already bounded
                    metric.label_cap = self.label_cap
                    metric._on_drop = self._note_dropped
                self._metrics[name] = metric
                return metric
        if type(metric) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        if metric.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{metric.labelnames}")
        return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        return self._get(Counter, name, help_text, tuple(labelnames))

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._get(Gauge, name, help_text, tuple(labelnames))

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help_text, tuple(labelnames),
                         buckets=buckets)

    def register_collector(
            self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """``fn(registry)`` runs before every dump (pull-style sources)."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    def _collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            try:
                fn(self)
            except Exception:
                pass  # a broken collector must not break the dump

    # -- dumps ---------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition format."""
        self._collect()
        with self._lock:
            metrics = sorted(self._metrics.values(),
                             key=lambda m: m.name)
        lines: List[str] = []
        for metric in metrics:
            samples = metric.samples()
            if not samples:
                continue
            if metric.help:
                lines.append(f"# HELP {metric.name} "
                             f"{_escape(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(samples)
        return "\n".join(lines) + "\n"

    def to_dict(self) -> Dict[str, Any]:
        self._collect()
        with self._lock:
            metrics = sorted(self._metrics.values(),
                             key=lambda m: m.name)
        return {metric.name: metric.as_dict() for metric in metrics}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def reset(self) -> None:
        """Drop every metric and collector (tests)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()


#: the process-wide registry every instrumented layer records into
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
