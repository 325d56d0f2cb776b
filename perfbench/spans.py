"""Spans recorded from outside the program, and overlap-free attribution.

The benchmark times calls into each layer's public functions by
wrapping them (``install_layers``) and by the task events a
``FlowEngine.run(observer=...)`` emits.  Every call becomes one span:
``(layer, start, end, parent)``.  A layer's *self* time is its span's
duration minus the union of its children's intervals, so nested or
overlapping children are never counted twice.  Per job, the self times
of all spans in the job's tree add up to the job's wall time; the
benchmark checks that within ``ATTRIBUTION_TOLERANCE``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: largest |sum of self times - job wall| / job wall accepted per job
ATTRIBUTION_TOLERANCE = 1e-6

Interval = Tuple[float, float]


class Span:
    __slots__ = ("layer", "start", "end", "parent", "children")

    def __init__(self, layer: str, start: float,
                 parent: Optional["Span"] = None):
        self.layer = layer
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.children: List["Span"] = []
        if parent is not None:
            parent.children.append(self)


def union_length(intervals: Iterable[Interval],
                 lo: float = float("-inf"),
                 hi: float = float("inf")) -> float:
    """Total length covered by ``intervals`` after clipping to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if b <= a:
            continue
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Span) -> float:
    """The span's duration minus the part its children cover."""
    covered = union_length(((c.start, c.end) for c in span.children),
                           span.start, span.end)
    return (span.end - span.start) - covered


def walk(root: Span) -> Iterable[Span]:
    stack = [root]
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.children)


def attribute(root: Span) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Per-layer self seconds and call counts for one job's span tree.

    Returns ``(self_s, calls, error)`` where ``error`` is
    ``|sum(self_s) - wall| / wall``: zero when children nest inside
    their parents and siblings do not overlap.
    """
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span in walk(root):
        self_s[span.layer] = self_s.get(span.layer, 0.0) + self_time(span)
        calls[span.layer] = calls.get(span.layer, 0) + 1
    wall = root.end - root.start
    error = abs(sum(self_s.values()) - wall) / wall if wall > 0 else 0.0
    return self_s, calls, error


class Recorder:
    """Builds span trees from begin/end calls on any thread.

    A span begun on a thread with no open span becomes a child of
    ``root`` (the job span open on the driving thread), so work a
    program hands to a worker thread still lands in the job's tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.root: Optional[Span] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            span = Span(layer, self.clock(), parent)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def start_job(self, layer: str) -> Span:
        """Open a job's root span on the calling thread."""
        self.root = None
        self.root = self.begin(layer)
        return self.root

    def finish_job(self) -> Span:
        root = self.root
        self.end(root)
        self.root = None
        return root

    def wrap(self, fn: Callable, layer: str) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = self.begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return timed


class LayerTotals:
    """Self time and calls per layer, summed over many jobs."""

    def __init__(self):
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.jobs = 0
        self.max_error = 0.0

    def add(self, root: Span) -> None:
        """Fold in one job's span tree."""
        self_s, calls, error = attribute(root)
        self.merge({"self_s": self_s, "calls": calls, "jobs": 1,
                    "max_error": error})

    def merge(self, other: Dict) -> None:
        """Fold in a ``to_dict`` produced by another process."""
        for layer, value in other["self_s"].items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + value
        for layer, value in other["calls"].items():
            self.calls[layer] = self.calls.get(layer, 0) + value
        self.jobs += other["jobs"]
        self.max_error = max(self.max_error, other["max_error"])

    def to_dict(self) -> Dict:
        return {"self_s": self.self_s, "calls": self.calls,
                "jobs": self.jobs, "max_error": self.max_error}

    def per_job_ms(self, layer: str) -> float:
        return 1e3 * self.self_s.get(layer, 0.0) / max(self.jobs, 1)

    def calls_per_job(self, layer: str) -> float:
        return self.calls.get(layer, 0) / max(self.jobs, 1)


# ----------------------------------------------------------------------
# The program's layers, as (layer, module, attribute) targets
# ----------------------------------------------------------------------

#: module-level functions: wrapped wherever a loaded module holds them
FUNCTIONS: Sequence[Tuple[str, str, str]] = (
    ("meta.parse", "repro.meta.ast_api", "parse"),
    ("meta.parse", "repro.meta.unparse", "unparse"),
    ("lang.exec", "repro.lang.engine", "execute_unit"),
)

#: methods: wrapped on their class
METHODS: Sequence[Tuple[str, str, str, str]] = (
    ("toolchains.compile", "repro.toolchains.gcc", "GccToolchain",
     "compile"),
    ("toolchains.compile", "repro.toolchains.hipcc", "HipccToolchain",
     "compile"),
    ("toolchains.compile", "repro.toolchains.dpcpp", "DpcppToolchain",
     "partial_compile"),
    ("toolchains.compile", "repro.toolchains.dpcpp", "DpcppToolchain",
     "full_compile"),
    ("toolchains.compile", "repro.toolchains.dpcpp", "DpcppToolchain",
     "sweep_coefficients"),
    ("platforms.eval", "repro.platforms.cpu", "CPUModel", "omp_time"),
    ("platforms.eval", "repro.platforms.cpu", "CPUModel",
     "omp_time_batch"),
    ("platforms.eval", "repro.platforms.gpu", "GPUModel", "design_time"),
    ("platforms.eval", "repro.platforms.gpu", "GPUModel",
     "design_time_batch"),
    ("platforms.eval", "repro.platforms.fpga", "FPGAModel",
     "design_time"),
)

#: FlowEngine task kinds (``TaskKind.value``) -> layer
TASK_LAYERS = {"A": "analysis", "T": "transforms", "CG": "codegen",
               "O": "dse"}


class TaskObserver:
    """A ``FlowObserver`` turning task start/end events into spans.

    ``inner`` is the observer the program passed (the service's
    tracer, or ``None``); its callbacks still run, inside the span.
    """

    def __init__(self, recorder: Recorder, inner=None):
        self.recorder = recorder
        self.inner = inner
        self._open: Dict[int, List[Span]] = {}

    def on_task_start(self, task, ctx) -> None:
        span = self.recorder.begin(TASK_LAYERS.get(task.kind.value,
                                                   "flow"))
        self._open.setdefault(threading.get_ident(), []).append(span)
        if self.inner is not None:
            self.inner.on_task_start(task, ctx)

    def on_task_end(self, task, ctx, wall_s, status="ok",
                    error=None) -> None:
        if self.inner is not None:
            self.inner.on_task_end(task, ctx, wall_s, status, error)
        self.recorder.end(self._open[threading.get_ident()].pop())

    def on_branch(self, decision, ctx) -> None:
        if self.inner is not None:
            self.inner.on_branch(decision, ctx)


def _replace_everywhere(original: Callable, replacement: Callable,
                        undo: List[Callable]) -> None:
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
                undo.append(functools.partial(namespace.__setitem__,
                                              attr, original))


def install_layers(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns a function that unwraps."""
    import importlib

    undo: List[Callable] = []
    # load the flow first so every module that imports a target
    # function by name is in sys.modules when the references are swapped
    importlib.import_module("repro.api")
    importlib.import_module("repro.evalharness")
    for layer, module_name, attr in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        _replace_everywhere(original, recorder.wrap(original, layer), undo)
    for layer, module_name, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, recorder.wrap(original, layer))
        undo.append(functools.partial(setattr, cls, attr, original))

    from repro.flow.engine import FlowEngine

    original_run = FlowEngine.__dict__["run"]

    @functools.wraps(original_run)
    def run(self, app, mode="informed", workload=None, scale=1.0,
            observer=None):
        span = recorder.begin("flow")
        try:
            return original_run(self, app, mode, workload, scale,
                                TaskObserver(recorder, observer))
        finally:
            recorder.end(span)

    FlowEngine.run = run
    undo.append(functools.partial(setattr, FlowEngine, "run",
                                  original_run))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall
