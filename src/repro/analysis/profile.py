"""One-pass shared profiling: one dynamic execution per (source, workload).

Every dynamic analysis in the flow (hotspot detection, trip counts,
data movement, pointer aliasing) consumes an :class:`ExecReport`.
Historically each consumer executed the program itself, so a full flow
ran the same (source, workload) pair several times -- and fig5-style
harness runs, which evaluate the informed and uninformed flows over the
same apps, doubled that again.

:func:`collect_profile` is the single funnel for those analysis
executions.  It keys the run by ``sha256(source || workload-spec ||
entry || engine)`` and keeps a process-wide in-memory cache plus an
optional disk layer under ``$REPRO_CACHE_DIR/profiles/`` (the same
cache root the design service uses).  On a hit the serialized profile
is re-materialized as a fresh :class:`ExecReport` bound to the *caller's*
unit: loop profiles are stored under stable ``"{fn}#L{idx}"`` pre-order
keys and rebound to the current unit's node ids, and pointer-event
array ids are densely renumbered by first appearance (allocation ids
are process-global counters, so raw ids never match across runs; only
their equality structure matters to alias analysis).

Only analysis runs go through this module.  Oracle/correctness runs
that inspect workload buffers afterwards must keep calling
``Ast.execute`` directly -- a cache hit here performs no execution and
therefore fills no buffers.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.lang.profiler import (
    ArrayAccessRecord, Counter, ExecReport, LoopProfile, PointerArgEvent,
)
from repro.meta.ast_nodes import (
    DoWhileStmt, ForStmt, TranslationUnit, WhileStmt,
)
from repro.meta.unparse import unparse
from repro.resilience import faults

PROFILE_FORMAT_VERSION = 1

_LOOP_KINDS = (ForStmt, WhileStmt, DoWhileStmt)

# key -> serialized profile dict (unit-independent form)
_memory: Dict[str, Dict[str, Any]] = {}

# guards _memory and _stats: the service runs jobs on threads.  The lock
# is never held across an execution, so two threads missing on the same
# key may both execute -- benign, the second store is idempotent.
_lock = threading.Lock()


class ProfileCacheStats:
    """Counters for tests and telemetry."""

    __slots__ = ("lookups", "memory_hits", "disk_hits", "misses",
                 "executions", "stores", "uncacheable")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.lookups = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.executions = 0
        self.stores = 0
        self.uncacheable = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


_stats = ProfileCacheStats()

#: push-side tier accounting (memory / disk / miss / uncacheable /
#: bypass); ``_stats`` remains the exact source of truth for tests
_TIER_TOTAL = obs.REGISTRY.counter(
    "repro_profile_cache_total",
    "profile-cache lookups by resolution tier",
    ("tier",))


def _export_stats(registry: "obs.MetricsRegistry") -> None:
    """Pull collector: mirror ProfileCacheStats into the registry."""
    gauge = registry.gauge("repro_profile_cache_stats",
                           "live ProfileCacheStats fields",
                           ("field",))
    for name, value in _stats.as_dict().items():
        gauge.set(value, field=name)


obs.REGISTRY.register_collector(_export_stats)


def profile_cache_stats() -> ProfileCacheStats:
    return _stats


def clear_profile_cache() -> None:
    """Drop the in-memory layer and reset stats (tests).

    Stats are reset in place so observers holding the object returned
    by :func:`profile_cache_stats` keep seeing the live counters.
    """
    with _lock:
        _memory.clear()
        _stats.reset()


# -------------------------------------------------------------------------
# Keys.
# -------------------------------------------------------------------------
def stable_loop_keys(unit: TranslationUnit) -> Dict[int, str]:
    """node_id -> ``"{fn}#L{idx}"`` by pre-order loop position.

    Node ids come from a process-global counter, so two parses of the
    same source disagree on them; the pre-order index within each
    function is a property of the source alone.
    """
    keys: Dict[int, str] = {}
    for fn in unit.functions():
        idx = 0
        for node in fn.walk():
            if isinstance(node, _LOOP_KINDS):
                keys[node.node_id] = f"{fn.name}#L{idx}"
                idx += 1
    return keys


#: struct code of the raw-bytes array digest, by the one element type
_ARRAY_CODES = {float: "d", int: "q"}


def _array_blob(vals) -> Tuple[str, bytes]:
    """(type tag, bytes) of one input array: the little-endian values
    when all are ``float`` or all in-range ``int``, else JSON (mixed,
    ``bool``, empty or out-of-range values)."""
    types = set(map(type, vals))
    code = _ARRAY_CODES.get(types.pop()) if len(types) == 1 else None
    if code is not None:
        try:
            return code, struct.pack(f"<{len(vals)}{code}", *vals)
        except struct.error:
            pass
    return "j", json.dumps(vals).encode("utf-8")


def workload_fingerprint(workload) -> Optional[str]:
    """Deterministic digest of the workload *spec* (not its buffers).

    Scalars and seed are a JSON header; each array follows as its name,
    a type tag and its bytes (:func:`_array_blob`), length-delimited.
    """
    try:
        digest = hashlib.sha256(json.dumps(
            {"scalars": sorted(workload.scalars.items()),
             "seed": workload.seed}, sort_keys=True).encode("utf-8"))
        for name, vals in sorted(workload._initial_arrays.items()):
            code, blob = _array_blob(vals)
            digest.update(
                f"{json.dumps(name)}:{code}:{len(blob)}:".encode("utf-8"))
            digest.update(blob)
        return digest.hexdigest()
    except (AttributeError, TypeError, ValueError):
        return None


def profile_key(source: str, wfp: str, entry: str, mode: str,
                max_steps: Optional[int] = None,
                space: Optional[str] = None) -> str:
    parts = [source, wfp, entry, mode]
    if max_steps is not None:
        # a step-limited run is not interchangeable with a full run: a
        # cached full report would silently un-enforce the limit
        parts.append(f"max_steps={max_steps}")
    if space is not None:
        # batched DSE extends the identity with the *design space*: a
        # sweep-shared profile is keyed once for the whole ParamGrid
        # (repro.lang.batch.ParamGrid.space_hash), not per candidate
        parts.append(f"space={space}")
    blob = "\x00".join(parts)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -------------------------------------------------------------------------
# Serialization (unit-independent).
# -------------------------------------------------------------------------
_PRIMITIVES = (type(None), bool, int, float, str)


def serialize_report(report: ExecReport,
                     unit: TranslationUnit) -> Optional[Dict[str, Any]]:
    """Unit-independent dict form, or None when not serializable."""
    if not isinstance(report.return_value, _PRIMITIVES):
        return None
    loop_keys = stable_loop_keys(unit)
    loops: Dict[str, Any] = {}
    for node_id, prof in report.loop_profiles.items():
        key = loop_keys.get(node_id)
        if key is None:
            return None  # loop outside any function: don't cache
        loops[key] = {
            "entries": prof.entries,
            "trip_counts": list(prof.trip_counts),
            "inclusive": prof.inclusive.as_dict(),
        }
    renumber: Dict[int, int] = {}
    events: List[Any] = []
    for ev in report.pointer_events:
        args = []
        for pname, array_id, offset, extent in ev.args:
            norm = renumber.setdefault(array_id, len(renumber))
            args.append([pname, norm, offset, extent])
        events.append([ev.fn_name, args])
    return {
        "format": PROFILE_FORMAT_VERSION,
        "global_counter": report.global_counter.as_dict(),
        "loops": loops,
        "timers": dict(report.timers),
        "fn_array_access": {
            fn: {
                name: [rec.nbytes, rec.elem_size, rec.reads, rec.writes,
                       bool(rec.read_before_write)]
                for name, rec in recs.items()
            }
            for fn, recs in report.fn_array_access.items()
        },
        "pointer_events": events,
        "stdout": list(report.stdout),
        "return_value": report.return_value,
        "steps": report.steps,
    }


def deserialize_report(data: Dict[str, Any],
                       unit: TranslationUnit) -> Optional[ExecReport]:
    """Fresh :class:`ExecReport` with loop profiles rebound to ``unit``."""
    if data.get("format") != PROFILE_FORMAT_VERSION:
        return None
    node_ids = {key: nid for nid, key in stable_loop_keys(unit).items()}
    report = ExecReport()
    for name, value in data["global_counter"].items():
        setattr(report.global_counter, name, value)
    for key, rec in data["loops"].items():
        node_id = node_ids.get(key)
        if node_id is None:
            return None  # source/unit mismatch: treat as a miss
        prof = LoopProfile(node_id)
        prof.entries = rec["entries"]
        prof.trip_counts = list(rec["trip_counts"])
        for cname, value in rec["inclusive"].items():
            setattr(prof.inclusive, cname, value)
        report.loop_profiles[node_id] = prof
    report.timers = dict(data["timers"])
    for fn, recs in data["fn_array_access"].items():
        merged = report.fn_array_access.setdefault(fn, {})
        for name, (nbytes, elem_size, reads, writes, rbw) in recs.items():
            rec = ArrayAccessRecord(name, nbytes, elem_size)
            rec.reads = reads
            rec.writes = writes
            rec.read_before_write = rbw
            merged[name] = rec
    for fn_name, args in data["pointer_events"]:
        report.pointer_events.append(
            PointerArgEvent(fn_name, [tuple(a) for a in args]))
    report.stdout = list(data["stdout"])
    report.return_value = data["return_value"]
    report.steps = data["steps"]
    return report


def normalized_pointer_events(report: ExecReport) -> List[Tuple]:
    """Pointer events with array ids densely renumbered by first
    appearance -- the engine-independent comparable form (tests)."""
    renumber: Dict[int, int] = {}
    out: List[Tuple] = []
    for ev in report.pointer_events:
        args = tuple(
            (pname, renumber.setdefault(array_id, len(renumber)),
             offset, extent)
            for pname, array_id, offset, extent in ev.args)
        out.append((ev.fn_name, args))
    return out


# -------------------------------------------------------------------------
# Disk layer (optional, under the service cache root).
# -------------------------------------------------------------------------
def _profiles_dir() -> Optional[str]:
    root = os.environ.get("REPRO_CACHE_DIR") or None
    if not root:
        return None
    return os.path.join(root, "profiles")


def _disk_path(root: str, key: str) -> str:
    return os.path.join(root, key[:2], f"{key}.json")


def _disk_get(key: str) -> Optional[Dict[str, Any]]:
    root = _profiles_dir()
    if root is None:
        return None
    try:
        faults.inject("profile.disk")
        with open(_disk_path(root, key), "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (faults.InjectedFault, OSError, json.JSONDecodeError,
            ValueError):
        # the disk tier is an accelerator, never a dependency: any
        # read problem is a miss and the profile re-derives
        return None


def _disk_put(key: str, data: Dict[str, Any]) -> None:
    root = _profiles_dir()
    if root is None:
        return
    path = _disk_path(root, key)
    try:
        faults.inject("profile.disk")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except (faults.InjectedFault, OSError):
        pass  # cache persistence is best-effort


# -------------------------------------------------------------------------
# The funnel.
# -------------------------------------------------------------------------
def collect_profile(ast, workload, entry: str = "main",
                    max_steps: Optional[int] = None,
                    space: Optional[str] = None) -> ExecReport:
    """The shared ``exec(ast)`` of every dynamic analysis.

    Executes ``entry`` against a fresh copy of ``workload`` -- at most
    once per (source, workload spec, entry, engine) process-wide -- and
    returns the resulting report.  Cache hits return a *new*
    :class:`ExecReport` object each call, rebound to ``ast``'s unit.

    ``space`` (a ``ParamGrid.space_hash``) scopes the entry to one
    batched design-space sweep: candidates of the same space share the
    profile, while sweeps over different spaces never collide.
    """
    from repro.lang.engine import execute_unit, execution_mode

    unit = ast.unit if hasattr(ast, "unit") else ast
    with obs.span("profile.collect", entry=entry) as sp:
        if os.environ.get("REPRO_PROFILE_CACHE", "1").strip() == "0":
            # escape hatch: every analysis re-executes, as before this
            # layer
            with _lock:
                _stats.executions += 1
            _TIER_TOTAL.inc(tier="bypass")
            sp.set(tier="bypass")
            return execute_unit(unit, workload=workload.fresh(),
                                entry=entry, max_steps=max_steps)
        wfp = workload_fingerprint(workload)
        if wfp is None:  # exotic workload object: execute uncached
            with _lock:
                _stats.uncacheable += 1
                _stats.executions += 1
            _TIER_TOTAL.inc(tier="uncacheable")
            sp.set(tier="uncacheable")
            return execute_unit(unit, workload=workload.fresh(),
                                entry=entry, max_steps=max_steps)
        key = profile_key(unparse(unit), wfp, entry, execution_mode(),
                          max_steps, space)
        with _lock:
            _stats.lookups += 1
            data = _memory.get(key)
        if data is not None:
            report = deserialize_report(data, unit)
            if report is not None:
                with _lock:
                    _stats.memory_hits += 1
                _TIER_TOTAL.inc(tier="memory")
                sp.set(tier="memory")
                return report
        data = _disk_get(key)
        if data is not None:
            report = deserialize_report(data, unit)
            if report is not None:
                with _lock:
                    _stats.disk_hits += 1
                    _memory[key] = data
                _TIER_TOTAL.inc(tier="disk")
                sp.set(tier="disk")
                return report
        with _lock:
            _stats.misses += 1
            _stats.executions += 1
        _TIER_TOTAL.inc(tier="miss")
        sp.set(tier="miss")
        report = execute_unit(unit, workload=workload.fresh(),
                              entry=entry, max_steps=max_steps)
        data = serialize_report(report, unit)
        if data is not None:
            with _lock:
                _memory[key] = data
                _stats.stores += 1
            _disk_put(key, data)
        else:
            with _lock:
                _stats.uncacheable += 1
        return report
