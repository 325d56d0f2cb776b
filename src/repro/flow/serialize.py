"""JSON serialization of flow results -- and back.

Dashboards, CI checks, the runtime mapping services of §IV-D and the
``repro.service`` result cache consume flow outcomes programmatically;
this module renders a :class:`FlowResult` (designs, metadata, PSA
decisions, analysis summary) as plain JSON-compatible data, and
reconstructs read-side equivalents (:class:`FlowResultRecord`,
:class:`DesignRecord`) from that data.

Only data flows out -- sources are included as text, HLS reports as
dictionaries; nothing here is needed to re-run a flow.  Each design is
rendered once per serialization: its ``loc``, ``loc_delta_pct`` and
(with sources) ``source`` all come from that one text.  The records
returned by :func:`result_from_dict` expose the same *read* API the
evaluation harness uses (``design()``, ``auto_selected``,
``selected_target``, ``speedup``, ``loc_delta_pct``, ...), so a result
loaded from the service's disk cache is a drop-in for a live run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.codegen.design import Design, delta_pct
from repro.flow.engine import FlowResult
from repro.flow.psa import PSADecision
from repro.meta.unparse import count_loc
from repro.toolchains.reports import HLSReport


def _jsonable(value: Any) -> Any:
    if isinstance(value, HLSReport):
        return {
            "device": value.device,
            "alm_utilization": value.alm_utilization,
            "dsp_utilization": value.dsp_utilization,
            "ii": value.ii,
            "fmax_mhz": value.fmax_mhz,
            "unroll_factor": value.unroll_factor,
            "variable_inner_loop": value.variable_inner_loop,
            "fitted": value.fitted,
        }
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def design_to_dict(design: "DesignLike", include_source: bool = False
                   ) -> Dict[str, Any]:
    if isinstance(design, DesignRecord):
        return design.to_dict(include_source)
    # one render serves the LOC figures and the source; the ``loc`` and
    # ``loc_delta_pct`` properties would each render the design again
    text = design.render()
    loc = count_loc(text)
    out: Dict[str, Any] = {
        "label": design.label,
        "app": design.app_name,
        "kind": design.kind,
        "device": design.device,
        "kernel": design.kernel_name,
        "synthesizable": design.synthesizable,
        "failure_reason": design.failure_reason,
        "predicted_time_s": design.predicted_time_s,
        "speedup": design.speedup,
        "loc": loc,
        "reference_loc": design.reference_loc,
        "loc_delta_pct": delta_pct(loc, design.reference_loc),
        "metadata": _jsonable(design.metadata),
        "buffers": [
            {"name": b.name, "nbytes": b.nbytes, "direction": b.direction}
            for b in design.buffers],
    }
    if include_source:
        out["source"] = text
    return out


def decision_to_dict(decision: PSADecision) -> Dict[str, Any]:
    return {"branch": decision.branch,
            "selected": list(decision.selected),
            "reasons": list(decision.reasons)}


def result_to_dict(result: "ResultLike",
                   include_sources: bool = False) -> Dict[str, Any]:
    """JSON-compatible view of a complete flow run."""
    if isinstance(result, FlowResultRecord):
        return result.to_dict(include_sources)
    decisions = {key: decision_to_dict(value)
                 for key, value in result.facts.items()
                 if isinstance(value, PSADecision)}
    profile = result.facts.get("kernel_profile")
    profile_dict: Optional[Dict[str, Any]] = None
    if profile is not None:
        profile_dict = {
            "flops": profile.total_flops,
            "mem_bytes": profile.mem_bytes,
            "outer_iterations": profile.outer_iterations,
            "bytes_in": profile.bytes_in,
            "bytes_out": profile.bytes_out,
            "sp_fraction": profile.sp_fraction,
            "gather_fraction": profile.gather_fraction,
            "outer_parallel": profile.outer_parallel,
            "dependent_inner_loops": profile.dependent_inner_loops,
            "inner_fully_unrollable": profile.inner_fully_unrollable,
        }
    return {
        "app": result.app.name,
        "mode": result.mode,
        "selected_target": result.selected_target,
        "reference_time_s": result.reference_time_s,
        "designs": [design_to_dict(d, include_sources)
                    for d in result.designs],
        "decisions": decisions,
        "kernel_profile": profile_dict,
        "trace": list(result.trace),
    }


def dump_result(result: FlowResult, path: str,
                include_sources: bool = False) -> None:
    """Write the flow result to ``path`` as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_dict(result, include_sources), fh, indent=2)


def dumps_result(result: "ResultLike",
                 include_sources: bool = False) -> str:
    return json.dumps(result_to_dict(result, include_sources), indent=2)


# ----------------------------------------------------------------------
# Deserialization: read-side records reconstructed from the JSON form
# ----------------------------------------------------------------------

@dataclass
class BufferRecord:
    """Deserialized view of one kernel buffer."""

    name: str
    nbytes: float
    direction: str


@dataclass
class DesignRecord:
    """Read-side equivalent of :class:`~repro.codegen.design.Design`.

    Carries everything :func:`design_to_dict` serializes.  LOC figures
    are stored (not recomputed) because the AST is not round-tripped;
    ``render()`` returns the stored source when the result was
    serialized with ``include_sources=True``.
    """

    app_name: str
    kind: str
    kernel_name: str
    device: Optional[str]
    synthesizable: bool
    failure_reason: Optional[str]
    predicted_time_s: Optional[float]
    speedup: Optional[float]
    loc: int
    reference_loc: int
    loc_delta_pct: float
    metadata: Dict[str, Any] = field(default_factory=dict)
    buffers: Tuple[BufferRecord, ...] = ()
    source: Optional[str] = None

    @property
    def label(self) -> str:
        device = self.metadata.get("device_label") or self.device or "generic"
        return f"{self.app_name}/{self.kind}/{device}"

    @property
    def loc_delta(self) -> int:
        return self.loc - self.reference_loc

    def buffer(self, name: str) -> BufferRecord:
        for buf in self.buffers:
            if buf.name == name:
                return buf
        raise KeyError(f"design has no buffer {name!r}")

    def render(self) -> str:
        if self.source is None:
            raise ValueError(
                f"design {self.label} was serialized without sources; "
                f"re-run with include_sources=True to keep them")
        return self.source

    def to_dict(self, include_source: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "label": self.label,
            "app": self.app_name,
            "kind": self.kind,
            "device": self.device,
            "kernel": self.kernel_name,
            "synthesizable": self.synthesizable,
            "failure_reason": self.failure_reason,
            "predicted_time_s": self.predicted_time_s,
            "speedup": self.speedup,
            "loc": self.loc,
            "reference_loc": self.reference_loc,
            "loc_delta_pct": self.loc_delta_pct,
            "metadata": dict(self.metadata),
            "buffers": [
                {"name": b.name, "nbytes": b.nbytes,
                 "direction": b.direction}
                for b in self.buffers],
        }
        if include_source and self.source is not None:
            out["source"] = self.source
        return out

    def __repr__(self):
        return (f"<DesignRecord {self.label} loc={self.loc} "
                f"speedup={self.speedup}>")


def design_from_dict(data: Dict[str, Any]) -> DesignRecord:
    return DesignRecord(
        app_name=data["app"],
        kind=data["kind"],
        kernel_name=data["kernel"],
        device=data.get("device"),
        synthesizable=data["synthesizable"],
        failure_reason=data.get("failure_reason"),
        predicted_time_s=data.get("predicted_time_s"),
        speedup=data.get("speedup"),
        loc=data["loc"],
        reference_loc=data["reference_loc"],
        loc_delta_pct=data["loc_delta_pct"],
        metadata=dict(data.get("metadata") or {}),
        buffers=tuple(BufferRecord(b["name"], b["nbytes"], b["direction"])
                      for b in data.get("buffers") or ()),
        source=data.get("source"),
    )


def decision_from_dict(data: Dict[str, Any]) -> PSADecision:
    return PSADecision(branch=data["branch"],
                       selected=list(data["selected"]),
                       reasons=list(data["reasons"]))


@dataclass
class FlowResultRecord:
    """Read-side equivalent of :class:`~repro.flow.engine.FlowResult`.

    ``facts`` holds the reconstructed :class:`PSADecision` objects under
    their ``psa:<branch>`` keys plus the kernel-profile summary as a
    plain dict -- enough for every evaluation-harness consumer.
    """

    app_name: str
    mode: str
    designs: List[DesignRecord]
    trace: List[str]
    decisions: Dict[str, PSADecision]
    kernel_profile: Optional[Dict[str, Any]]
    reference_time_s: float

    @property
    def app(self):
        """The live AppSpec from the registry (apps are code, not data)."""
        from repro.apps.registry import get_app

        return get_app(self.app_name)

    @property
    def facts(self) -> Dict[str, Any]:
        facts: Dict[str, Any] = dict(self.decisions)
        if self.kernel_profile is not None:
            facts["kernel_profile_summary"] = self.kernel_profile
        return facts

    def design(self, device_label: str) -> Optional[DesignRecord]:
        for design in self.designs:
            if design.metadata.get("device_label") == device_label:
                return design
        return None

    @property
    def synthesizable_designs(self) -> List[DesignRecord]:
        return [d for d in self.designs if d.synthesizable
                and d.speedup is not None]

    @property
    def auto_selected(self) -> Optional[DesignRecord]:
        candidates = self.synthesizable_designs
        if not candidates:
            return None
        return max(candidates, key=lambda d: d.speedup)

    @property
    def selected_target(self) -> Optional[str]:
        decision = self.decisions.get("psa:A")
        if decision is None or not decision.selected:
            return None
        return decision.selected[0]

    def explain(self) -> str:
        return "\n".join(self.trace)

    def to_dict(self, include_sources: bool = False) -> Dict[str, Any]:
        return {
            "app": self.app_name,
            "mode": self.mode,
            "selected_target": self.selected_target,
            "reference_time_s": self.reference_time_s,
            "designs": [d.to_dict(include_sources) for d in self.designs],
            "decisions": {key: decision_to_dict(value)
                          for key, value in self.decisions.items()},
            "kernel_profile": self.kernel_profile,
            "trace": list(self.trace),
        }


def result_from_dict(data: Dict[str, Any]) -> FlowResultRecord:
    """Rebuild a read-side flow result from :func:`result_to_dict` data."""
    return FlowResultRecord(
        app_name=data["app"],
        mode=data["mode"],
        designs=[design_from_dict(d) for d in data.get("designs") or ()],
        trace=list(data.get("trace") or ()),
        decisions={key: decision_from_dict(value)
                   for key, value in (data.get("decisions") or {}).items()},
        kernel_profile=data.get("kernel_profile"),
        reference_time_s=data["reference_time_s"],
    )


def load_result(path: str) -> FlowResultRecord:
    """Read a result previously written with :func:`dump_result`."""
    with open(path, "r", encoding="utf-8") as fh:
        return result_from_dict(json.load(fh))


#: anything serializable as a flow result
ResultLike = Any
DesignLike = Any
