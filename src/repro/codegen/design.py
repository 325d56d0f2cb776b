"""The Design artifact.

A Design is one generated implementation of the application for one
target (and, after device-specific branches, one device).  It carries:

- the application AST with the extracted (and target-optimised) kernel;
- the buffer/scalar interface of the kernel (from extraction + data
  movement analysis), which the management-code generators consume;
- ``metadata`` -- the knobs device-specific tasks and DSE set
  (blocksize, unroll factor, pinned/zero-copy, num_threads, ...);
- performance results filled in by the flow engine.

``render()`` produces the complete human-readable source of the design;
``loc_delta`` is Table I's metric: added lines of code relative to the
reference high-level source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.data_movement import BufferTraffic
from repro.meta.ast_api import Ast
from repro.meta.ast_nodes import CType
from repro.meta.unparse import count_loc


def delta_pct(loc: int, reference_loc: int) -> float:
    """Table I's added lines of code, as a percentage of the reference."""
    if reference_loc <= 0:
        return 0.0
    return 100.0 * (loc - reference_loc) / reference_loc


@dataclass
class Design:
    app_name: str
    kind: str                      # 'cpu-omp' | 'gpu-hip' | 'fpga-oneapi'
    kernel_name: str
    ast: Ast                       # app + kernel, target-optimised
    params: Tuple[Tuple[str, CType], ...] = ()
    buffers: Tuple[BufferTraffic, ...] = ()
    device: Optional[str] = None   # platform registry key, set at B/C
    reference_loc: int = 0
    metadata: Dict[str, Any] = field(default_factory=dict)

    # -- filled by the flow engine after model evaluation ----------------
    synthesizable: bool = True
    failure_reason: Optional[str] = None
    predicted_time_s: Optional[float] = None
    speedup: Optional[float] = None

    @property
    def label(self) -> str:
        device = self.metadata.get("device_label") or self.device or "generic"
        return f"{self.app_name}/{self.kind}/{device}"

    def buffer(self, name: str) -> BufferTraffic:
        for buf in self.buffers:
            if buf.name == name:
                return buf
        raise KeyError(f"design has no buffer {name!r}")

    # -- rendering / LOC ---------------------------------------------------
    def render(self) -> str:
        """Complete source of this design (dispatches on target kind)."""
        from repro.codegen.hip import render_hip_design
        from repro.codegen.oneapi import render_oneapi_design
        from repro.codegen.openmp import render_openmp_design

        if self.kind == "cpu-omp":
            return render_openmp_design(self)
        if self.kind == "gpu-hip":
            return render_hip_design(self)
        if self.kind == "fpga-oneapi":
            return render_oneapi_design(self)
        raise ValueError(f"unknown design kind {self.kind!r}")

    @property
    def loc(self) -> int:
        return count_loc(self.render())

    @property
    def loc_delta(self) -> int:
        """Added lines of code versus the reference source (Table I)."""
        return self.loc - self.reference_loc

    @property
    def loc_delta_pct(self) -> float:
        return delta_pct(self.loc, self.reference_loc)

    def clone(self) -> "Design":
        """Independent copy for device-specific specialisation (B/C)."""
        return Design(
            app_name=self.app_name,
            kind=self.kind,
            kernel_name=self.kernel_name,
            ast=self.ast.clone(),
            params=self.params,
            buffers=self.buffers,
            device=self.device,
            reference_loc=self.reference_loc,
            metadata=dict(self.metadata),
            synthesizable=self.synthesizable,
            failure_reason=self.failure_reason,
        )

    def export(self, path: str) -> str:
        text = self.render()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return text

    def __repr__(self):
        return (f"<Design {self.label} loc={self.loc} "
                f"(+{self.loc_delta_pct:.0f}%)>")
