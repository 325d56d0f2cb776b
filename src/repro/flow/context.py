"""FlowContext: the state a PSA-flow accrues while it runs.

Holds the working AST, the workload, the facts produced by analysis
tasks ("information accrued from target-independent analysis tasks",
§II-B), the designs produced by target branches, and a human-readable
decision trace.  It also centralises program execution so that the
dynamic analyses (trip counts, data movement, aliasing) share one
instrumented run instead of re-executing the application each.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.analysis.access_pattern import analyze_access_pattern
from repro.analysis.common import loop_path
from repro.analysis.dependence import analyze_loop_dependences
from repro.analysis.intensity import analyze_intensity
from repro.analysis.trip_count import static_trip_count
from repro.apps.base import AppSpec
from repro.flow.task import FlowError
from repro.lang.interpreter import Workload
from repro.lang.profiler import ExecReport
from repro.meta.ast_api import Ast
from repro.meta.ast_nodes import ForStmt
from repro.platforms.cpu import CPUModel
from repro.platforms.profile import BufferProfile, KernelProfile
from repro.toolchains.hipcc import count_kernel_pressure

if TYPE_CHECKING:
    from repro.codegen.design import Design
    from repro.flow.task import FlowObserver

#: the Fig. 3 "can fully unroll?" threshold: a dependent inner nest up
#: to this many unrolled iterations counts as fully unrollable
FULL_UNROLL_THRESHOLD = 32


class FlowContext:
    """Shared state threaded through every task of one flow run."""

    def __init__(self, app: AppSpec, workload: Optional[Workload] = None,
                 scale: float = 1.0,
                 observer: Optional["FlowObserver"] = None):
        self.app = app
        self.ast: Ast = app.ast()
        self.workload = workload if workload is not None else app.workload(scale)
        self.facts: Dict[str, Any] = {}
        self.designs: List["Design"] = []
        self.trace: List[str] = []
        self.design: Optional["Design"] = None  # current target branch design
        self.observer = observer
        self._kernel_report: Optional[ExecReport] = None

    # ------------------------------------------------------------------
    def log(self, message: str) -> None:
        self.trace.append(message)

    # ------------------------------------------------------------------
    # Observer hooks (telemetry; no-ops when no observer is attached)
    # ------------------------------------------------------------------
    def notify_task_start(self, task) -> None:
        if self.observer is not None:
            self.observer.on_task_start(task, self)

    def notify_task_end(self, task, wall_s: float, status: str = "ok",
                        error: Optional[BaseException] = None) -> None:
        if self.observer is not None:
            self.observer.on_task_end(task, self, wall_s, status, error)

    def notify_branch(self, decision) -> None:
        if self.observer is not None:
            self.observer.on_branch(decision, self)

    @property
    def kernel_name(self) -> str:
        extraction = self.facts.get("extraction")
        if extraction is None:
            raise KeyError("hotspot has not been extracted yet")
        return extraction.kernel_name

    def fork(self, label: str) -> "FlowContext":
        """Context for one branch path.

        Facts, designs and trace are *shared* (branches contribute to
        the same flow result); only the per-branch design slot is
        private.
        """
        child = FlowContext.__new__(FlowContext)
        child.app = self.app
        child.ast = self.ast
        child.workload = self.workload
        child.facts = self.facts
        child.designs = self.designs
        child.trace = self.trace
        child.design = None
        child.observer = self.observer
        child._kernel_report = self._kernel_report
        return child

    # ------------------------------------------------------------------
    # Shared executions
    # ------------------------------------------------------------------
    def kernel_report(self) -> ExecReport:
        """One profiled run of the current (extracted) program.

        Shared by every dynamic analysis task; invalidated by transforms
        that change the kernel (``invalidate_kernel_report``).  The run
        goes through :func:`repro.analysis.profile.collect_profile`, so
        across flows (and across processes, with ``REPRO_CACHE_DIR``)
        each (source, workload) pair executes at most once.
        """
        if self._kernel_report is None:
            from repro.analysis.profile import collect_profile
            self._kernel_report = collect_profile(self.ast, self.workload)
        return self._kernel_report

    def invalidate_kernel_report(self) -> None:
        self._kernel_report = None

    # ------------------------------------------------------------------
    # Kernel profiles for the platform models
    # ------------------------------------------------------------------
    def _outer_loop(self, ast: Ast) -> ForStmt:
        fn = ast.function(self.kernel_name)
        loops = fn.outermost_loops()
        if not loops:
            raise KeyError(f"kernel {self.kernel_name}() has no loop")
        return loops[0]

    def build_kernel_profile(self) -> KernelProfile:
        """Distil the current kernel's behaviour into a KernelProfile."""
        report = self.kernel_report()
        kernel = self.kernel_name
        outer = self._outer_loop(self.ast)
        loop_prof = report.loop_profiles.get(outer.node_id)
        if loop_prof is None:
            raise FlowError("kernel outer loop never executed under the "
                            "profiling run")
        counts = loop_prof.inclusive

        # dependence structure
        fn = self.ast.function(kernel)
        outer_dep = analyze_loop_dependences(outer)
        inner_infos = []
        for loop in fn.loops():
            if loop is outer or outer not in list(loop.ancestors()):
                continue
            inner_infos.append((loop, analyze_loop_dependences(loop)))
        dependent_inner = [(loop, info) for loop, info in inner_infos
                           if info.has_dependences]
        # latency-chain penalty applies to true carried dependences;
        # plain reductions unroll into independent partial sums
        carried_chain = any(info.carried for _, info in dependent_inner)
        serial_chain = carried_chain
        fully_unrollable = True
        max_nest = 1
        for loop, _info in dependent_inner:
            size = static_trip_count(loop)
            if size is None:
                fully_unrollable = False
                continue
            for nested in loop.nested_loops():
                trips = static_trip_count(nested)
                if trips is None:
                    size = None
                    break
                size *= trips
            if size is None:
                fully_unrollable = False
            else:
                max_nest = max(max_nest, size)
        if dependent_inner and fully_unrollable:
            fully_unrollable = max_nest <= FULL_UNROLL_THRESHOLD

        # data movement / per-buffer records
        access = analyze_access_pattern(self.ast, kernel)
        records = report.arrays_touched_by(kernel)
        buffers = []
        bytes_in = bytes_out = working = 0.0
        for rec in records.values():
            direction = ("inout" if rec.is_input and rec.is_output
                         else "out" if rec.is_output
                         else "in" if rec.is_input else "none")
            if direction == "none":
                continue
            traffic = (rec.reads + rec.writes) * rec.elem_size
            buffers.append(BufferProfile(
                rec.name, rec.nbytes, traffic,
                rec.name in access.gather_buffers, direction))
            working += rec.nbytes
            if direction in ("in", "inout"):
                bytes_in += rec.nbytes
            if direction in ("out", "inout"):
                bytes_out += rec.nbytes

        intensity = analyze_intensity(self.ast, kernel)
        locals_count, math_calls = count_kernel_pressure(fn)

        profile = KernelProfile(
            kernel_name=kernel,
            flops=counts.flops,
            builtin_flops=counts.builtin_flops,
            int_ops=counts.int_ops,
            mem_bytes=counts.total_bytes,
            kernel_calls=loop_prof.entries,
            outer_iterations=loop_prof.total_iterations,
            inner_fixed_product=max_nest,
            outer_parallel=outer_dep.is_parallel_with_reductions,
            dependent_inner_loops=bool(dependent_inner),
            serial_inner_chain=serial_chain,
            inner_fully_unrollable=fully_unrollable,
            bytes_in=bytes_in,
            bytes_out=bytes_out,
            working_set_bytes=working,
            buffer_profiles=tuple(sorted(buffers, key=lambda b: b.name)),
            transfer_amortization=self.app.hotspot_invocations,
            sp_fraction=intensity.sp_fraction,
            gather_fraction=access.gather_fraction,
            local_scalars=locals_count,
            math_calls=math_calls,
        )
        # extrapolate the interpreted (scaled-down) run to the
        # deployment size the models evaluate at
        return profile.scaled(self.app.eval_scale,
                              self.app.fixed_buffers)

    def kernel_profile(self) -> KernelProfile:
        """Memoized profile of the current kernel (post T-INDEP tasks)."""
        profile = self.facts.get("kernel_profile")
        if profile is None:
            profile = self.build_kernel_profile()
            self.facts["kernel_profile"] = profile
        return profile

    def reference_profile(self) -> KernelProfile:
        """Profile of the *unmodified* hotspot (the Fig. 5 baseline).

        Captured by the extraction task before target-independent
        transforms touch the kernel; falls back to the current profile
        when no transform changed anything.
        """
        return self.facts.get("reference_profile") or self.kernel_profile()

    def reference_time(self) -> float:
        """Single-thread CPU time of the unoptimised hotspot (s)."""
        cached = self.facts.get("reference_time")
        if cached is None:
            cached = CPUModel().reference_time(self.reference_profile())
            self.facts["reference_time"] = cached
        return cached

    def profile_for(self, design: "Design") -> KernelProfile:
        """Kernel profile specialised to one design's precision mix."""
        base = self.kernel_profile()
        intensity = analyze_intensity(design.ast, design.kernel_name)
        return base.with_precision(intensity.sp_fraction)
