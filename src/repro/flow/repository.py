"""The repository of codified design-flow tasks (Fig. 4, left panel).

Every row of the paper's task table is one class here; the Fig. 4
classifications (A/T/CG/O) and dynamic markers are preserved.  Tasks
wrap the standalone meta-programs of :mod:`repro.analysis`,
:mod:`repro.transforms` and :mod:`repro.codegen`, binding them to the
shared :class:`~repro.flow.context.FlowContext`.
"""

from __future__ import annotations

from repro.analysis.data_movement import BufferTraffic, DataMovementInfo
from repro.analysis.dependence import analyze_dependences
from repro.analysis.hotspot import identify_hotspot_loops
from repro.analysis.intensity import analyze_intensity
from repro.analysis.pointer_alias import AliasInfo, AliasPair
from repro.analysis.trip_count import TripCountInfo, static_trip_count
from repro.analysis.common import LoopPath
from repro.codegen.hip import generate_hip_design
from repro.codegen.oneapi import generate_oneapi_design
from repro.codegen.openmp import generate_openmp_design
from repro.flow.task import FlowError, Task, TaskKind
from repro.transforms.extraction import extract_hotspot
from repro.transforms.fpga_mem import zero_copy_data_transfer
from repro.transforms.gpu_mem import (
    employ_pinned_memory, employ_specialised_math,
    introduce_shared_mem_buffer,
)
from repro.transforms.openmp import insert_parallel_for
from repro.transforms.remove_array_dep import remove_array_plus_equals
from repro.transforms.sp_math import (
    cast_double_loads, demote_local_doubles, employ_sp_literals,
    employ_sp_math,
)
from repro.transforms.unroll import unroll_fixed_loops


# ======================================================================
# Target-independent tasks (T-INDEP)
# ======================================================================

class IdentifyHotspotLoops(Task):
    name = "Identify Hotspot Loops"
    kind = TaskKind.ANALYSIS
    dynamic = True

    def run(self, ctx) -> None:
        hotspots = identify_hotspot_loops(ctx.ast, ctx.workload)
        if not hotspots:
            raise FlowError("application has no outermost loops to time")
        ctx.facts["hotspots"] = hotspots
        top = hotspots[0]
        ctx.log(f"    hotspot: {top.path} "
                f"({top.fraction:.0%} of execution time)")


class HotspotLoopExtraction(Task):
    name = "Hotspot Loop Extraction"
    kind = TaskKind.TRANSFORM

    def __init__(self, kernel_name: str = "hotspot_kernel"):
        self.kernel_name = kernel_name

    def run(self, ctx) -> None:
        hotspots = ctx.facts.get("hotspots")
        if not hotspots:
            raise FlowError("run Identify Hotspot Loops first")
        result = extract_hotspot(ctx.ast, hotspots[0].path, self.kernel_name)
        ctx.facts["extraction"] = result
        ctx.invalidate_kernel_report()
        # snapshot the unoptimised hotspot: this is the Fig. 5 baseline
        ctx.facts["reference_profile"] = ctx.build_kernel_profile()
        ctx.log(f"    extracted {result.kernel_name}"
                f"({', '.join(n for n, _ in result.params)})")


class PointerAnalysis(Task):
    name = "Pointer Analysis"
    kind = TaskKind.ANALYSIS
    dynamic = True

    def run(self, ctx) -> None:
        report = ctx.kernel_report()
        kernel = ctx.kernel_name
        events = report.calls_of(kernel)
        conflicts = []
        seen = set()
        for call_index, event in enumerate(events):
            args = event.args
            for i in range(len(args)):
                for j in range(i + 1, len(args)):
                    name_a, id_a, off_a, ext_a = args[i]
                    name_b, id_b, off_b, ext_b = args[j]
                    if id_a != id_b:
                        continue
                    if max(off_a, off_b) < min(off_a + ext_a, off_b + ext_b):
                        key = (name_a, name_b)
                        if key not in seen:
                            seen.add(key)
                            conflicts.append(
                                AliasPair(name_a, name_b, call_index))
        info = AliasInfo(kernel, len(events), tuple(conflicts))
        ctx.facts["alias"] = info
        ctx.log(f"    {len(events)} kernel call(s); "
                + ("no pointer aliasing" if info.no_aliasing
                   else f"ALIASING: {conflicts}"))


class ArithmeticIntensityAnalysis(Task):
    name = "Arithmetic Intensity Analysis"
    kind = TaskKind.ANALYSIS

    def run(self, ctx) -> None:
        info = analyze_intensity(ctx.ast, ctx.kernel_name)
        ctx.facts["intensity"] = info
        ctx.log(f"    FLOPs/B = {info.flops_per_byte:.3f} "
                f"(SP fraction {info.sp_fraction:.0%})")


class DataInOutAnalysis(Task):
    name = "Data In/Out Analysis"
    kind = TaskKind.ANALYSIS
    dynamic = True

    def run(self, ctx) -> None:
        report = ctx.kernel_report()
        kernel = ctx.kernel_name
        records = report.arrays_touched_by(kernel)
        buffers = []
        for rec in records.values():
            if rec.is_input and rec.is_output:
                direction = "inout"
            elif rec.is_output:
                direction = "out"
            elif rec.is_input:
                direction = "in"
            else:
                continue
            buffers.append(BufferTraffic(rec.name, rec.nbytes, direction))
        buffers.sort(key=lambda b: b.name)
        info = DataMovementInfo(kernel, tuple(buffers),
                                len(report.calls_of(kernel)))
        ctx.facts["data_movement"] = info
        ctx.log(f"    in: {info.bytes_in} B, out: {info.bytes_out} B "
                f"({len(buffers)} buffers)")


class LoopDependenceAnalysis(Task):
    name = "Loop Dependence Analysis"
    kind = TaskKind.ANALYSIS

    def run(self, ctx) -> None:
        deps = analyze_dependences(ctx.ast, ctx.kernel_name)
        ctx.facts["dependences"] = deps
        parallel = sum(1 for d in deps.values() if d.is_parallel)
        ctx.log(f"    {len(deps)} loops: {parallel} parallel, "
                f"{len(deps) - parallel} with dependences")


class LoopTripCountAnalysis(Task):
    name = "Loop Trip-Count Analysis"
    kind = TaskKind.ANALYSIS
    dynamic = True

    def run(self, ctx) -> None:
        report = ctx.kernel_report()
        kernel = ctx.ast.function(ctx.kernel_name)
        infos = {}
        for index, loop in enumerate(kernel.loops()):
            path = LoopPath(kernel.name, index)
            profile = report.loop_profiles.get(loop.node_id)
            static = static_trip_count(loop)
            if profile is None or profile.entries == 0:
                infos[path] = TripCountInfo(path, 0, 0, 0, 0, 0.0,
                                            False, static)
            else:
                infos[path] = TripCountInfo(
                    path, profile.entries, profile.total_iterations,
                    profile.min_trips, profile.max_trips,
                    profile.avg_trips, profile.constant_trips, static)
        ctx.facts["trip_counts"] = infos
        ctx.log(f"    characterised {len(infos)} loops")


class RemoveArrayPlusEqualsDependency(Task):
    name = "Remove Array += Dependency"
    kind = TaskKind.TRANSFORM

    def run(self, ctx) -> None:
        introduced = remove_array_plus_equals(ctx.ast, ctx.kernel_name)
        if introduced:
            ctx.log(f"    scalarised {introduced} array accumulator(s); "
                    "re-running kernel characterisation")
            ctx.invalidate_kernel_report()
            ctx.facts.pop("kernel_profile", None)
            # refresh the facts downstream strategies consume
            ctx.facts["intensity"] = analyze_intensity(
                ctx.ast, ctx.kernel_name)
            ctx.facts["dependences"] = analyze_dependences(
                ctx.ast, ctx.kernel_name)
        else:
            ctx.log("    no removable array += accumulation found")


# ======================================================================
# Code generation (one per target branch)
# ======================================================================

class GenerateHIPDesign(Task):
    name = "Generate HIP Design"
    kind = TaskKind.CODEGEN
    scope = "GPU"

    def run(self, ctx) -> None:
        ctx.design = generate_hip_design(
            ctx.app.name, ctx.ast.clone(), ctx.facts["extraction"],
            ctx.facts.get("data_movement"), ctx.app.reference_loc)
        ctx.log("    generated HIP host/device management code")


class GenerateOneAPIDesign(Task):
    name = "Generate oneAPI Design"
    kind = TaskKind.CODEGEN
    scope = "FPGA"

    def run(self, ctx) -> None:
        ctx.design = generate_oneapi_design(
            ctx.app.name, ctx.ast.clone(), ctx.facts["extraction"],
            ctx.facts.get("data_movement"), ctx.app.reference_loc)
        ctx.log("    generated oneAPI queue/buffer management code")


class MultiThreadParallelLoops(Task):
    name = "Multi-Thread Parallel Loops"
    kind = TaskKind.TRANSFORM
    scope = "CPU-OMP"

    def run(self, ctx) -> None:
        design = generate_openmp_design(
            ctx.app.name, ctx.ast.clone(), ctx.facts["extraction"],
            ctx.facts.get("data_movement"), ctx.app.reference_loc)
        loops = insert_parallel_for(design.ast, design.kernel_name)
        ctx.design = design
        ctx.log(f"    annotated {len(loops)} parallel loop(s) with "
                "#pragma omp parallel for")


# ======================================================================
# Target-specific transforms
# ======================================================================

class _DesignTask(Task):
    """Base for tasks operating on the in-flight design."""

    def design(self, ctx):
        if ctx.design is None:
            raise FlowError(f"{self.name} needs a generated design")
        return ctx.design


class EmploySPMathFns(_DesignTask):
    name = "Employ SP Math Fns*"
    kind = TaskKind.TRANSFORM

    def __init__(self, scope: str):
        self.scope = scope

    def run(self, ctx) -> None:
        design = self.design(ctx)
        if not ctx.app.sp_tolerant:
            ctx.log("    skipped: application declares double-precision "
                    "requirements (the * in Fig. 4)")
            return
        count = employ_sp_math(design.ast, design.kernel_name)
        design.metadata["sp_math"] = True
        ctx.log(f"    rewrote {count} math call(s) to SP variants")


class EmploySPNumericLiterals(_DesignTask):
    name = "Employ SP Numeric Literals*"
    kind = TaskKind.TRANSFORM

    def __init__(self, scope: str):
        self.scope = scope

    def run(self, ctx) -> None:
        design = self.design(ctx)
        if not ctx.app.sp_tolerant:
            ctx.log("    skipped: application declares double-precision "
                    "requirements (the * in Fig. 4)")
            return
        literals = employ_sp_literals(design.ast, design.kernel_name)
        locals_demoted = demote_local_doubles(design.ast, design.kernel_name)
        casts = cast_double_loads(design.ast, design.kernel_name)
        design.metadata["sp_literals"] = True
        ctx.log(f"    suffixed {literals} literal(s), demoted "
                f"{locals_demoted} local double(s), cast {casts} "
                "buffer load(s) to float")


class UnrollFixedLoops(_DesignTask):
    name = "Unroll Fixed Loops"
    kind = TaskKind.TRANSFORM
    scope = "FPGA"

    def run(self, ctx) -> None:
        design = self.design(ctx)
        unrolled = unroll_fixed_loops(design.ast, design.kernel_name)
        ctx.log(f"    fully unrolled {len(unrolled)} fixed-bound "
                "inner loop(s)")


class EmployHIPPinnedMemory(_DesignTask):
    name = "Employ HIP Pinned Memory"
    kind = TaskKind.TRANSFORM
    scope = "GPU"

    def run(self, ctx) -> None:
        employ_pinned_memory(self.design(ctx))
        ctx.log("    host buffers page-locked for DMA transfers")


class IntroduceSharedMemBuf(_DesignTask):
    name = "Introduce Shared Mem Buf"
    kind = TaskKind.TRANSFORM
    scope = "GPU"

    def run(self, ctx) -> None:
        design = self.design(ctx)
        if introduce_shared_mem_buffer(design):
            ctx.log(f"    staging {design.metadata['shared_tile']} "
                    "through shared memory")
        else:
            ctx.log("    no redundantly-streamed operand: task is a no-op")


class EmploySpecialisedMathFns(_DesignTask):
    name = "Employ Specialised Math Fns"
    kind = TaskKind.TRANSFORM
    scope = "GPU"

    def run(self, ctx) -> None:
        design = self.design(ctx)
        count = employ_specialised_math(design)
        ctx.log(f"    rewrote {count} call(s) to device intrinsics")


class ZeroCopyDataTransfer(_DesignTask):
    name = "Zero-Copy Data Transfer"
    kind = TaskKind.TRANSFORM
    scope = "FPGA-S10"

    def run(self, ctx) -> None:
        zero_copy_data_transfer(self.design(ctx))
        ctx.log("    design rewired to USM zero-copy host memory")


# ======================================================================
# Device specialisation helper
# ======================================================================

class SpecialiseForDevice(Task):
    """Clone the in-flight design for one concrete device (branch B/C)."""

    kind = TaskKind.CODEGEN

    def __init__(self, device: str, label: str, scope: str):
        self.device = device
        self.label = label
        self.scope = scope
        self.name = f"Specialise for {label}"

    def run(self, ctx) -> None:
        if ctx.design is None:
            raise FlowError("device specialisation needs a design")
        design = ctx.design.clone()
        design.device = self.device
        design.metadata["device_label"] = self.label
        ctx.design = design
