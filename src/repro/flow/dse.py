"""Design-space exploration tasks (the ``O`` rows of Fig. 4).

- :class:`UnrollUntilOvermapDSE` -- the Fig. 2 meta-program: iteratively
  double the kernel outer loop's unroll pragma, running a dpcpp partial
  compile each time, until the device overmaps (LUT >= 90%); export the
  last fitting design.  Designs that overmap at factor 1 are marked
  unsynthesisable (Rush Larsen's fate on both FPGAs, §IV-B.iii).
- :class:`BlocksizeDSE` -- sweep HIP launch blocksizes, scoring each
  with the occupancy-based GPU model ("aim to minimize execution time
  and maximize occupancy", §IV-B.ii).
- :class:`OmpThreadsDSE` -- sweep OpenMP thread counts on the CPU model
  ("selects the maximum number of threads available automatically" for
  embarrassingly parallel benchmarks, §IV-B.i).

Each task submits its whole candidate axis as one batched tensor
evaluation (:mod:`repro.flow.sweep` over :mod:`repro.lang.batch`).
The original candidate-at-a-time loops stay as the reference the
differential suite reaches by setting ``sweep.LOWERING = "point"``.
The two lowerings are element-wise identical -- same chosen design
point, same costs, same reports, same ``dse.point`` telemetry -- which
the differential suite pins for every app and device.  Either way the
sweep runs under one ``dse.sweep`` parent span with per-axis
``dse.point`` child events.
"""

from __future__ import annotations

from typing import List, Optional

from repro import obs
from repro.flow import sweep
from repro.flow.task import FlowError, Task, TaskKind
from repro.platforms.cpu import CPUModel
from repro.platforms.gpu import GPUDesignPoint, GPUModel
from repro.platforms.registry import get_platform
from repro.toolchains.dpcpp import DpcppToolchain
from repro.toolchains.hipcc import HipccToolchain
from repro.transforms.openmp import set_num_threads
from repro.transforms.unroll import set_unroll_pragma


class UnrollUntilOvermapDSE(Task):
    """``unroll_until_overmap`` (Fig. 2) for one FPGA device."""

    kind = TaskKind.OPTIMISATION
    dynamic = False
    MAX_FACTOR = 4096
    FACTORS = tuple(2 ** k for k in range(1, 13))  # 2, 4, ..., 4096

    def __init__(self, device: str):
        self.device = device
        self.scope = "FPGA-A10" if device == "arria10" else "FPGA-S10"
        self.name = f"{'A10' if device == 'arria10' else 'S10'} " \
                    "Unroll Until Overmap DSE"
        self.toolchain = DpcppToolchain()

    def run(self, ctx) -> None:
        design = ctx.design
        if design is None:
            raise FlowError("unroll DSE needs a oneAPI design in flight")
        kernel = design.kernel_name
        mode = sweep.LOWERING
        with obs.span("dse.sweep", dse="unroll", device=self.device,
                      mode=mode) as sp:
            if mode == "batched":
                points = self._run_batched(ctx, design, kernel)
            else:
                points = self._run_point(ctx, design, kernel)
            sweep.record_sweep(sp, mode, "unroll", points)

    # -- shared pieces -------------------------------------------------
    def _mark_unsynthesizable(self, ctx, design, report) -> None:
        design.synthesizable = False
        design.failure_reason = (
            f"design overmaps the {self.device} at unroll factor 1 "
            f"(ALM utilisation {report.alm_utilization:.0%})")
        design.metadata.update(unroll_factor=1, hls_report=report)
        ctx.log(f"    {self.name}: {design.failure_reason}")

    def _finalize(self, ctx, design, kernel, best_factor,
                  best_report) -> None:
        if best_factor > 1:
            for loop in design.ast.function(kernel).outermost_loops():
                set_unroll_pragma(loop, best_factor)
            best_report = self.toolchain.partial_compile(
                design.ast, kernel, self.device)
        design.metadata.update(unroll_factor=best_factor,
                               hls_report=best_report)
        ctx.log(f"    {self.name}: selected unroll factor {best_factor} "
                f"(ALM {best_report.alm_utilization:.0%}, "
                f"DSP {best_report.dsp_utilization:.0%})")

    # -- point-at-a-time reference lowering -----------------------------
    def _run_point(self, ctx, design, kernel) -> int:
        # baseline compile at factor 1
        report = self.toolchain.partial_compile(design.ast, kernel,
                                                self.device)
        if report.overmapped:
            self._mark_unsynthesizable(ctx, design, report)
            return 0

        best_factor = 1
        best_report = report
        points = 0
        factor = 2
        while factor <= self.MAX_FACTOR:
            # candidates mutate only the kernel function: clone that
            # subtree, share every other declaration
            candidate = design.ast.clone_function(kernel)
            for loop in candidate.function(kernel).outermost_loops():
                set_unroll_pragma(loop, factor)
            report = self.toolchain.partial_compile(candidate, kernel,
                                                    self.device)
            points += 1
            obs.event("dse.point", dse="unroll", device=self.device,
                      factor=factor, alm=report.alm_utilization,
                      overmapped=report.overmapped)
            if report.overmapped:
                ctx.log(f"    {self.name}: factor {factor} overmaps "
                        f"({report.utilization:.0%}); keeping {best_factor}")
                break
            if report.unroll_factor < factor:
                # pragma ignored (variable-bound inner loop): no point
                # continuing to double
                ctx.log(f"    {self.name}: unroll pragma ineffective "
                        "(variable-bound inner loop); keeping factor 1")
                break
            best_factor = factor
            best_report = report
            factor *= 2
        else:
            ctx.log(f"    {self.name}: stopped at cap {self.MAX_FACTOR}")

        self._finalize(ctx, design, kernel, best_factor, best_report)
        return points

    # -- batched lowering (default) ------------------------------------
    def _run_batched(self, ctx, design, kernel) -> int:
        # the factor-1 baseline is a real compile in both lowerings
        baseline = self.toolchain.partial_compile(design.ast, kernel,
                                                  self.device)
        if baseline.overmapped:
            self._mark_unsynthesizable(ctx, design, baseline)
            return 0

        outcome = sweep.unroll_sweep(self.toolchain, design.ast, kernel,
                                     self.device, self.FACTORS)
        for factor, alm, _util, over in outcome.points:
            obs.event("dse.point", dse="unroll", device=self.device,
                      factor=factor, alm=alm, overmapped=over)
        if outcome.stop == "ineffective":
            ctx.log(f"    {self.name}: unroll pragma ineffective "
                    "(variable-bound inner loop); keeping factor 1")
        elif outcome.stop == "overmap":
            factor, _alm, util, _over = outcome.points[-1]
            ctx.log(f"    {self.name}: factor {factor} overmaps "
                    f"({util:.0%}); keeping {outcome.best_factor}")
        else:
            ctx.log(f"    {self.name}: stopped at cap {self.MAX_FACTOR}")

        self._finalize(ctx, design, kernel, outcome.best_factor, baseline)
        return len(outcome.points)


class BlocksizeDSE(Task):
    """HIP launch blocksize sweep for one GPU device."""

    kind = TaskKind.OPTIMISATION
    dynamic = True  # the paper's DSE times real launches
    CANDIDATES = (64, 128, 192, 256, 384, 512, 768, 1024)

    def __init__(self, device: str):
        self.device = device
        self.scope = "GPU-1080" if device == "gtx1080ti" else "GPU-2080"
        label = "GTX 1080" if device == "gtx1080ti" else "RTX 2080"
        self.name = f"{label} Blocksize DSE"
        self.toolchain = HipccToolchain()

    def run(self, ctx) -> None:
        design = ctx.design
        if design is None:
            raise FlowError("blocksize DSE needs a HIP design in flight")
        model: GPUModel = get_platform(self.device)
        compile_report = self.toolchain.compile(design.ast,
                                                design.kernel_name)
        profile = ctx.profile_for(design)
        point = GPUDesignPoint(
            registers_per_thread=compile_report.registers_per_thread,
            shared_mem_per_block=design.metadata.get("shared_bytes", 0),
            pinned_memory=design.metadata.get("pinned_memory", False),
            uses_shared_buffering=design.metadata.get(
                "shared_buffering", False),
            uses_intrinsics=design.metadata.get("intrinsics", False),
            spilled=compile_report.spilled,
        )
        mode = sweep.LOWERING
        with obs.span("dse.sweep", dse="blocksize", device=self.device,
                      mode=mode) as sp:
            if mode == "batched":
                candidates, limiters = sweep.blocksize_sweep(
                    model, profile, point, self.CANDIDATES)
            else:
                candidates, limiters = [], []
                for blocksize in self.CANDIDATES:
                    point.blocksize = blocksize
                    time = model.design_time(profile, point)
                    occ = model.occupancy(blocksize,
                                          point.registers_per_thread,
                                          point.shared_mem_per_block)
                    candidates.append((time, blocksize, occ.occupancy))
                    limiters.append(occ.limited_by)
            for time, blocksize, occupancy in candidates:
                obs.event("dse.point", dse="blocksize",
                          device=self.device, blocksize=blocksize,
                          time_s=time, occupancy=occupancy)
            sweep.record_sweep(sp, mode, "blocksize", len(candidates))

        # "minimize execution time and maximize occupancy": among
        # launch configurations within 1% of the optimum, prefer the
        # highest-occupancy (then largest) block
        _, blocksize, occupancy = sweep.select_blocksize(candidates)
        limited_by = limiters[self.CANDIDATES.index(blocksize)]
        design.metadata.update(
            blocksize=blocksize,
            registers_per_thread=compile_report.registers_per_thread,
            register_spill=compile_report.spilled,
            occupancy=occupancy,
            occupancy_limited_by=limited_by,
        )
        ctx.log(f"    {self.name}: blocksize {blocksize} "
                f"({compile_report.registers_per_thread} regs/thread, "
                f"occupancy {occupancy:.0%}, "
                f"limited by {limited_by})")


class OmpThreadsDSE(Task):
    """OpenMP thread-count sweep ("OMP Num. Threads DSE")."""

    kind = TaskKind.OPTIMISATION
    dynamic = True
    scope = "CPU-OMP"
    name = "OMP Num. Threads DSE"

    def run(self, ctx) -> None:
        design = ctx.design
        if design is None:
            raise FlowError("thread DSE needs an OpenMP design in flight")
        model = CPUModel()
        profile = ctx.profile_for(design)
        candidates = [t for t in (1, 2, 4, 8, 16, 24, 32)
                      if t <= model.spec.cores]
        mode = sweep.LOWERING
        with obs.span("dse.sweep", dse="omp-threads", mode=mode) as sp:
            if mode == "batched":
                times = sweep.omp_sweep(model, profile, candidates)
            else:
                times = [model.omp_time(profile, threads)
                         for threads in candidates]
            for threads, time in zip(candidates, times):
                obs.event("dse.point", dse="omp-threads", threads=threads,
                          time_s=time)
            sweep.record_sweep(sp, mode, "omp-threads", len(candidates))
        best_threads = candidates[sweep.first_min_index(times)]
        design.metadata["num_threads"] = best_threads
        set_num_threads(design.ast, design.kernel_name, best_threads)
        ctx.log(f"    {self.name}: selected {best_threads} threads")
