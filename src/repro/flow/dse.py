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

Blocksizes (8 candidates) and thread counts (at most 7) are scored one
candidate at a time on the scalar models.  The unroll axis (at most 12
doublings) has two paths, chosen by :data:`LOWERING`: ``"fit"`` fits
the exact affine resource model with two walks
(``DpcppToolchain.sweep_coefficients``) and evaluates it per factor;
``"point"`` -- one cloned kernel and partial compile per factor -- is
the reference, reached only by tests.  Both feed one stopping rule
(:func:`_unroll_until_overmap`), and they agree point for point on
every app and on generated kernels (``tests/flow/test_dse_batch.py``).
Every sweep runs under one ``dse.sweep`` span with per-point
``dse.point`` events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro import obs
from repro.flow.task import FlowError, Task, TaskKind
from repro.platforms.cpu import CPUModel
from repro.platforms.gpu import GPUDesignPoint, GPUModel
from repro.platforms.registry import get_platform
from repro.toolchains.dpcpp import DpcppToolchain
from repro.toolchains.hipcc import HipccToolchain
from repro.transforms.openmp import set_num_threads
from repro.transforms.unroll import set_unroll_pragma

#: per-point evaluations by path (``fit`` | ``point``) and DSE family
POINTS_TOTAL = obs.REGISTRY.counter(
    "repro_dse_points_total",
    "design points evaluated by DSE sweeps, by lowering mode",
    ("mode", "dse"))

#: the unroll DSE's path: ``fit`` evaluates the two-walk affine fit.
#: ``point`` -- one partial compile per factor, the reference -- is
#: reached only by tests patching this constant.
LOWERING = "fit"


def record_sweep(span, mode: str, dse: str, points: int) -> None:
    """Count a finished sweep in the metrics registry and its span."""
    if points > 0:
        POINTS_TOTAL.inc(points, mode=mode, dse=dse)
    span.set(points=points)


def select_blocksize(candidates: Sequence[Tuple[float, int, float]]
                     ) -> Tuple[float, int, float]:
    """Pick from ``(time, blocksize, occupancy)`` triples.

    "Minimise execution time and maximise occupancy": among launch
    configurations within 1% of the fastest, prefer the highest
    occupancy, then the largest block.  Blocksizes are unique, so the
    key is total and the choice is invariant under any reordering of
    ``candidates`` -- pinned by ``test_blocksize_tiebreak_order_
    invariant``.
    """
    best_time = min(time for time, _, _ in candidates)
    near_best = [c for c in candidates if c[0] <= best_time * 1.01]
    return max(near_best, key=lambda c: (c[2], c[1]))


def first_min_index(times: Sequence[float]) -> int:
    """Index of the first strict minimum (``if time < best_time``)."""
    best = 0
    for i in range(1, len(times)):
        if times[i] < times[best]:
            best = i
    return best


# ---------------------------------------------------------------------
# Unroll-factor axis (Fig. 2, FPGA)
# ---------------------------------------------------------------------
@dataclass
class UnrollSweepOutcome:
    """What the factor sweep decided.

    ``points`` lists ``(factor, alm_utilization, utilization,
    overmapped)`` for every factor evaluated, in order; ``stop`` is why
    the sweep ended (``overmap`` | ``cap`` | ``ineffective``).
    """

    best_factor: int
    stop: str
    points: List[Tuple[int, float, float, bool]]


#: one factor's ``(alm_utilization, utilization, overmapped, effective)``
_FactorEval = Callable[[int], Tuple[float, float, bool, bool]]


def _unroll_until_overmap(factors: Sequence[int],
                          evaluate: _FactorEval) -> UnrollSweepOutcome:
    """Fig. 2's loop: double until a factor overmaps or the pragma is
    ignored (variable-bound inner loop), keeping the last fitting one."""
    best, points = 1, []
    for factor in factors:
        alm, util, overmapped, effective = evaluate(factor)
        points.append((factor, alm, util, overmapped))
        if overmapped:
            return UnrollSweepOutcome(best, "overmap", points)
        if not effective:
            return UnrollSweepOutcome(best, "ineffective", points)
        best = factor
    return UnrollSweepOutcome(best, "cap", points)


def unroll_points(toolchain: DpcppToolchain, ast, kernel: str,
                  device: str, factors: Sequence[int]
                  ) -> UnrollSweepOutcome:
    """The reference path: one cloned kernel and partial compile per
    factor."""
    def evaluate(factor):
        # candidates mutate only the kernel function: clone that
        # subtree, share every other declaration
        candidate = ast.clone_function(kernel)
        for loop in candidate.function(kernel).outermost_loops():
            set_unroll_pragma(loop, factor)
        report = toolchain.partial_compile(candidate, kernel, device)
        return (report.alm_utilization, report.utilization,
                report.overmapped, report.unroll_factor >= factor)

    return _unroll_until_overmap(factors, evaluate)


def unroll_fit(toolchain: DpcppToolchain, ast, kernel: str, device: str,
               factors: Sequence[int]) -> UnrollSweepOutcome:
    """The product path: two walks fit ``const + slope * f``, then each
    factor costs a few float operations.

    Utilisations are bit-identical to per-factor partial compiles:
    every charge is an exact multiple of 0.5 in float64, and the infra
    add and capacity divisions run in ``partial_compile``'s order.
    """
    spec = toolchain.DEVICES[device]
    coeffs = toolchain.sweep_coefficients(ast, kernel)
    infra = spec.alms * spec.infra_alm_fraction

    def evaluate(factor):
        alm = (infra + (coeffs.alm_const + coeffs.alm_slope * factor)) \
            / spec.alms
        dsp = (coeffs.dsp_const + coeffs.dsp_slope * factor) / spec.dsps
        util = max(alm, dsp)
        # HLSReport.overmapped: not (utilization <= 0.90)
        return alm, util, not util <= 0.90, coeffs.effective

    return _unroll_until_overmap(factors, evaluate)


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
        mode = LOWERING
        with obs.span("dse.sweep", dse="unroll", device=self.device,
                      mode=mode) as sp:
            points = self._sweep(ctx, design, design.kernel_name, mode)
            record_sweep(sp, mode, "unroll", points)

    def _sweep(self, ctx, design, kernel, mode) -> int:
        # the factor-1 baseline is a real compile on both paths
        baseline = self.toolchain.partial_compile(design.ast, kernel,
                                                  self.device)
        if baseline.overmapped:
            design.synthesizable = False
            design.failure_reason = (
                f"design overmaps the {self.device} at unroll factor 1 "
                f"(ALM utilisation {baseline.alm_utilization:.0%})")
            design.metadata.update(unroll_factor=1, hls_report=baseline)
            ctx.log(f"    {self.name}: {design.failure_reason}")
            return 0

        sweep = unroll_fit if mode == "fit" else unroll_points
        outcome = sweep(self.toolchain, design.ast, kernel, self.device,
                        self.FACTORS)
        for factor, alm, _util, over in outcome.points:
            obs.event("dse.point", dse="unroll", device=self.device,
                      factor=factor, alm=alm, overmapped=over)
        best_factor = outcome.best_factor
        if outcome.stop == "ineffective":
            ctx.log(f"    {self.name}: unroll pragma ineffective "
                    "(variable-bound inner loop); keeping factor 1")
        elif outcome.stop == "overmap":
            factor, _alm, util, _over = outcome.points[-1]
            ctx.log(f"    {self.name}: factor {factor} overmaps "
                    f"({util:.0%}); keeping {best_factor}")
        else:
            ctx.log(f"    {self.name}: stopped at cap {self.MAX_FACTOR}")

        report = baseline
        if best_factor > 1:
            for loop in design.ast.function(kernel).outermost_loops():
                set_unroll_pragma(loop, best_factor)
            report = self.toolchain.partial_compile(design.ast, kernel,
                                                    self.device)
        design.metadata.update(unroll_factor=best_factor,
                               hls_report=report)
        ctx.log(f"    {self.name}: selected unroll factor {best_factor} "
                f"(ALM {report.alm_utilization:.0%}, "
                f"DSP {report.dsp_utilization:.0%})")
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
        with obs.span("dse.sweep", dse="blocksize", device=self.device,
                      mode="point") as sp:
            candidates, limiters = [], []
            for blocksize in self.CANDIDATES:
                point.blocksize = blocksize
                time = model.design_time(profile, point)
                occ = model.occupancy(blocksize,
                                      point.registers_per_thread,
                                      point.shared_mem_per_block)
                candidates.append((time, blocksize, occ.occupancy))
                limiters.append(occ.limited_by)
                obs.event("dse.point", dse="blocksize",
                          device=self.device, blocksize=blocksize,
                          time_s=time, occupancy=occ.occupancy)
            record_sweep(sp, "point", "blocksize", len(candidates))

        # "minimize execution time and maximize occupancy": among
        # launch configurations within 1% of the optimum, prefer the
        # highest-occupancy (then largest) block
        _, blocksize, occupancy = select_blocksize(candidates)
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
        with obs.span("dse.sweep", dse="omp-threads", mode="point") as sp:
            times = []
            for threads in candidates:
                times.append(model.omp_time(profile, threads))
                obs.event("dse.point", dse="omp-threads", threads=threads,
                          time_s=times[-1])
            record_sweep(sp, "point", "omp-threads", len(candidates))
        best_threads = candidates[first_min_index(times)]
        design.metadata["num_threads"] = best_threads
        set_num_threads(design.ast, design.kernel_name, best_threads)
        ctx.log(f"    {self.name}: selected {best_threads} threads")
