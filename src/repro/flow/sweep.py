"""Batched DSE execution: design spaces lowered to tensors.

The point-at-a-time DSE tasks in :mod:`repro.flow.dse` clone, compile
and score one candidate per iteration.  This module lowers each task's
whole candidate axis through :mod:`repro.lang.batch` instead -- one
:class:`~repro.lang.batch.ParamGrid` spanning the space, one
:class:`~repro.lang.batch.BatchPlan` partitioned into the affine core
(FPGA resource polynomials), vectorized model evaluations (GPU / CPU
rooflines) and a non-affine residue (per-point extraction closures) --
and hands back per-point values that are **element-wise bit-identical**
to what the scalar loops compute.  The original loops stay as the
reference: the differential suite in ``tests/flow/test_dse_batch.py``
sets :data:`LOWERING` to ``"point"`` and pins the equivalence for every
app and device, including the overmap and unsynthesisable edge cases.

Early-exit predicates become masked reductions: the Fig. 2 "stop at the
first overmapping factor" break is ``SweepResult.first_true`` over the
overmap mask, and "first strict minimum" selections are first-
occurrence ``argmin`` -- both defined to match the scalar loops' tie
behaviour exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.lang.batch import BatchPlan, ParamGrid

#: per-point evaluations by lowering mode and DSE family -- the
#: batched/point comparability counter of the observability layer
POINTS_TOTAL = obs.REGISTRY.counter(
    "repro_dse_points_total",
    "design points evaluated by DSE sweeps, by lowering mode",
    ("mode", "dse"))

#: candidate-axis extent lowered per batched sweep
BATCH_SIZE = obs.REGISTRY.histogram(
    "repro_dse_batch_size",
    "candidate-axis sizes lowered per batched DSE sweep",
    ("dse",),
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
             512.0, 1024.0))


#: the DSE lowering every sweep runs: ``batched`` evaluates whole
#: candidate spaces as tensors.  ``point`` -- the candidate-at-a-time
#: reference loops -- is reached only by tests patching this constant.
LOWERING = "batched"


def record_sweep(span, mode: str, dse: str, points: int) -> None:
    """Count a finished sweep in the metrics registry and its span."""
    if points > 0:
        POINTS_TOTAL.inc(points, mode=mode, dse=dse)
    if mode == "batched":
        BATCH_SIZE.observe(float(points), dse=dse)
    span.set(points=points)


# ---------------------------------------------------------------------
# Deterministic selection helpers (shared by both lowerings)
# ---------------------------------------------------------------------
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
    """Index of the first strict minimum -- the scalar loops'
    ``if time < best_time`` rule, and numpy's ``argmin`` tie rule."""
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
    """What the factor-axis reduction decided.

    ``points`` lists ``(factor, alm_utilization, utilization,
    overmapped)`` for exactly the factors the point-at-a-time loop
    would have evaluated, in its order; ``stop`` is why it ended
    (``overmap`` | ``cap`` | ``ineffective``).
    """

    best_factor: int
    stop: str
    points: List[Tuple[int, float, float, bool]]


#: HLSReport.fitted's utilisation ceiling (reports.py)
_FIT_LIMIT = 0.90


def unroll_sweep(toolchain, ast, kernel: str, device: str,
                 factors: Sequence[int],
                 space_key: Optional[str] = None) -> UnrollSweepOutcome:
    """Lower the whole unroll-factor axis to one tensor evaluation.

    Two resource walks fit the exact affine polynomial
    (``DpcppToolchain.sweep_coefficients``); the factor axis then
    evaluates through the :class:`BatchPlan` affine core, and the
    Fig. 2 early exit becomes a ``first_true`` masked reduction over
    the overmap mask.  Utilisations come out bit-identical to per-
    factor partial compiles because every charge is an exact multiple
    of 0.5 in float64 and the division order mirrors the scalar
    report construction.
    """
    import numpy as np

    spec = toolchain.DEVICES[device]
    coeffs = toolchain.sweep_coefficients(ast, kernel)

    grid = ParamGrid(factor=tuple(factors))
    plan = BatchPlan(grid, space_key=space_key or grid.space_hash(
        extra=f"unroll:{device}"))
    plan.affine("alms", coeffs.alm_const, factor=coeffs.alm_slope)
    plan.affine("dsps", coeffs.dsp_const, factor=coeffs.dsp_slope)
    result = plan.evaluate()

    # mirror partial_compile's report arithmetic: one infra add, one
    # capacity division each -- single rounding, identical bits
    infra = spec.alms * spec.infra_alm_fraction
    alm_util = (infra + result.tensor("alms")) / spec.alms
    dsp_util = result.tensor("dsps") / spec.dsps
    util = np.maximum(alm_util, dsp_util)
    overmapped = ~(util <= _FIT_LIMIT)
    result.set("alm_util", alm_util)
    result.set("util", util)
    result.set("overmapped", overmapped)

    def point(i: int) -> Tuple[int, float, float, bool]:
        return (int(factors[i]), float(alm_util[i]), float(util[i]),
                bool(overmapped[i]))

    if not coeffs.effective:
        # the pragma is discounted (variable-bound inner loop / no
        # outer loop): the scalar loop evaluates the first factor,
        # sees report.unroll_factor < factor, and keeps factor 1
        return UnrollSweepOutcome(1, "ineffective", [point(0)])

    first = result.first_true(overmapped)
    if first is None:
        return UnrollSweepOutcome(
            int(factors[-1]), "cap",
            [point(i) for i in range(len(factors))])
    k = first[0]
    best = int(factors[k - 1]) if k > 0 else 1
    return UnrollSweepOutcome(
        best, "overmap", [point(i) for i in range(k + 1)])


# ---------------------------------------------------------------------
# Blocksize axis (GPU)
# ---------------------------------------------------------------------
def blocksize_sweep(model, profile, point, candidates: Sequence[int],
                    space_key: Optional[str] = None):
    """Lower the blocksize axis: one vectorized roofline evaluation.

    Returns ``(triples, limited_by)``: per-candidate ``(time,
    blocksize, occupancy)`` in candidate order, plus the per-candidate
    occupancy-limiter names.  Times and occupancies ride the vector
    path (``GPUModel.design_time_batch`` / ``occupancy_batch``); the
    limiter *names* are the non-affine residue, lowered through cached
    per-point closures.
    """
    grid = ParamGrid(blocksize=tuple(candidates))
    # the residue cache is keyed by the *space*, so everything the
    # per-point closure reads must enter the key: device, register
    # pressure and shared-memory footprint all change the limiter
    plan = BatchPlan(grid, space_key=space_key or grid.space_hash(
        extra=f"blocksize:{model.spec.name}"
              f":r{point.registers_per_thread}"
              f":s{point.shared_mem_per_block}"))
    plan.vector("time", lambda g: model.design_time_batch(
        profile, point, g.mesh("blocksize")))
    plan.vector("occupancy", lambda g: model.occupancy_batch(
        g.mesh("blocksize"), point.registers_per_thread,
        point.shared_mem_per_block).occupancy)
    plan.residue("limited_by", lambda blocksize: model.occupancy(
        blocksize, point.registers_per_thread,
        point.shared_mem_per_block).limited_by)
    result = plan.evaluate()

    time = result.tensor("time")
    occ = result.tensor("occupancy")
    limited = result.tensor("limited_by")
    triples = [(float(time[i]), int(candidates[i]), float(occ[i]))
               for i in range(len(candidates))]
    return triples, [str(limited[i]) for i in range(len(candidates))]


# ---------------------------------------------------------------------
# Thread-count axis (CPU / OpenMP)
# ---------------------------------------------------------------------
def omp_sweep(model, profile, candidates: Sequence[int],
              space_key: Optional[str] = None) -> List[float]:
    """Lower the thread-count axis: one vectorized roofline evaluation."""
    grid = ParamGrid(threads=tuple(candidates))
    plan = BatchPlan(grid, space_key=space_key or grid.space_hash(
        extra="omp-threads"))
    plan.vector("time", lambda g: model.omp_time_batch(
        profile, g.mesh("threads")))
    result = plan.evaluate()
    time = result.tensor("time")
    return [float(time[i]) for i in range(len(candidates))]
