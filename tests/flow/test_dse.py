"""DSE engine tests: unroll-until-overmap (Fig. 2), blocksize, threads."""

import pytest

from repro.flow.dse import (
    BlocksizeDSE, OmpThreadsDSE, UnrollUntilOvermapDSE, unroll_points,
)
from repro.flow.task import FlowError
from repro.flow.context import FlowContext
from repro.apps import get_app
from repro.meta.ast_api import Ast
from repro.toolchains.dpcpp import DpcppToolchain
from repro.transforms.unroll import set_unroll_pragma

#: a standalone kernel for the Fig. 2 meta-program
KERNEL = """
void knl(float* out, const float* x, int n) {
    for (int i = 0; i < n; i++) {
        float v = x[i];
        float a = sqrtf(v + 1.0f);
        float b = sqrtf(v + 2.0f);
        out[i] = a * b + v;
    }
}
"""


class TestUnrollUntilOvermap:
    def test_requires_design(self):
        ctx = FlowContext(get_app("kmeans"))
        with pytest.raises(FlowError):
            UnrollUntilOvermapDSE("arria10").run(ctx)

    def test_kmeans_unrolls_until_near_capacity(self, kmeans_uninformed):
        """Fig. 2 behaviour: factor doubles until the next step overmaps."""
        for label, device in (("oneapi-a10", "arria10"),
                              ("oneapi-s10", "stratix10")):
            design = kmeans_uninformed.design(label)
            factor = design.metadata["unroll_factor"]
            report = design.metadata["hls_report"]
            assert factor >= 2
            assert report.fitted
            # doubling once more would overmap (otherwise the DSE
            # would have kept going)
            assert report.utilization > 0.45

    def test_power_of_two_factors(self, all_uninformed):
        for result in all_uninformed.values():
            for label in ("oneapi-a10", "oneapi-s10"):
                design = result.design(label)
                if design.synthesizable:
                    factor = design.metadata["unroll_factor"]
                    assert factor & (factor - 1) == 0  # power of two

    def test_overmap_at_one_marks_unsynthesizable(self, rush_larsen_uninformed):
        design = rush_larsen_uninformed.design("oneapi-a10")
        assert not design.synthesizable
        assert design.metadata["unroll_factor"] == 1

    def test_variable_inner_keeps_factor_one(self, nbody_uninformed):
        design = nbody_uninformed.design("oneapi-s10")
        assert design.metadata["unroll_factor"] == 1
        assert design.metadata["hls_report"].variable_inner_loop


    @pytest.mark.parametrize("device", ["arria10", "stratix10"])
    def test_standalone_kernel_doubles_until_overmap(self, device):
        """Fig. 2 on a kernel outside any app: factors double from 1,
        utilisation grows monotonically with the factor, and the kept
        factor (>= 2) fits."""
        tool = DpcppToolchain()
        ast = Ast(KERNEL)
        base = tool.partial_compile(ast, "knl", device)
        assert base.fitted
        outcome = unroll_points(tool, ast, "knl", device,
                                UnrollUntilOvermapDSE.FACTORS)
        factors = [1] + [f for f, _alm, _util, _over in outcome.points]
        assert all(b == 2 * a for a, b in zip(factors, factors[1:]))
        utils = [base.utilization] + [u for _f, _alm, u, _over
                                      in outcome.points]
        assert all(a <= b + 1e-9 for a, b in zip(utils, utils[1:]))
        assert outcome.best_factor >= 2
        kept = ast.clone_function("knl")
        for loop in kept.function("knl").outermost_loops():
            set_unroll_pragma(loop, outcome.best_factor)
        assert tool.partial_compile(kept, "knl", device).fitted


class TestBlocksizeDSE:
    def test_requires_design(self):
        ctx = FlowContext(get_app("kmeans"))
        with pytest.raises(FlowError):
            BlocksizeDSE("gtx1080ti").run(ctx)

    def test_selects_candidate_and_records_occupancy(self, all_uninformed):
        for result in all_uninformed.values():
            for label in ("hip-1080ti", "hip-2080ti"):
                design = result.design(label)
                assert design.metadata["blocksize"] in BlocksizeDSE.CANDIDATES
                assert 0 < design.metadata["occupancy"] <= 1.0
                assert design.metadata["occupancy_limited_by"] in (
                    "threads", "registers", "blocks", "shared")

    def test_register_pressure_limits_rush_larsen_blocks(
            self, rush_larsen_uninformed):
        design = rush_larsen_uninformed.design("hip-1080ti")
        # 255 regs/thread: blocks above 256 threads are infeasible
        assert design.metadata["blocksize"] <= 256
        assert design.metadata["occupancy_limited_by"] == "registers"


class TestOmpThreadsDSE:
    def test_embarrassingly_parallel_selects_all_cores(self, all_uninformed):
        """'selects the maximum number of threads available
        automatically for each of the five benchmarks'"""
        for name, result in all_uninformed.items():
            design = result.design("omp")
            assert design.metadata["num_threads"] == 32, name

    def test_pragma_carries_thread_count(self, kmeans_uninformed):
        design = kmeans_uninformed.design("omp")
        assert "num_threads(32)" in design.render()

    def test_requires_design(self):
        ctx = FlowContext(get_app("kmeans"))
        with pytest.raises(FlowError):
            OmpThreadsDSE().run(ctx)
