"""PSA strategy tests: the Fig. 3 decision table, exercised both on
synthetic contexts and on the real benchmark flows."""

import pytest

from repro.flow.psa import (
    InformedTargetSelection, PSADecision, SelectAll, SelectNamed,
)
from repro.platforms.profile import KernelProfile


class FakeIntensity:
    def __init__(self, flops_per_byte):
        self.flops_per_byte = flops_per_byte


class FakeAlias:
    def __init__(self, ok=True):
        self.no_aliasing = ok


class FakeContext:
    """Minimal stand-in exposing exactly what strategies consume."""

    def __init__(self, profile, intensity, reference_time=1.0, alias=None):
        self.facts = {"intensity": intensity}
        if alias is not None:
            self.facts["alias"] = alias
        self._profile = profile
        self._reference_time = reference_time
        self.trace = []

    def kernel_profile(self):
        return self._profile

    def reference_time(self):
        return self._reference_time

    def log(self, message):
        self.trace.append(message)


def make_profile(**overrides):
    base = dict(
        kernel_name="k",
        flops=1e9,
        outer_iterations=1_000_000,
        bytes_in=1e6,
        bytes_out=1e6,
        outer_parallel=True,
        dependent_inner_loops=False,
        inner_fully_unrollable=True,
        inner_fixed_product=1,
        transfer_amortization=1,
    )
    base.update(overrides)
    return KernelProfile(**base)


PATHS = ["gpu", "fpga", "omp"]


def select(profile, intensity, **kwargs):
    strategy = InformedTargetSelection(intensity_threshold=0.25)
    ctx = FakeContext(profile, FakeIntensity(intensity), **kwargs)
    return strategy.select(ctx, "A", PATHS)


class TestFig3DecisionTable:
    def test_memory_bound_parallel_goes_omp(self):
        decision = select(make_profile(), intensity=0.1)
        assert decision.selected == ["omp"]

    def test_memory_bound_serial_terminates(self):
        decision = select(make_profile(outer_parallel=False), intensity=0.1)
        assert decision.selected == []

    def test_transfer_dominated_goes_omp(self):
        profile = make_profile(bytes_in=1e12, bytes_out=1e12)
        decision = select(profile, intensity=5.0, reference_time=1e-3)
        assert decision.selected == ["omp"]
        assert any("transfer" in r for r in decision.reasons)

    def test_compute_bound_parallel_no_inner_deps_goes_gpu(self):
        decision = select(make_profile(), intensity=2.0)
        assert decision.selected == ["gpu"]

    def test_unrollable_inner_deps_go_fpga(self):
        profile = make_profile(dependent_inner_loops=True,
                               inner_fully_unrollable=True,
                               inner_fixed_product=16)
        decision = select(profile, intensity=2.0)
        assert decision.selected == ["fpga"]

    def test_non_unrollable_inner_deps_go_gpu(self):
        profile = make_profile(dependent_inner_loops=True,
                               inner_fully_unrollable=False)
        decision = select(profile, intensity=2.0)
        assert decision.selected == ["gpu"]

    def test_serial_outer_compute_bound_goes_fpga(self):
        profile = make_profile(outer_parallel=False)
        decision = select(profile, intensity=2.0)
        assert decision.selected == ["fpga"]

    def test_aliasing_disables_offload(self):
        decision = select(make_profile(), intensity=5.0,
                          alias=FakeAlias(ok=False))
        assert decision.selected == ["omp"]
        assert any("alias" in r.lower() for r in decision.reasons)

    def test_reasons_record_the_quantities(self):
        decision = select(make_profile(), intensity=2.0)
        assert any("FLOPs/B" in r for r in decision.reasons)
        assert any("T_data_trnsfr" in r for r in decision.reasons)


class TestOtherStrategies:
    def test_select_all(self):
        decision = SelectAll().select(None, "A", PATHS)
        assert decision.selected == PATHS

    def test_select_named(self):
        decision = SelectNamed("fpga").select(None, "B", PATHS)
        assert decision.selected == ["fpga"]

    def test_select_named_missing(self):
        with pytest.raises(KeyError):
            SelectNamed("tpu").select(None, "B", PATHS)

    def test_decision_explain(self):
        decision = PSADecision("A", ["gpu"], ["because"])
        text = decision.explain()
        assert "A" in text and "gpu" in text and "because" in text


class TestOnRealFlows:
    """The paper's routing, asserted from the cached flow runs."""

    @pytest.mark.parametrize("app_name,expected", [
        ("rush_larsen", "gpu"),
        ("nbody", "gpu"),
        ("bezier", "gpu"),
        ("adpredictor", "fpga"),
        ("kmeans", "omp"),
    ])
    def test_informed_selection_matches_paper(self, runner, app_name,
                                              expected):
        result = runner.informed(app_name)
        assert result.selected_target == expected
        # the target-independent analyses the strategy consumed
        assert "intensity" in result.facts
        assert "dependences" in result.facts
