"""Differential suite: the unroll fit vs one partial compile per factor.

Every flow runs the unroll DSE through the two-walk affine fit
(``dse.LOWERING == "fit"``).  It is a pure *performance* path: for
every app and device the chosen design point, the model costs, the HLS
reports, the failure classifications and even the human-readable trace
lines are identical to the per-factor reference loop, which these
tests reach by patching ``dse.LOWERING`` to ``"point"``.  They pin
that equivalence app by app -- including the edge cases: Rush Larsen
overmapping at factor 1 (unsynthesisable on both FPGAs) and n-body's
variable-bound inner loop discounting the unroll pragma -- and kernel
by kernel over 200 generated kernels on both FPGAs.
"""

import random
import time
from collections import Counter

import pytest

from repro.apps import get_app
from repro.apps.registry import ALL_APPS
from repro.flow import dse
from repro.flow.engine import FlowEngine
from repro.meta.ast_api import Ast
from repro.toolchains.dpcpp import DpcppToolchain
from tests.lang.kernelgen import generate


# ---------------------------------------------------------------------
# Whole-flow comparison
# ---------------------------------------------------------------------

def _design_fingerprint(design):
    """Everything a DSE decision can influence, as comparable data."""
    metadata = {}
    for key, value in design.metadata.items():
        if key == "hls_report":
            metadata[key] = (value.alm_utilization, value.dsp_utilization,
                             value.utilization, value.unroll_factor,
                             value.ii, value.overmapped, value.fitted,
                             tuple(value.warnings))
        else:
            metadata[key] = value
    return {
        "device": design.device,
        "synthesizable": design.synthesizable,
        "failure_reason": design.failure_reason,
        "predicted_time_s": design.predicted_time_s,
        "speedup": design.speedup,
        "metadata": metadata,
        "source": design.render(),
    }


def _run(app_name, mode, lowering, monkeypatch):
    monkeypatch.setattr(dse, "LOWERING", lowering)
    result = FlowEngine().run(get_app(app_name), mode=mode)
    return ([_design_fingerprint(d) for d in result.designs],
            [line for line in result.trace if "DSE" in line])


@pytest.mark.parametrize("app_name", sorted(ALL_APPS))
@pytest.mark.parametrize("mode", ["informed", "uninformed"])
def test_batched_identical_to_point(app_name, mode, monkeypatch):
    point_designs, point_trace = _run(app_name, mode, "point", monkeypatch)
    fit_designs, fit_trace = _run(app_name, mode, "fit", monkeypatch)
    assert fit_designs == point_designs
    assert fit_trace == point_trace


# ---------------------------------------------------------------------
# Generated kernels: the fit against per-factor partial compiles
# ---------------------------------------------------------------------

def test_unroll_fit_matches_partial_compiles_on_generated_kernels():
    """Over 200 generated kernels on both FPGAs, the fit picks the same
    factor for the same reason, and every evaluated point's
    ``(factor, alm, util, overmapped)`` is bit-identical to the per-
    factor partial compile's.  Kernels overmapping at factor 1 stop at
    the baseline compile on both paths and are skipped."""
    toolchain = DpcppToolchain()
    factors = dse.UnrollUntilOvermapDSE.FACTORS
    stops = Counter()
    for seed in range(200):
        ast = Ast(generate(seed).source, name=f"kernel{seed}.cpp")
        for device in ("arria10", "stratix10"):
            if toolchain.partial_compile(ast, "main", device).overmapped:
                continue
            fit = dse.unroll_fit(toolchain, ast, "main", device, factors)
            ref = dse.unroll_points(toolchain, ast, "main", device,
                                    factors)
            assert fit == ref, (seed, device)
            stops[fit.stop] += 1
    # the corpus reaches both early exits of Fig. 2's loop
    assert stops["overmap"] and stops["ineffective"], stops


def test_unroll_fit_matches_partial_compiles_on_a_dense_axis():
    """Every integer factor 2..257 (not just the doublings) on ``main``
    of the three Fig. 6 apps, where each hotspot nest sits before
    outlining: the fit equals the per-factor compiles point for point.
    ``scripts/speed_gates.py dse`` times the same sweeps."""
    toolchain = DpcppToolchain()
    for app_name in ("adpredictor", "bezier", "kmeans"):
        ast = get_app(app_name).ast()
        args = (toolchain, ast, "main", "stratix10", tuple(range(2, 258)))
        assert dse.unroll_fit(*args) == dse.unroll_points(*args), app_name


def test_rush_larsen_overmap_edge_case(monkeypatch):
    """Overmap at factor 1 -> unsynthesisable, identically on both
    paths (the fit path must not even fit the polynomial)."""
    for lowering in ("point", "fit"):
        monkeypatch.setattr(dse, "LOWERING", lowering)
        result = FlowEngine().run(get_app("rush_larsen"),
                                  mode="uninformed")
        for label in ("oneapi-a10", "oneapi-s10"):
            design = result.design(label)
            assert not design.synthesizable
            assert design.metadata["unroll_factor"] == 1
            assert "overmaps" in design.failure_reason


def test_nbody_variable_inner_edge_case(monkeypatch):
    """The discounted pragma (variable-bound inner loop) keeps factor 1
    on both paths."""
    for lowering in ("point", "fit"):
        monkeypatch.setattr(dse, "LOWERING", lowering)
        result = FlowEngine().run(get_app("nbody"), mode="uninformed")
        design = result.design("oneapi-s10")
        assert design.metadata["unroll_factor"] == 1
        assert design.metadata["hls_report"].variable_inner_loop


# ---------------------------------------------------------------------
# Satellite: blocksize near-best tie-breaking is order-invariant
# ---------------------------------------------------------------------

def test_blocksize_tiebreak_order_invariant():
    """Candidates within 1% of the best time tie-break on (occupancy,
    blocksize) -- a total key, so shuffling candidate order can never
    change the selection."""
    candidates = [
        (1.000, 64, 0.50),
        (1.005, 128, 0.75),   # within 1% of best, higher occupancy
        (1.009, 256, 0.75),   # same occupancy, larger block -> wins
        (1.012, 512, 1.00),   # outside the 1% window
        (2.000, 1024, 1.00),
    ]
    expected = dse.select_blocksize(candidates)
    assert expected[1] == 256
    rng = random.Random(7)
    for _ in range(50):
        shuffled = candidates[:]
        rng.shuffle(shuffled)
        assert dse.select_blocksize(shuffled) == expected


def test_first_min_index_matches_scalar_rule():
    assert dse.first_min_index([3.0, 1.0, 1.0, 2.0]) == 1
    assert dse.first_min_index([5.0]) == 0
    assert dse.first_min_index([2.0, 2.0, 2.0]) == 0


# ---------------------------------------------------------------------
# Satellite: kernel-subtree cloning in the point-mode unroll loop
# ---------------------------------------------------------------------

class TestCloneFunction:
    """The unroll loop mutates only the kernel function, so its
    candidates clone only that subtree (``Ast.clone_function``) -- the
    rest of the unit is shared, like DSE-time designs where the kernel
    sits next to a large ``main``."""

    def _ast(self):
        from repro.meta.ast_api import Ast

        body = "\n".join(f"    acc = acc + data[i + {k}] * {k}.0;"
                         for k in range(120))
        source = (
            "double kernel(double* data, int n) {\n"
            "    double s = 0.0;\n"
            "    for (int i = 0; i < n; i++) {\n"
            "        s = s + data[i] * data[i];\n"
            "    }\n"
            "    return s;\n"
            "}\n"
            "int main() {\n"
            "    int n = 64;\n"
            "    double* data = ws_array_double(\"data\", n);\n"
            "    double acc = 0.0;\n"
            "    for (int i = 0; i < n; i++) {\n"
            f"{body}\n"
            "    }\n"
            "    return 0;\n"
            "}\n")
        return Ast(source, name="clone_bench.cpp")

    def test_clones_only_the_kernel_subtree(self):
        ast = self._ast()
        dup = ast.clone_function("kernel")
        # the kernel function is a fresh subtree ...
        assert dup.function("kernel") is not ast.function("kernel")
        # ... every other declaration is shared, not copied
        originals = {id(d) for d in ast.unit.decls}
        shared = [d for d in dup.unit.decls if id(d) in originals]
        assert len(shared) == len(ast.unit.decls) - 1
        assert dup.function("main") is ast.function("main")

    def test_mutating_clone_leaves_original_untouched(self):
        from repro.transforms.unroll import set_unroll_pragma

        ast = self._ast()
        before = ast.source
        dup = ast.clone_function("kernel")
        for loop in dup.function("kernel").outermost_loops():
            set_unroll_pragma(loop, 64)
        assert ast.source == before
        assert dup.source != before

    def test_clone_function_faster_than_full_clone(self):
        """Micro-benchmark regression guard: cloning one small kernel
        must beat cloning the whole unit (the old per-factor cost).
        The kernel here is ~1% of the unit, so the gap is far larger
        than scheduler jitter; best-of-3 keeps it stable."""
        ast = self._ast()
        reps = 20

        def best_of(fn):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(reps):
                    fn()
                best = min(best, time.perf_counter() - start)
            return best

        full = best_of(lambda: ast.clone())
        partial = best_of(lambda: ast.clone_function("kernel"))
        assert partial < full / 2


# ---------------------------------------------------------------------
# Telemetry: dse.sweep spans and per-axis dse.point events
# ---------------------------------------------------------------------

def test_sweep_spans_and_metrics():
    from repro import obs

    collector = obs.add_sink(obs.SpanCollector())
    try:
        FlowEngine().run(get_app("kmeans"), mode="uninformed")
    finally:
        obs.remove_sink(collector)
    spans = [s for s in collector.snapshot() if s.name == "dse.sweep"]
    assert {s.attrs["dse"] for s in spans} >= {"unroll", "blocksize",
                                               "omp-threads"}
    for span in spans:
        # only the unroll axis has a second path
        assert span.attrs["mode"] == ("fit" if span.attrs["dse"] == "unroll"
                                      else "point")
        assert span.attrs["points"] >= 1
        points = [e for e in span.events if e.name == "dse.point"]
        assert len(points) == span.attrs["points"]

    counter = dse.POINTS_TOTAL.get(mode="point", dse="blocksize")
    assert counter >= 8  # the full candidate axis, maybe across runs
