"""One-pass shared profiling tests (the ``repro.analysis.profile`` layer).

The headline property: a full informed flow performs exactly one
dynamic execution per distinct (source, workload) pair, with hotspot,
trip-count, data-movement and alias analysis all reading the shared
profile -- and a warm profile cache performs zero executions.
"""

import pytest

from repro.analysis.profile import (
    clear_profile_cache, collect_profile, deserialize_report,
    profile_cache_stats, serialize_report, stable_loop_keys,
    workload_fingerprint,
)
from repro.apps import get_app
from repro.flow.engine import FlowEngine
from repro.lang import engine as eng
from repro.lang.interpreter import ExecLimitExceeded, Interpreter, Workload
from repro.meta.ast_api import Ast
from repro.meta.unparse import unparse


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_profile_cache()
    yield
    clear_profile_cache()


def observe_executions(fn):
    """Run ``fn`` and return one (source, workload-key, entry, mode)
    record per dynamic program execution."""
    seen = []

    def obs(unit, workload, entry, mode):
        seen.append((unparse(unit), workload_fingerprint(workload),
                     entry, mode))
    eng.add_execution_observer(obs)
    try:
        fn()
    finally:
        eng.remove_execution_observer(obs)
    return seen


class TestFlowExecutesOncePerSource:
    def test_informed_flow_one_execution_per_source_workload(self):
        app = get_app("kmeans")
        seen = observe_executions(
            lambda: FlowEngine().run(app, "informed"))
        keys = [(src, wl, entry) for src, wl, entry, _ in seen]
        assert len(keys) == len(set(keys)), "duplicate dynamic execution"
        # the flow really is dynamic: at least the timer-instrumented
        # hotspot run plus the post-extraction analysis run
        assert len(keys) >= 2

    def test_second_flow_performs_zero_executions(self):
        app = get_app("kmeans")
        FlowEngine().run(app, "informed")
        seen = observe_executions(
            lambda: FlowEngine().run(app, "informed"))
        assert seen == []

    def test_uninformed_flow_reuses_informed_profiles(self):
        app = get_app("nbody")
        FlowEngine().run(app, "informed")
        seen = observe_executions(
            lambda: FlowEngine().run(app, "uninformed"))
        assert seen == []

    def test_sharing_disabled_restores_cross_flow_re_execution(self, monkeypatch):
        # pre-sharing behavior: the informed and uninformed flows each
        # re-execute the same (source, workload) pairs
        monkeypatch.setenv("REPRO_PROFILE_CACHE", "0")
        app = get_app("kmeans")

        def both():
            engine = FlowEngine()
            engine.run(app, "informed")
            engine.run(app, "uninformed")
        seen = observe_executions(both)
        keys = [(src, wl, entry) for src, wl, entry, _ in seen]
        assert len(keys) > len(set(keys)), \
            "expected duplicated executions with sharing disabled"


class TestEngineSelection:
    def test_interp_env_restores_interpreter_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "interp")
        runs = []
        orig = Interpreter.run

        def counting(self, *a, **k):
            runs.append(self.unit)
            return orig(self, *a, **k)
        monkeypatch.setattr(Interpreter, "run", counting)
        seen = observe_executions(
            lambda: FlowEngine().run(get_app("kmeans"), "informed"))
        assert seen, "flow performed no dynamic executions"
        assert all(mode == "interp" for _, _, _, mode in seen)
        assert len(runs) == len(seen), \
            "interp mode must execute via the tree-walking interpreter"

    def test_compiled_is_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        seen = observe_executions(
            lambda: Ast("int main() { return 3; }").execute())
        assert [m for _, _, _, m in seen] == ["compiled"]

    def test_bailout_notifies_the_interpreter_re_run(self, monkeypatch):
        # passing int* to a double* param compiles but bails out at run
        # time; the interpreter re-run is a second real execution, so
        # observers must hear about both (tagged as the fallback)
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        source = """
        double first(double* p) { p[0] = p[0] + 1.0; return p[0]; }
        int main() {
            int* a = ws_array_int("a", 3);
            a[0] = 6;
            double v = first(a);
            return (int)v;
        }
        """
        reports = []
        seen = observe_executions(
            lambda: reports.append(Ast(source).execute()))
        assert [m for _, _, _, m in seen] == ["compiled", "interp-fallback"]
        # the fallback re-derived the buffers: no double-increment
        assert reports[0].return_value == 7


SOURCE = """
int work(const double* x, double* y, int n) {
    timer_start("k");
    for (int i = 0; i < n; i++) {
        y[i] = x[i] * 2.0 + 1.0;
    }
    timer_stop("k");
    return n;
}
int main() {
    int n = ws_int("n");
    double* x = ws_array_double("x", n);
    double* y = ws_array_double("y", n);
    int r = work(x, y, n);
    printf("%d\\n", r);
    return r;
}
"""


def make_workload():
    return Workload(scalars={"n": 8},
                    arrays={"x": [float(i) for i in range(8)]})


class TestSerialization:
    def test_round_trip_rebinds_node_ids_across_reparse(self):
        ast_a = Ast(SOURCE)
        report = Interpreter(ast_a.unit, make_workload()).run("main")
        data = serialize_report(report, ast_a.unit)
        assert data is not None

        ast_b = Ast(SOURCE)  # fresh parse: different node ids
        assert stable_loop_keys(ast_a.unit) != stable_loop_keys(ast_b.unit) \
            or list(stable_loop_keys(ast_a.unit)) \
            == list(stable_loop_keys(ast_b.unit))
        restored = deserialize_report(data, ast_b.unit)
        assert restored is not None

        keys_b = stable_loop_keys(ast_b.unit)
        assert {keys_b[nid] for nid in restored.loop_profiles} \
            == {key for key in data["loops"]}
        assert restored.global_counter.as_dict() \
            == report.global_counter.as_dict()
        assert restored.timers == report.timers
        assert restored.stdout == report.stdout
        assert restored.return_value == report.return_value
        [(fn, args)] = [(e.fn_name, e.args) for e in restored.pointer_events]
        assert fn == "work"
        # dense renumbering: ids start at 0, distinct args stay distinct
        assert sorted(a[1] for a in args) == [0, 1]

    def test_collect_profile_memory_cache(self):
        ast = Ast(SOURCE)
        r1 = collect_profile(ast, make_workload())
        r2 = collect_profile(ast, make_workload())
        stats = profile_cache_stats()
        assert stats.executions == 1
        assert stats.memory_hits == 1
        assert r1 is not r2  # hits materialize a fresh report
        assert r1.total_cycles() == r2.total_cycles()

    def test_different_workload_executes_again(self):
        ast = Ast(SOURCE)
        collect_profile(ast, make_workload())
        collect_profile(ast, Workload(scalars={"n": 4}))
        assert profile_cache_stats().executions == 2

    def test_max_steps_is_part_of_the_cache_key(self):
        # a cached full run must not satisfy a step-limited request:
        # the limit would be silently un-enforced on the hit
        ast = Ast(SOURCE)
        collect_profile(ast, make_workload())
        with pytest.raises(ExecLimitExceeded):
            collect_profile(ast, make_workload(), max_steps=3)
        assert profile_cache_stats().executions == 2

    def test_disk_layer_survives_memory_clear(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ast = Ast(SOURCE)
        r1 = collect_profile(ast, make_workload())
        clear_profile_cache()  # simulate a new process
        seen = observe_executions(
            lambda: collect_profile(ast, make_workload()))
        assert seen == []
        assert profile_cache_stats().disk_hits == 1
        r2 = collect_profile(ast, make_workload())
        assert r2.global_counter.as_dict() == r1.global_counter.as_dict()

    def test_kernel_report_recompute_after_invalidate(self):
        from repro.flow.context import FlowContext
        app = get_app("kmeans")
        ctx = FlowContext(app)
        first = ctx.kernel_report()
        assert ctx.kernel_report() is first  # memoized
        ctx.invalidate_kernel_report()
        second = ctx.kernel_report()
        assert second is not first  # fresh object (cache rehydrates)
        assert second.global_counter.as_dict() \
            == first.global_counter.as_dict()


class TestWorkloadFingerprint:
    def fp(self, arrays, scalars=None, seed=42):
        return workload_fingerprint(Workload(scalars or {"n": 8}, arrays,
                                             seed=seed))

    def test_element_type_is_part_of_the_digest(self):
        digests = {self.fp({"x": vals}) for vals in
                   ([1], [1.0], [True], [1, 1.0], ["1"])}
        assert len(digests) == 5

    def test_values_names_scalars_and_seed_all_count(self):
        base = self.fp({"x": [1.0, 2.0]})
        assert self.fp({"x": [1.0, 2.0]}) == base
        assert self.fp({"x": [2.0, 1.0]}) != base
        assert self.fp({"x": [1.0, 2.0, 0.0]}) != base
        assert self.fp({"y": [1.0, 2.0]}) != base
        assert self.fp({"x": [1.0, 2.0]}, scalars={"n": 9}) != base
        assert self.fp({"x": [1.0, 2.0]}, seed=7) != base
        assert self.fp({"x": [-0.0]}) != self.fp({"x": [0.0]})

    def test_arrays_are_delimited(self):
        # the same values split differently across two arrays
        assert self.fp({"a": [1.0], "b": [2.0, 3.0]}) \
            != self.fp({"a": [1.0, 2.0], "b": [3.0]})
        assert self.fp({"a": [1.0, 2.0]}) \
            != self.fp({"a": [1.0], "b": [2.0]})

    def test_out_of_range_and_mixed_arrays_still_digest(self):
        assert self.fp({"x": [2 ** 70]}) != self.fp({"x": [2 ** 70 + 1]})
        assert self.fp({"x": [1, 2.5, True]}) is not None
        assert self.fp({"x": []}) is not None

    def test_unserializable_workload_is_uncacheable(self):
        assert self.fp({"x": [object()]}) is None
        assert workload_fingerprint(object()) is None

    def test_stable_across_processes(self):
        import subprocess
        import sys
        code = ("from repro.apps import get_app; "
                "from repro.analysis.profile import workload_fingerprint; "
                "print(workload_fingerprint(get_app('adpredictor')"
                ".workload()))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout.strip()
        assert out == workload_fingerprint(get_app("adpredictor").workload())
