"""Differential tests: the compiled engine vs the tree-walking
interpreter must be observationally identical.

Every test executes the same unit under both engines and asserts the
full observable surface matches: virtual clock, event counters, loop
profiles, timers, array-access records, pointer events (modulo the
process-global array-id counter, compared in dense-renumbered form),
stdout, return value and post-run workload buffers.
"""

import pytest

from repro.analysis.profile import normalized_pointer_events
from repro.apps import ALL_APPS, get_app
from repro.lang.compiler import compile_unit
from repro.lang.interpreter import Interpreter, RuntimeFault, Workload
from repro.meta.ast_api import Ast


def counter_dict(report):
    return report.global_counter.as_dict()


def loop_dict(report):
    return {nid: (p.entries, tuple(p.trip_counts), p.inclusive.as_dict())
            for nid, p in report.loop_profiles.items()}


def access_dict(report):
    return {fn: {name: (r.nbytes, r.elem_size, r.reads, r.writes,
                        r.read_before_write)
                 for name, r in recs.items()}
            for fn, recs in report.fn_array_access.items()}


def run_both(source, workload_factory=Workload, entry="main"):
    """One parse, two engines, full observable comparison."""
    unit = Ast(source).unit
    wa = workload_factory()
    wb = workload_factory()
    ra = Interpreter(unit, wa).run(entry)
    rb = compile_unit(unit).run(wb, entry)  # raises if not compilable
    compare_runs(ra, rb, wa, wb)
    return ra, rb


def compare_runs(ra, rb, wa, wb):
    """Assert two runs' reports and workload buffers are identical."""
    assert counter_dict(ra) == counter_dict(rb)
    assert ra.total_cycles() == rb.total_cycles()
    assert loop_dict(ra) == loop_dict(rb)
    assert ra.timers == rb.timers
    assert access_dict(ra) == access_dict(rb)
    assert normalized_pointer_events(ra) == normalized_pointer_events(rb)
    assert ra.stdout == rb.stdout
    assert repr(ra.return_value) == repr(rb.return_value)  # -0.0 vs 0.0
    assert set(wa._buffers) == set(wb._buffers)
    for name in wa._buffers:
        assert wa.result(name) == wb.result(name)


class TestScalarAndControlFlow:
    def test_arithmetic_casts_ternary(self):
        run_both("""
            int main() {
                int a = 7;
                double x = 2.5;
                double y = (double)a / x + (a % 3) * 1.5;
                int t = a > 5 ? (int)y : a - 1;
                double z = (a > 0 && x > 2.0) ? y * 2.0 : -y;
                printf("%g %d %g\\n", y, t, z);
                return t;
            }
        """)

    def test_loops_break_continue_return(self):
        run_both("""
            int helper(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    if (i % 3 == 0) { continue; }
                    if (i > 17) { break; }
                    s += i;
                }
                return s;
            }
            int main() {
                int acc = 0;
                int i = 0;
                while (i < 5) {
                    acc += helper(i * 6);
                    i++;
                }
                do {
                    acc -= 1;
                    i--;
                } while (i > 0);
                printf("acc=%d\\n", acc);
                return acc;
            }
        """)

    def test_float_edge_cases(self):
        ra, rb = run_both("""
            double main() {
                double inf = 1.0 / 0.0;
                double ninf = (0.0 - 1.0) / 0.0;
                double r = sqrt(2.0) + fabs(0.0 - 3.5) + floor(2.9);
                printf("%g %g %g\\n", inf, ninf, r);
                return r;
            }
        """)
        assert ra.return_value == rb.return_value

    def test_runtime_fault_message_parity(self):
        cases = {
            "int main() { int x = 5; return x / (x - x); }":
                "integer division by zero",
            # a negative offset must not wrap around like a Python list
            """int main() {
                double a[4];
                a[3] = 7.5;
                double x = a[-1];
                return 0;
            }""": "out-of-bounds read at a[-1] (size 4)",
            """int main() {
                double a[4];
                double* p = a;
                double x = *(p - 1);
                return 0;
            }""": "out-of-bounds read at a[-1] (size 4)",
        }
        for source, message in cases.items():
            unit = Ast(source).unit
            with pytest.raises(RuntimeFault) as ei:
                Interpreter(unit, Workload()).run("main")
            with pytest.raises(RuntimeFault) as ec:
                compile_unit(unit).run(Workload(), "main")
            assert str(ei.value) == str(ec.value) == message


class TestPointersAndArrays:
    def test_pointer_arith_and_local_arrays(self):
        run_both("""
            double sum3(const double* p) {
                return p[0] + p[1] + p[2];
            }
            int main() {
                double buf[9];
                for (int i = 0; i < 9; i++) {
                    buf[i] = (double)i * 1.25;
                }
                double s = 0.0;
                for (int j = 0; j < 3; j++) {
                    s += sum3(buf + j * 3);
                }
                printf("s=%g\\n", s);
                return 0;
            }
        """)

    def test_workload_buffers_and_aliasing(self):
        def wl():
            return Workload(scalars={"n": 12},
                            arrays={"x": [float(i) for i in range(12)]})
        run_both("""
            void axpy(int n, const double* x, double* y) {
                for (int i = 0; i < n; i++) {
                    y[i] = y[i] + 2.0 * x[i];
                }
            }
            int main() {
                int n = ws_int("n");
                double* x = ws_array_double("x", n);
                double* y = ws_array_double("y", n);
                axpy(n, x, y);
                axpy(n, x, x);
                return 0;
            }
        """, wl)

    def test_rand01_sequences_match(self):
        run_both("""
            int main() {
                double s = 0.0;
                for (int i = 0; i < 50; i++) {
                    s = s + rand01();
                }
                printf("%g\\n", s);
                return 0;
            }
        """)


class TestGeneratedProgram:
    def test_identifiers_never_reach_the_generated_text(self):
        # UHL names that are Python keywords or the generator's own
        # names are plain slots in the generated code
        run_both("""
            double lambda(double rt, int live) { return rt * live; }
            int main() {
                int None = 2;
                double G = 1.5;
                int t1 = 3;
                double v1[4];
                for (int stk = 0; stk < 4; stk++) {
                    v1[stk] = lambda(G, None + stk) + t1;
                }
                printf("%g\\n", v1[3]);
                return None;
            }
        """)

    def test_long_expression_chain_stays_compiled(self):
        terms = " + ".join(f"{i}.5 * x" for i in range(250))
        run_both(f"double main() {{ double x = 1.5; return {terms}; }}")

    def test_nesting_past_python_limits_runs_interpreted(self):
        # Python allows ~20 nested loops; deeper UHL nests take the
        # interpreter, with the same report
        from repro.lang.compiler import CompileUnsupported
        from repro.lang.engine import execute_unit

        depth = 25
        loops = "".join(f"for (int i{k} = 0; i{k} < 2; i{k}++) {{ "
                        for k in range(min(depth, 3)))
        loops += "".join(f"for (int i{k} = 0; i{k} < 1; i{k}++) {{ "
                         for k in range(3, depth))
        source = (f"double main() {{ double s = 0.0; {loops} s = s + 1.0; "
                  + "} " * depth + "return s; }")
        unit = Ast(source).unit
        with pytest.raises(CompileUnsupported):
            compile_unit(unit)
        report = execute_unit(unit, Workload(), mode="compiled")
        assert report.return_value == 8.0

    def test_reparsed_unit_shares_code_objects(self):
        source = get_app("nbody").source
        first = compile_unit(Ast(source).unit)
        second = compile_unit(Ast(source).unit)
        assert first.source == second.source
        assert (first._fns["main"][0].__code__
                is second._fns["main"][0].__code__)

    def test_concurrent_runs_are_independent(self):
        import threading

        app = get_app("kmeans")
        program = compile_unit(Ast(app.source).unit)
        expected = program.run(app.workload_factory())
        reports = []

        def run():
            reports.append(program.run(app.workload_factory()))

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(reports) == 4
        for report in reports:
            assert counter_dict(report) == counter_dict(expected)
            assert loop_dict(report) == loop_dict(expected)
            assert report.stdout == expected.stdout


class TestTimers:
    def test_timer_wrapped_loops(self):
        ra, rb = run_both("""
            int main() {
                double acc = 0.0;
                timer_start("outer");
                for (int i = 0; i < 30; i++) {
                    for (int j = 0; j < 10; j++) {
                        acc = acc + (double)(i * j) * 0.5;
                    }
                }
                timer_stop("outer");
                printf("%g\\n", acc);
                return 0;
            }
        """)
        assert ra.timer("outer") > 0

    def test_timer_bearing_call_in_assignment(self):
        # hotspot instrumentation pattern: kernel wrapped with timers,
        # its result assigned in the caller
        run_both("""
            double kernel(int n) {
                timer_start("k");
                double s = 0.0;
                for (int i = 0; i < n; i++) {
                    s = s + sqrt((double)i);
                }
                timer_stop("k");
                return s;
            }
            int main() {
                double total = 0.0;
                for (int r = 0; r < 4; r++) {
                    int n = 25 + r;
                    double part = kernel(n);
                    total = total + part;
                }
                printf("%g\\n", total);
                return 0;
            }
        """)


class TestFastpath:
    """Affine loops of the shape a numpy fast path once replaced."""

    SOURCE = """
        int main() {
            int n = ws_int("n");
            double* a = ws_array_double("a", n);
            double* b = ws_array_double("b", n);
            for (int i = 0; i < n; i++) {
                a[i] = (double)i * 0.5 + 1.0;
            }
            for (int i = 0; i < n; i++) {
                b[i] = a[i] * 2.0 + sqrt(a[i]);
            }
            double last = b[n - 1];
            printf("%g\\n", last);
            return 0;
        }
    """

    def wl(self):
        return Workload(scalars={"n": 200})

    def test_fastpath_on_matches_interpreter(self):
        run_both(self.SOURCE, self.wl)


class TestApps:
    """Every benchmark app, plain and hotspot-instrumented."""

    @pytest.mark.parametrize("name", ALL_APPS)
    def test_app_identical(self, name):
        app = get_app(name)
        run_both(app.source, app.workload_factory)

    def test_instrumented_app_identical(self):
        from repro.analysis.common import loop_path
        from repro.meta.instrument import wrap_around

        for name in ALL_APPS:
            app = get_app(name)
            instrumented = Ast(app.source).clone()
            for loop in instrumented.outermost_loops("main"):
                timer = str(loop_path(loop))
                wrap_around(loop, prologue=[f'timer_start("{timer}");'],
                            epilogue=[f'timer_stop("{timer}");'])
            ra, rb = run_both(instrumented.source, app.workload_factory)
            assert ra.timers and ra.timers == rb.timers, name


class TestFlowResultsIdentical:
    """The inputs of Fig. 5 / Table I / Fig. 6 -- informed and
    uninformed flow results at evaluation scale -- are identical under
    both engines.  The three figures are deterministic functions of
    these results, so their rendered outputs match too."""

    _interp_runner = None

    @classmethod
    def interp_runner(cls):
        if cls._interp_runner is None:
            from repro.evalharness.runner import EvaluationRunner
            cls._interp_runner = EvaluationRunner()
        return cls._interp_runner

    def _design_view(self, result):
        return [(d.label, d.synthesizable, d.predicted_time_s, d.speedup,
                 d.loc_delta_pct, d.failure_reason)
                for d in result.designs]

    @pytest.mark.parametrize("app", ALL_APPS)
    def test_flows_identical(self, app, runner, monkeypatch):
        # compute (or fetch memoized) compiled-engine results first,
        # under the default engine ...
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        compiled = {mode: getattr(runner, mode)(app)
                    for mode in ("informed", "uninformed")}
        # ... then the same flows under the interpreter
        monkeypatch.setenv("REPRO_EXEC", "interp")
        for mode in ("informed", "uninformed"):
            interp = getattr(self.interp_runner(), mode)(app)
            assert (self._design_view(compiled[mode])
                    == self._design_view(interp)), (app, mode)
