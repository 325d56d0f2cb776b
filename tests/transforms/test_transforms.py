"""Transform task tests: extraction, scalarisation, SP, unroll, OpenMP.

Every semantics-affecting transform is validated by executing the
program before and after and comparing outputs.
"""

import pytest

from repro.analysis import identify_hotspot_loops
from repro.analysis.common import LoopPath
from repro.lang.interpreter import Workload
from repro.meta.ast_api import Ast
from repro.transforms import (
    employ_sp_literals, employ_sp_math, extract_hotspot,
    insert_parallel_for, remove_array_plus_equals, set_unroll_pragma,
    unroll_factor_of, unroll_fixed_loops,
)
from repro.transforms.extraction import TransformError
from repro.transforms.sp_math import cast_double_loads, demote_local_doubles

APP = """
int main() {
    int n = ws_int("n");
    double* x = ws_array_double("x", n * 4);
    double* out = ws_array_double("out", n);
    for (int i = 0; i < n * 4; i++) {
        x[i] = rand01();
    }
    for (int i = 0; i < n; i++) {
        out[i] = 0.0;
        for (int j = 0; j < 4; j++) {
            out[i] += sqrt(x[i * 4 + j]) * 0.5;
        }
    }
    return 0;
}
"""


def fresh():
    return Ast(APP), Workload(scalars={"n": 64})


def outputs(ast, n=64):
    wl = Workload(scalars={"n": n})
    ast.execute(wl)
    return wl.result("out")


class TestExtraction:
    def extract(self, ast):
        path = LoopPath("main", 1)  # the compute loop
        return extract_hotspot(ast, path, "hot")

    def test_kernel_created_with_call(self):
        ast, _ = fresh()
        result = self.extract(ast)
        assert result.kernel_name == "hot"
        assert ast.has_function("hot")
        assert "hot(" in ast.source

    def test_param_constness(self):
        ast, _ = fresh()
        result = self.extract(ast)
        types = dict(result.params)
        assert types["x"].const          # read-only buffer
        assert not types["out"].const    # written buffer
        assert not types["n"].is_pointer

    def test_semantics_preserved(self):
        reference, _ = fresh()
        transformed, _ = fresh()
        self.extract(transformed)
        assert outputs(transformed) == outputs(reference)

    def test_kernel_inserted_before_host(self):
        ast, _ = fresh()
        self.extract(ast)
        names = [f.name for f in ast.functions()]
        assert names.index("hot") < names.index("main")

    def test_duplicate_name_rejected(self):
        ast, _ = fresh()
        self.extract(ast)
        with pytest.raises(TransformError):
            extract_hotspot(ast, LoopPath("main", 0), "hot")

    def test_written_free_scalar_rejected(self):
        source = """
        int main() {
            double total = 0.0;
            for (int i = 0; i < 10; i++) {
                total += 1.0;
            }
            printf("%g", total);
            return 0;
        }
        """
        ast = Ast(source)
        with pytest.raises(TransformError):
            extract_hotspot(ast, LoopPath("main", 0), "k")


class TestRemoveArrayPlusEquals:
    def make(self):
        ast, _ = fresh()
        extract_hotspot(ast, LoopPath("main", 1), "hot")
        return ast

    def test_scalarises_and_preserves_semantics(self):
        reference, _ = fresh()
        transformed = self.make()
        count = remove_array_plus_equals(transformed, "hot")
        assert count == 1
        assert "__acc_out" in transformed.source
        assert outputs(transformed) == outputs(reference)

    def test_initial_store_folded_into_accumulator(self):
        transformed = self.make()
        remove_array_plus_equals(transformed, "hot")
        kernel_text = transformed.source
        # the plain `out[i] = 0.0;` became the accumulator initialiser
        assert "double __acc_out = 0.0;" in kernel_text

    def test_writeback_at_loop_end(self):
        transformed = self.make()
        remove_array_plus_equals(transformed, "hot")
        assert "out[i] = __acc_out;" in transformed.source

    def test_idempotent(self):
        transformed = self.make()
        remove_array_plus_equals(transformed, "hot")
        assert remove_array_plus_equals(transformed, "hot") == 0

    def test_no_candidates_is_noop(self):
        ast = Ast("""
        void knl(double* a, int n) {
            for (int i = 0; i < n; i++) a[i] = 1.0;
        }
        """)
        assert remove_array_plus_equals(ast, "knl") == 0

    def test_inner_variable_subscript_not_hoisted(self):
        # subscript uses the inner variable: cannot scalarise per-i
        ast = Ast("""
        void knl(double* a, int n) {
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < 4; j++) {
                    a[j] += 1.0;
                }
            }
        }
        """)
        assert remove_array_plus_equals(ast, "knl") == 0


class TestSinglePrecision:
    def make(self):
        ast, _ = fresh()
        extract_hotspot(ast, LoopPath("main", 1), "hot")
        return ast

    def test_sp_math_rewrite(self):
        ast = self.make()
        assert employ_sp_math(ast, "hot") == 1
        assert "sqrtf(" in ast.source

    def test_sp_literals_suffixed(self):
        ast = self.make()
        count = employ_sp_literals(ast, "hot")
        assert count >= 2  # 0.0 and 0.5
        assert "0.5f" in ast.source

    def test_demote_locals(self):
        ast = self.make()
        # out[i] += ... has no locals; scalarise first
        remove_array_plus_equals(ast, "hot")
        assert demote_local_doubles(ast, "hot") >= 1
        assert "float __acc_out" in ast.source

    def test_cast_double_loads(self):
        ast = self.make()
        remove_array_plus_equals(ast, "hot")
        demote_local_doubles(ast, "hot")
        count = cast_double_loads(ast, "hot")
        assert count >= 1
        assert "(float)x[" in ast.source

    def test_full_sp_pipeline_close_to_reference(self):
        reference, _ = fresh()
        ast = self.make()
        remove_array_plus_equals(ast, "hot")
        employ_sp_math(ast, "hot")
        employ_sp_literals(ast, "hot")
        demote_local_doubles(ast, "hot")
        cast_double_loads(ast, "hot")
        got = outputs(ast)
        want = outputs(reference)
        # numerically close (the interpreter models fp64 throughout; the
        # transform must not change the computation structure)
        assert all(abs(g - w) < 1e-6 for g, w in zip(got, want))

    def test_main_untouched(self):
        ast = self.make()
        employ_sp_literals(ast, "hot")
        # literals in main stay double
        assert "rand01()" in ast.source


class TestUnroll:
    def test_unroll_fixed_inner_loops(self):
        ast, _ = fresh()
        extract_hotspot(ast, LoopPath("main", 1), "hot")
        unrolled = unroll_fixed_loops(ast, "hot")
        assert len(unrolled) == 1
        assert "#pragma unroll 4" in ast.source

    def test_limit_respected(self):
        ast = Ast("""
        void knl(double* a) {
            for (int i = 0; i < 2; i++) {
                for (int j = 0; j < 1000; j++) a[j] += 1.0;
            }
        }
        """)
        assert unroll_fixed_loops(ast, "knl", limit=64) == []

    def test_set_and_read_factor(self):
        ast, _ = fresh()
        loop = ast.function("main").loops()[1]
        set_unroll_pragma(loop, 16)
        assert unroll_factor_of(loop) == 16
        set_unroll_pragma(loop, 1)  # removes the pragma
        assert unroll_factor_of(loop) == 1

    def test_bare_unroll_means_full(self):
        from repro.meta.parser import parse_stmt

        loop = parse_stmt("#pragma unroll\nfor (int j = 0; j < 8; j++) ;")
        assert unroll_factor_of(loop) == 8


class TestOpenMP:
    def test_parallel_for_with_semantics(self):
        reference, _ = fresh()
        ast, _ = fresh()
        extract_hotspot(ast, LoopPath("main", 1), "hot")
        loops = insert_parallel_for(ast, "hot", num_threads=16)
        assert len(loops) == 1
        assert "#pragma omp parallel for num_threads(16)" in ast.source
        assert outputs(ast) == outputs(reference)

    def test_reduction_clause_emitted(self):
        ast = Ast("""
        void knl(double* partial, const double* a, int n) {
            for (int i = 0; i < n; i++) {
                s += a[i];
            }
            partial[0] = s;
        }
        """.replace("for (int i", "double s_unused = 0.0; for (int i"))
        # build a clean reduction kernel instead
        ast = Ast("""
        double knl(const double* a, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) {
                s += a[i];
            }
            return s;
        }
        """)
        insert_parallel_for(ast, "knl")
        assert "reduction(+:s)" in ast.source

    def test_no_parallel_loop_raises(self):
        ast = Ast("""
        void knl(double* a, int n) {
            for (int i = 1; i < n; i++) {
                a[i] = a[i - 1] * 0.5;
            }
        }
        """)
        with pytest.raises(TransformError, match=r"in knl\(\)"):
            insert_parallel_for(ast, "knl")
