"""Parser unit tests."""

import pytest

from repro.meta.ast_nodes import (
    Assign, BinaryOp, Call, Cast, CompoundStmt, DeclStmt, DoWhileStmt,
    ExprStmt, FloatLit, ForStmt, FunctionDecl, Ident, IfStmt, Index, IntLit,
    ReturnStmt, Ternary, UnaryOp, WhileStmt,
)
from repro.meta.lexer import LexError
from repro.meta.parser import ParseError, parse, parse_expr, parse_stmt
from repro.meta.unparse import unparse_expr


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("a + b * c")
        assert isinstance(expr, BinaryOp) and expr.op == "+"
        assert isinstance(expr.rhs, BinaryOp) and expr.rhs.op == "*"

    def test_parentheses_override(self):
        expr = parse_expr("(a + b) * c")
        assert expr.op == "*"
        assert expr.lhs.op == "+"

    def test_left_associativity(self):
        expr = parse_expr("a - b - c")
        assert expr.op == "-"
        assert isinstance(expr.lhs, BinaryOp) and expr.lhs.op == "-"
        assert expr.rhs.name == "c"

    def test_comparison_below_arith(self):
        expr = parse_expr("a + 1 < b * 2")
        assert expr.op == "<"

    def test_logical_precedence(self):
        expr = parse_expr("a && b || c")
        assert expr.op == "||"
        assert expr.lhs.op == "&&"

    def test_assignment_right_associative(self):
        expr = parse_expr("a = b = c")
        assert isinstance(expr, Assign)
        assert isinstance(expr.value, Assign)

    def test_compound_assignment(self):
        expr = parse_expr("x += y * 2")
        assert isinstance(expr, Assign) and expr.op == "+="

    def test_ternary(self):
        expr = parse_expr("a ? b : c")
        assert isinstance(expr, Ternary)

    def test_nested_ternary_right(self):
        expr = parse_expr("a ? b : c ? d : e")
        assert isinstance(expr.els, Ternary)

    def test_unary_minus(self):
        expr = parse_expr("-x * y")
        assert expr.op == "*"
        assert isinstance(expr.lhs, UnaryOp)

    def test_unary_plus_dropped(self):
        expr = parse_expr("+x")
        assert isinstance(expr, Ident)

    def test_prefix_and_postfix_incr(self):
        pre = parse_expr("++i")
        post = parse_expr("i++")
        assert isinstance(pre, UnaryOp) and pre.prefix
        assert isinstance(post, UnaryOp) and not post.prefix

    def test_call_with_args(self):
        expr = parse_expr("f(a, b + 1, g(c))")
        assert isinstance(expr, Call) and len(expr.args) == 3
        assert isinstance(expr.args[2], Call)

    def test_index_chain(self):
        expr = parse_expr("a[i][j]")
        assert isinstance(expr, Index)
        assert isinstance(expr.base, Index)

    def test_cast(self):
        expr = parse_expr("(double)x + 1.0")
        assert expr.op == "+"
        assert isinstance(expr.lhs, Cast)
        assert expr.lhs.ctype.base == "double"

    def test_cast_of_pointer(self):
        expr = parse_expr("(float*)p")
        assert isinstance(expr, Cast) and expr.ctype.pointers == 1

    def test_float_literal_suffix(self):
        expr = parse_expr("1.5f")
        assert isinstance(expr, FloatLit) and expr.is_single

    def test_double_literal(self):
        expr = parse_expr("1.5")
        assert isinstance(expr, FloatLit) and not expr.is_single

    def test_deref_and_address(self):
        expr = parse_expr("*p + 1")
        assert expr.op == "+"
        assert isinstance(expr.lhs, UnaryOp) and expr.lhs.op == "*"

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_expr("a + b c")


class TestIntegerLiterals:
    @pytest.mark.parametrize("text, value, suffix", [
        ("0", 0, ""), ("42", 42, ""), ("010", 8, ""), ("0777", 511, ""),
        ("00", 0, ""), ("0x1F", 31, ""), ("0XffUL", 255, "UL"),
        ("017u", 15, "u"), ("10L", 10, "L"),
    ])
    def test_value_and_suffix(self, text, value, suffix):
        expr = parse_expr(text)
        assert isinstance(expr, IntLit)
        assert (expr.value, expr.suffix) == (value, suffix)

    def test_octal_declaration_initialiser(self):
        unit = parse("int main() { int a = 010; return a; }")
        init = unit.function("main").body.stmts[0].decls[0].init
        assert isinstance(init, IntLit) and init.value == 8

    @pytest.mark.parametrize("source, where", [
        ("int a = 0x;", "1:9"),
        ("int a = 08;", "1:9"),
        ("int main() {\n  return 1 + 0x;\n}", "2:14"),
        ("int main() {\n  return 0791;\n}", "2:10"),
    ])
    def test_malformed_literal_is_a_lex_error(self, source, where):
        with pytest.raises(LexError) as caught:
            parse(source)
        assert str(caught.value).startswith(f"{where}: invalid integer literal")


class TestStatements:
    def test_decl_multiple(self):
        stmt = parse_stmt("int a = 1, b = 2;")
        assert isinstance(stmt, DeclStmt) and len(stmt.decls) == 2

    def test_array_decl(self):
        stmt = parse_stmt("double buf[16];")
        assert stmt.decls[0].is_array

    def test_for_loop_clauses(self):
        stmt = parse_stmt("for (int i = 0; i < n; i++) x += i;")
        assert isinstance(stmt, ForStmt)
        assert stmt.loop_var() == "i"
        assert isinstance(stmt.body, ExprStmt)

    def test_for_empty_clauses(self):
        stmt = parse_stmt("for (;;) break;")
        assert stmt.init is None and stmt.cond is None and stmt.inc is None

    def test_while(self):
        stmt = parse_stmt("while (x > 0) x = x - 1;")
        assert isinstance(stmt, WhileStmt)

    def test_do_while(self):
        stmt = parse_stmt("do { x++; } while (x < 10);")
        assert isinstance(stmt, DoWhileStmt)

    def test_if_else(self):
        stmt = parse_stmt("if (a) b = 1; else b = 2;")
        assert isinstance(stmt, IfStmt) and stmt.els is not None

    def test_dangling_else_binds_inner(self):
        stmt = parse_stmt("if (a) if (b) x = 1; else x = 2;")
        assert stmt.els is None
        assert isinstance(stmt.then, IfStmt)
        assert stmt.then.els is not None

    def test_pragma_attaches_to_statement(self):
        stmt = parse_stmt("#pragma unroll 8\nfor (int i = 0; i < 4; i++) ;")
        assert len(stmt.pragmas) == 1
        assert stmt.pragmas[0].text == "unroll 8"
        assert stmt.pragmas[0].keyword == "unroll"

    def test_multiple_pragmas_stack(self):
        stmt = parse_stmt("#pragma unroll\n#pragma ii 1\nwhile (1) break;")
        assert [p.keyword for p in stmt.pragmas] == ["unroll", "ii"]

    def test_return_value(self):
        stmt = parse_stmt("return a + b;")
        assert isinstance(stmt, ReturnStmt) and stmt.expr is not None

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_stmt("int x = 1")


class TestTopLevel:
    def test_function_and_params(self):
        unit = parse("""
            double f(const double* x, int n) { return x[n]; }
        """)
        fn = unit.function("f")
        assert fn.return_type.base == "double"
        assert fn.params[0].ctype.is_pointer and fn.params[0].ctype.const
        assert fn.params[1].ctype.base == "int"

    def test_prototype(self):
        unit = parse("void f(int x);")
        assert unit.function("f").body is None

    def test_void_param_list(self):
        unit = parse("int main(void) { return 0; }")
        assert unit.function("main").params == []

    def test_array_param_decays(self):
        unit = parse("void f(double a[]) { a[0] = 1.0; }")
        assert unit.function("f").params[0].ctype.is_pointer

    def test_preamble_preserved(self):
        unit = parse("#include <math.h>\nint main() { return 0; }")
        assert unit.preamble == ["#include <math.h>"]

    def test_global_decl(self):
        unit = parse("int counter = 0;\nint main() { return counter; }")
        assert isinstance(unit.decls[0], DeclStmt)

    def test_parent_links_established(self):
        unit = parse("int main() { int x = 1; return x; }")
        for node in unit.walk():
            for child in node.children():
                assert child.parent is node

    def test_unknown_function_lookup(self):
        unit = parse("int main() { return 0; }")
        with pytest.raises(KeyError):
            unit.function("nope")
