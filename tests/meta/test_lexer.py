"""Lexer unit tests."""

import pytest

from repro.meta.lexer import LexError, tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]  # drop EOF


class TestBasicTokens:
    def test_keywords_and_idents(self):
        toks = kinds("int foo double bar2 if_x")
        assert toks == [("KEYWORD", "int"), ("IDENT", "foo"),
                        ("KEYWORD", "double"), ("IDENT", "bar2"),
                        ("IDENT", "if_x")]

    def test_underscore_ident(self):
        assert kinds("_tmp __acc") == [("IDENT", "_tmp"), ("IDENT", "__acc")]

    def test_integers(self):
        assert kinds("0 42 100000") == [("INT", "0"), ("INT", "42"),
                                        ("INT", "100000")]

    def test_hex_integer(self):
        assert kinds("0x1F") == [("INT", "0x1F")]

    def test_float_forms(self):
        texts = [t for _, t in kinds("1.0 0.5 1e3 1.5e-2 2E+4 .25")]
        assert texts == ["1.0", "0.5", "1e3", "1.5e-2", "2E+4", ".25"]
        assert all(k == "FLOAT" for k, _ in kinds("1.0 0.5 1e3"))

    def test_float_suffix(self):
        toks = kinds("1.0f 2.5F 3f")
        assert [k for k, _ in toks] == ["FLOAT"] * 3

    def test_int_does_not_become_float(self):
        assert kinds("3")[0][0] == "INT"

    def test_string_literal(self):
        assert kinds('"hello world"') == [("STRING", '"hello world"')]

    def test_string_with_escape(self):
        assert kinds(r'"a\"b"') == [("STRING", r'"a\"b"')]

    def test_eof_token(self):
        toks = tokenize("x")
        assert toks[-1].kind == "EOF"

    def test_empty_source(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == "EOF"

    def test_whitespace_only(self):
        assert tokenize("  \n\t ")[0].kind == "EOF"


class TestOperators:
    @pytest.mark.parametrize("op", [
        "==", "!=", "<=", ">=", "&&", "||", "++", "--",
        "+=", "-=", "*=", "/=", "<<", ">>",
        "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^",
    ])
    def test_each_operator(self, op):
        assert kinds(f"a {op} b")[1] == ("PUNCT", op)

    def test_maximal_munch(self):
        # '++' beats '+' '+'; '<=' beats '<' '='
        assert [t for _, t in kinds("a++ <= b")] == ["a", "++", "<=", "b"]

    def test_arrow_skipped_in_expr_context(self):
        assert ("PUNCT", "->") in kinds("p->x")


class TestTriviaAndDirectives:
    def test_line_comment(self):
        assert kinds("a // comment\n b") == [("IDENT", "a"), ("IDENT", "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [("IDENT", "a"), ("IDENT", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_pragma_token(self):
        toks = tokenize("#pragma unroll 4\nint x;")
        assert toks[0].kind == "PRAGMA"
        assert toks[0].text == "unroll 4"

    def test_pragma_omp(self):
        toks = tokenize("#pragma omp parallel for reduction(+:s)\n")
        assert toks[0].text == "omp parallel for reduction(+:s)"

    def test_include_preproc(self):
        toks = tokenize("#include <math.h>\nint x;")
        assert toks[0].kind == "PREPROC"
        assert toks[0].text == "#include <math.h>"

    def test_pragma_line_continuation(self):
        toks = tokenize("#pragma omp parallel \\\n for\nx")
        assert toks[0].kind == "PRAGMA"
        assert "for" in toks[0].text


class TestPositions:
    def test_line_tracking(self):
        toks = tokenize("a\nb\n  c")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]
        assert toks[2].col == 3

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a ` b")
