"""The master-pattern lexer and precedence-climbing parser against the
front end they replaced (``tests/meta/frontend_reference.py``).

Over the apps, the examples' UHL sources, a thousand generated kernels
and Hypothesis strings, the lexer must give the same token stream --
or raise the same ``LexError`` message at the same ``line:col`` -- and
the parser must build the same tree (node types, spans, child counts)
with the same unparse.
"""

import ast as pyast
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import ALL_APPS
from repro.meta.lexer import LexError, tokenize
from repro.meta.parser import ParseError, Parser
from repro.meta.unparse import unparse
from tests.lang.kernelgen import generate
from tests.meta.frontend_reference import ReferenceLexer, ReferenceParser

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def example_sources():
    """Module-level UHL source strings (``SRC = \"\"\"...\"\"\"``)."""
    found = []
    for path in sorted(EXAMPLES.glob("*.py")):
        for node in pyast.parse(path.read_text()).body:
            if (isinstance(node, pyast.Assign)
                    and isinstance(node.value, pyast.Constant)
                    and isinstance(node.value.value, str)
                    and "{" in node.value.value):
                found.append(node.value.value)
    return found


def rows(tokens):
    return [(t.kind, t.text, t.line, t.col) for t in tokens]


def lexed(lex, source):
    try:
        return rows(lex(source))
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.col)


def assert_same_tokens(source):
    assert lexed(tokenize, source) == lexed(
        lambda s: ReferenceLexer(s).tokenize(), source)


def shape(node):
    """Pre-order (type, span, child count) of a tree; with the unparse
    text this pins the tree down."""
    return [(type(n).__name__, n.span.line, n.span.col, len(n.children()))
            for n in node.walk()]


def assert_same_front_end(source):
    """Same tokens, same tree, same unparse for a well-formed source."""
    ref = ReferenceParser(source)
    new = Parser(source)
    assert rows(new.tokens) == rows(ref.tokens)
    unit, ref_unit = new.parse_unit(), ref.parse_unit()
    assert shape(unit) == shape(ref_unit)
    assert unparse(unit) == unparse(ref_unit)


APPS = sorted(ALL_APPS)
EXAMPLE_SOURCES = example_sources()


@pytest.mark.parametrize("name", APPS)
def test_apps_lex_and_parse_identically(name):
    assert_same_front_end(ALL_APPS[name].source)


@pytest.mark.parametrize("index", range(len(EXAMPLE_SOURCES)))
def test_example_sources_lex_and_parse_identically(index):
    assert_same_front_end(EXAMPLE_SOURCES[index])


def test_examples_contribute_sources():
    assert len(EXAMPLE_SOURCES) >= 2


@pytest.mark.parametrize("name", APPS)
def test_truncated_app_sources_lex_identically(name):
    # cuts through comments, strings, numbers and directives
    source = ALL_APPS[name].source
    for end in range(0, len(source), 37):
        assert_same_tokens(source[:end])


def test_thousand_generated_kernels():
    for seed in range(1000):
        assert_same_front_end(generate(seed).source)


# Hypothesis: strings over the UHL alphabet, and over fragments that
# open and close its multi-character constructs.
UHL_ALPHABET = ("abefxuFLUz_019. \t\r\n" '/*"' "'\\#+-<>=!&|^~%()[]{};,?:"
                "$`@\f" "é²½٣")
FRAGMENTS = ["/*", "*/", "//", '"', "'", "\\", "\\\n", "#", "#pragma ",
             "#include <x.h>", "\n", " ", "0x", "0X1f", "010", "1.", "..",
             ".5", "1e", "1e+", "e-3", "2.5f", "7uL", "int", "for", "x",
             "_y9", "<<=", ">>", "->", "++", "-", "é", "²", "?"]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=UHL_ALPHABET, max_size=60))
def test_random_strings_lex_identically(source):
    assert_same_tokens(source)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=20).map("".join))
def test_random_fragment_strings_lex_identically(source):
    assert_same_tokens(source)


OPERATORS = ["||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=",
             "<<", ">>", "+", "-", "*", "/", "%", "=", "?", ":", ","]
OPERANDS = ["a", "1", "2.5", "f(b, c)", "x[i]", "-y", "(p + q)", "!t",
            "(int)z", "i++"]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(OPERANDS),
                          st.sampled_from(OPERATORS)), min_size=1,
                max_size=12),
       st.sampled_from(OPERANDS))
def test_random_operator_chains_parse_identically(chain, last):
    source = " ".join(f"{operand} {op}" for operand, op in chain)
    source += f" {last}"

    def parsed(make):
        parser = make(source)
        try:
            expr = parser._parse_expr()
        except ParseError as exc:
            return ("ParseError", str(exc))
        return shape(expr), unparse(expr), parser.pos

    assert parsed(Parser) == parsed(ReferenceParser)

