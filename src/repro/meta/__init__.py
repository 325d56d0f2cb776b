"""Artisan-equivalent meta-programming substrate.

This package reimplements, from scratch, the meta-programming facilities
the paper obtains from the Artisan framework [Vandebon et al., IEEE TC
2021]: programmatic access to application source code through an AST
that "closely mirrors the source-code as written", a query engine for
structural matching (``query(for all loop, fn in ast: ...)`` in Fig. 2),
instrumentation primitives for source-to-source modification, and export
of human-readable modified source.

Public entry points:

- :class:`repro.meta.ast_api.Ast` -- parse a source string/file and
  query/instrument/export it (the ``Ast(src)`` of Fig. 2).
- :mod:`repro.meta.query` -- predicate combinators and the query engine.
- :mod:`repro.meta.instrument` -- instrumentation primitives.
"""

from repro.meta.ast_api import Ast
from repro.meta.lexer import LexError, Token, tokenize
from repro.meta.parser import ParseError, Parser, parse
from repro.meta.unparse import unparse
from repro.meta.query import Query, query
from repro.meta import ast_nodes as nodes

__all__ = [
    "Ast",
    "LexError",
    "Token",
    "tokenize",
    "Parser",
    "ParseError",
    "parse",
    "unparse",
    "Query",
    "query",
    "nodes",
]
