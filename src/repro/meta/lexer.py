"""Tokenizer for the UHL C/C++ subset.

Produces a flat token stream with source positions.  ``#pragma`` lines
are kept as single PRAGMA tokens (they attach to the following
statement during parsing), ``#include`` and other preprocessor lines
become PREPROC tokens preserved verbatim in the translation unit's
preamble, and ``//`` / ``/* */`` comments are skipped.

One compiled master pattern matches a whole token (or trivia run) per
step; lines and columns are derived from match offsets.
"""

from __future__ import annotations

import functools
import re
from typing import List, Tuple


class LexError(Exception):
    """Raised on malformed input, with 1-based line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Token:
    __slots__ = ("kind", "text", "line", "col")

    # kinds: IDENT KEYWORD INT FLOAT STRING CHAR PUNCT PRAGMA PREPROC EOF
    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


KEYWORDS = frozenset([
    "void", "bool", "int", "long", "float", "double", "const",
    "if", "else", "for", "while", "do", "return", "break", "continue",
    "true", "false",
])

# Longest-first so that '>>=' style prefixes never shadow longer operators.
PUNCTUATORS = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "<<", ">>", "->",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", "?", ":", ".",
]

# Each match is optional blanks, then one alternative; the alternatives
# are tried in order, most frequent first.  {A} is a word's first
# character (str.isalpha() or '_'), {D} a digit (str.isdigit()); word
# bodies are \w, which is exactly str.isalnum() or '_'.  \Z lets blanks
# end the input.  The bad_* alternatives match what is left of an
# unterminated construct, up to where it broke.
_SPEC = r"""[ \t\r]*(?:
 (?P<word>{A}\w*)
|(?P<hex>0[xX][0-9a-fA-F]*[fFlLuU]*)
|(?P<number>(?:{D}+(?:\.(?!\.){D}*)?|\.{D}+)(?:[eE][+-]?{D}+)?[fFlLuU]*)
|(?P<skip>//[^\n]*|\Z)
|(?P<block>/\*[\s\S]*?\*/)
|(?P<bad_block>/\*[\s\S]*)
|(?P<punct>{P})
|(?P<nl>\n[ \t\r\n]*)
|(?P<directive>\#(?:\\\n|[^\n])*)
|(?P<string>"(?:[^"\\\n]|\\[\s\S])*")
|(?P<bad_string>"(?:[^"\\\n]|\\[\s\S]?)*)
|(?P<char>'(?:[^'\\\n]|\\[\s\S])*')
|(?P<bad_char>'(?:[^'\\\n]|\\[\s\S]?)*)
|(?P<bad>[\s\S])
)"""

_KIND = {"hex": "INT", "string": "STRING", "char": "CHAR"}
_FLOAT_MARKS = frozenset(".eEfF")
_UNTERMINATED = {"bad_block": "block comment", "bad_string": "string literal",
                 "bad_char": "character literal"}


@functools.lru_cache(maxsize=None)
def _pattern(ascii_only: bool) -> "re.Pattern[str]":
    """The master pattern, compiled on first use.

    ASCII sources get ASCII classes.  Any other source gets the
    Unicode classes, narrowed to the ``str`` predicates above by a
    one-time scan for the numeric characters that are alphanumeric but
    not letters (some of which are digits but not decimals).
    """
    digit_extra = not_alpha = ""
    if not ascii_only:
        chars = [c for c in map(chr, range(0x110000))
                 if c.isalnum() and not c.isalpha() and not c.isdecimal()]
        digit_extra = re.escape("".join(c for c in chars if c.isdigit()))
        not_alpha = re.escape("".join(chars))
    spec = (_SPEC.replace("{A}", rf"[^\W\d{not_alpha}]")
            .replace("{D}", rf"[\d{digit_extra}]")
            .replace("{P}", "|".join(map(re.escape, PUNCTUATORS))))
    return re.compile(spec, re.VERBOSE | (re.ASCII if ascii_only else 0))


def _position(source: str, offset: int) -> Tuple[int, int]:
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` fully; the last token is EOF."""
    tokens: List[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _pattern(source.isascii()).finditer(source):
        kind = m.lastgroup
        text = m.group(kind)
        start = m.start(kind)
        col = start - line_start + 1
        if kind == "punct":
            append(Token("PUNCT", text, line, col))
            continue
        if kind == "word":
            append(Token("KEYWORD" if text in KEYWORDS else "IDENT",
                         text, line, col))
            continue
        if kind == "skip":
            continue
        if kind == "number":
            append(Token("INT" if _FLOAT_MARKS.isdisjoint(text) else "FLOAT",
                         text, line, col))
            continue
        if kind == "directive":
            directive = text.replace("\\\n", " ").strip()
            body = directive[1:].strip()  # drop '#'
            if body.startswith("pragma"):
                append(Token("PRAGMA", body[len("pragma"):].strip(),
                             line, col))
            else:
                append(Token("PREPROC", directive, line, col))
        elif kind in _KIND:  # hex, string, char
            append(Token(_KIND[kind], text, line, col))
        elif kind == "bad":
            raise LexError(f"unexpected character {text!r}", line, col)
        elif kind in _UNTERMINATED:
            raise LexError(f"unterminated {_UNTERMINATED[kind]}",
                           *_position(source, m.end()))
        # newlines, block comments, directives, strings and chars may
        # span lines
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = start + text.rindex("\n") + 1
    append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens
