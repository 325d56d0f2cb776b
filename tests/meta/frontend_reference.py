"""Test-only reference front end: the lexer and binary-operator parser
that the production ones replaced.

:class:`ReferenceLexer` walks the source one character at a time, and
:class:`ReferenceParser` descends one recursion level per binary
precedence level.  Both are the oracles that
``tests/meta/test_frontend_reference.py`` holds the master-pattern
lexer and the precedence-climbing parser to.
"""

from __future__ import annotations

from typing import List

from repro.meta.ast_nodes import BinaryOp, Expr
from repro.meta.lexer import KEYWORDS, PUNCTUATORS, LexError, Token
from repro.meta.parser import Parser


class ReferenceLexer:
    """Single-pass, character-at-a-time tokenizer over a source string."""

    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    # -- low-level cursor --------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.src[i] if i < len(self.src) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.src):
                if self.src[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _error(self, msg: str) -> LexError:
        return LexError(msg, self.line, self.col)

    # -- token production ---------------------------------------------------
    def tokenize(self) -> List[Token]:
        tokens = []
        while True:
            tok = self.next_token()
            tokens.append(tok)
            if tok.kind == "EOF":
                return tokens

    def next_token(self) -> Token:
        self._skip_trivia()
        line, col = self.line, self.col
        ch = self._peek()

        if ch == "":
            return Token("EOF", "", line, col)

        if ch == "#":
            return self._lex_directive(line, col)

        if ch.isalpha() or ch == "_":
            return self._lex_word(line, col)

        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._lex_number(line, col)

        if ch == '"':
            return self._lex_string(line, col)

        if ch == "'":
            return self._lex_char(line, col)

        for punct in PUNCTUATORS:
            if self.src.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token("PUNCT", punct, line, col)

        raise self._error(f"unexpected character {ch!r}")

    # -- trivia ---------------------------------------------------------------
    def _skip_trivia(self) -> None:
        while True:
            ch = self._peek()
            if ch != "" and ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._peek() not in ("", "\n"):
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self._peek() == "":
                        raise self._error("unterminated block comment")
                    self._advance()
                self._advance(2)
            else:
                return

    # -- token classes ---------------------------------------------------------
    def _lex_directive(self, line: int, col: int) -> Token:
        start = self.pos
        while self._peek() not in ("", "\n"):
            # Support line continuation in pragmas.
            if self._peek() == "\\" and self._peek(1) == "\n":
                self._advance(2)
                continue
            self._advance()
        text = self.src[start:self.pos].replace("\\\n", " ").strip()
        body = text[1:].strip()  # drop '#'
        if body.startswith("pragma"):
            return Token("PRAGMA", body[len("pragma"):].strip(), line, col)
        return Token("PREPROC", text, line, col)

    def _lex_word(self, line: int, col: int) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.src[start:self.pos]
        kind = "KEYWORD" if text in KEYWORDS else "IDENT"
        return Token(kind, text, line, col)

    def _lex_number(self, line: int, col: int) -> Token:
        start = self.pos
        is_float = False
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == "." and self._peek(1) != ".":
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._peek() in ("e", "E") and (
                self._peek(1).isdigit()
                or (self._peek(1) in ("+", "-") and self._peek(2).isdigit())
            ):
                is_float = True
                self._advance()
                if self._peek() in ("+", "-"):
                    self._advance()
                while self._peek().isdigit():
                    self._advance()
        # suffixes
        while self._peek() and self._peek() in "fFlLuU":
            if self._peek() in ("f", "F"):
                is_float = True
            self._advance()
        text = self.src[start:self.pos]
        return Token("FLOAT" if is_float else "INT", text, line, col)

    def _lex_string(self, line: int, col: int) -> Token:
        start = self.pos
        self._advance()  # opening quote
        while self._peek() != '"':
            if self._peek() in ("", "\n"):
                raise self._error("unterminated string literal")
            if self._peek() == "\\":
                self._advance()
            self._advance()
        self._advance()  # closing quote
        return Token("STRING", self.src[start:self.pos], line, col)

    def _lex_char(self, line: int, col: int) -> Token:
        start = self.pos
        self._advance()
        while self._peek() != "'":
            if self._peek() in ("", "\n"):
                raise self._error("unterminated character literal")
            if self._peek() == "\\":
                self._advance()
            self._advance()
        self._advance()
        return Token("CHAR", self.src[start:self.pos], line, col)


class ReferenceParser(Parser):
    """The production parser over the reference lexer, with binary
    expressions parsed one recursion level per precedence level."""

    def __init__(self, source: str):
        self.tokens = ReferenceLexer(source).tokenize()
        self.pos = 0

    def _parse_binary(self, level: int) -> Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_unary()
        ops = self._BINARY_LEVELS[level]
        lhs = self._parse_binary(level + 1)
        while True:
            tok = self._peek()
            if tok.kind == "PUNCT" and tok.text in ops:
                self._advance()
                rhs = self._parse_binary(level + 1)
                lhs = self._span(BinaryOp(tok.text, lhs, rhs), tok)  # type: ignore[assignment]
            else:
                return lhs
