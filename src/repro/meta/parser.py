"""Recursive-descent parser for the UHL C/C++ subset.

Grammar (C subset, full expression precedence):

    unit      := (preproc | function | decl_stmt)*
    function  := type IDENT '(' params ')' (block | ';')
    params    := [param (',' param)*]        param := type IDENT
    type      := 'const'? scalar '*'*
    stmt      := block | decl_stmt | for | while | do-while | if
               | return | break | continue | ';' | expr ';'
    pragmas written before a statement attach to that statement.

Expression precedence (low to high): assignment, ternary, ||, &&,
bitwise |, ^, &, equality, relational, shift, additive, multiplicative,
unary, postfix, primary.
"""

from __future__ import annotations

from typing import List, Optional

from repro.meta.ast_nodes import (
    Assign, BinaryOp, BoolLit, BreakStmt, Call, Cast, CompoundStmt,
    ContinueStmt, CType, DeclStmt, DoWhileStmt, Expr, ExprStmt, FloatLit,
    ForStmt, FunctionDecl, Ident, IfStmt, Index, IntLit, Node, NullStmt,
    ParamDecl, Pragma, ReturnStmt, SourceSpan, Stmt, StringLit, Ternary,
    TranslationUnit, UnaryOp, VarDecl, WhileStmt, set_parents,
)
from repro.meta.lexer import LexError, Token, tokenize


class ParseError(Exception):
    def __init__(self, message: str, token: Token):
        super().__init__(f"{token.line}:{token.col}: {message} "
                         f"(at {token.kind} {token.text!r})")
        self.token = token


_SCALARS = ("void", "bool", "int", "long", "float", "double")


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token stream helpers ------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        # pos never passes the final EOF token (see _advance)
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        if self._check(kind, text):
            return self._advance()
        want = text if text is not None else kind
        raise ParseError(f"expected {want!r}", self._peek())

    def _span(self, node: Node, tok: Token) -> Node:
        node.span = SourceSpan(tok.line, tok.col)
        return node

    # -- type parsing -----------------------------------------------------------
    def _at_type(self) -> bool:
        tok = self._peek()
        if tok.kind != "KEYWORD":
            return False
        if tok.text == "const":
            return True
        return tok.text in _SCALARS

    def _parse_type(self) -> CType:
        const = bool(self._accept("KEYWORD", "const"))
        tok = self._peek()
        if tok.kind != "KEYWORD" or tok.text not in _SCALARS:
            raise ParseError("expected type name", tok)
        self._advance()
        base = tok.text
        # allow 'const' after the base as well (C allows both orders)
        const = const or bool(self._accept("KEYWORD", "const"))
        pointers = 0
        while self._accept("PUNCT", "*"):
            pointers += 1
            const = const or bool(self._accept("KEYWORD", "const"))
        return CType(base, pointers, const)

    # -- top level ------------------------------------------------------------
    def parse_unit(self) -> TranslationUnit:
        unit = TranslationUnit()
        pending_pragmas: List[Pragma] = []
        while not self._check("EOF"):
            if self._check("PREPROC"):
                unit.preamble.append(self._advance().text)
                continue
            if self._check("PRAGMA"):
                tok = self._advance()
                pending_pragmas.append(
                    self._span(Pragma(tok.text), tok))  # type: ignore[arg-type]
                continue
            decl = self._parse_top_decl()
            if pending_pragmas and isinstance(decl, Stmt):
                decl.pragmas = pending_pragmas
                pending_pragmas = []
            unit.decls.append(decl)
        set_parents(unit)
        return unit

    def _parse_top_decl(self) -> Node:
        start = self._peek()
        ctype = self._parse_type()
        name = self._expect("IDENT").text
        if self._check("PUNCT", "("):
            return self._parse_function(ctype, name, start)
        # global variable declaration
        decls = [self._parse_declarator(ctype, name)]
        while self._accept("PUNCT", ","):
            nm = self._expect("IDENT").text
            decls.append(self._parse_declarator(ctype, nm))
        self._expect("PUNCT", ";")
        return self._span(DeclStmt(decls), start)

    def _parse_function(self, rtype: CType, name: str, start: Token) -> FunctionDecl:
        self._expect("PUNCT", "(")
        params: List[ParamDecl] = []
        if not self._check("PUNCT", ")"):
            if self._check("KEYWORD", "void") and self._peek(1).text == ")":
                self._advance()  # f(void)
            else:
                while True:
                    ptok = self._peek()
                    ptype = self._parse_type()
                    pname = self._expect("IDENT").text
                    # tolerate T name[] as pointer
                    if self._accept("PUNCT", "["):
                        self._expect("PUNCT", "]")
                        ptype = ptype.pointer_to()
                    params.append(
                        self._span(ParamDecl(pname, ptype), ptok))  # type: ignore[arg-type]
                    if not self._accept("PUNCT", ","):
                        break
        self._expect("PUNCT", ")")
        body: Optional[CompoundStmt] = None
        if not self._accept("PUNCT", ";"):
            body = self._parse_block()
        return self._span(FunctionDecl(name, rtype, params, body), start)  # type: ignore[return-value]

    # -- statements ---------------------------------------------------------------
    def _parse_block(self) -> CompoundStmt:
        start = self._expect("PUNCT", "{")
        stmts: List[Stmt] = []
        while not self._check("PUNCT", "}"):
            if self._check("EOF"):
                raise ParseError("unterminated block", self._peek())
            stmts.append(self._parse_stmt())
        self._expect("PUNCT", "}")
        return self._span(CompoundStmt(stmts), start)  # type: ignore[return-value]

    def _parse_stmt(self) -> Stmt:
        pragmas: List[Pragma] = []
        while self._check("PRAGMA"):
            tok = self._advance()
            pragmas.append(self._span(Pragma(tok.text), tok))  # type: ignore[arg-type]
        stmt = self._parse_stmt_inner()
        if pragmas:
            stmt.pragmas = pragmas + stmt.pragmas
        return stmt

    def _parse_stmt_inner(self) -> Stmt:
        tok = self._peek()
        if self._check("PUNCT", "{"):
            return self._parse_block()
        if self._check("PUNCT", ";"):
            self._advance()
            return self._span(NullStmt(), tok)  # type: ignore[return-value]
        if self._check("KEYWORD", "for"):
            return self._parse_for()
        if self._check("KEYWORD", "while"):
            return self._parse_while()
        if self._check("KEYWORD", "do"):
            return self._parse_do_while()
        if self._check("KEYWORD", "if"):
            return self._parse_if()
        if self._check("KEYWORD", "return"):
            self._advance()
            expr = None
            if not self._check("PUNCT", ";"):
                expr = self._parse_expr()
            self._expect("PUNCT", ";")
            return self._span(ReturnStmt(expr), tok)  # type: ignore[return-value]
        if self._check("KEYWORD", "break"):
            self._advance()
            self._expect("PUNCT", ";")
            return self._span(BreakStmt(), tok)  # type: ignore[return-value]
        if self._check("KEYWORD", "continue"):
            self._advance()
            self._expect("PUNCT", ";")
            return self._span(ContinueStmt(), tok)  # type: ignore[return-value]
        if self._at_type():
            return self._parse_decl_stmt()
        expr = self._parse_expr()
        self._expect("PUNCT", ";")
        return self._span(ExprStmt(expr), tok)  # type: ignore[return-value]

    def _parse_decl_stmt(self) -> DeclStmt:
        start = self._peek()
        ctype = self._parse_type()
        decls: List[VarDecl] = []
        while True:
            name = self._expect("IDENT").text
            decls.append(self._parse_declarator(ctype, name))
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", ";")
        return self._span(DeclStmt(decls), start)  # type: ignore[return-value]

    def _parse_declarator(self, ctype: CType, name: str) -> VarDecl:
        array_size: Optional[Expr] = None
        if self._accept("PUNCT", "["):
            array_size = self._parse_expr()
            self._expect("PUNCT", "]")
        init: Optional[Expr] = None
        if self._accept("PUNCT", "="):
            init = self._parse_assignment()
        return VarDecl(name, ctype, array_size, init)

    def _parse_for(self) -> ForStmt:
        start = self._expect("KEYWORD", "for")
        self._expect("PUNCT", "(")
        init: Optional[Stmt] = None
        if not self._check("PUNCT", ";"):
            if self._at_type():
                init = self._parse_decl_stmt()
            else:
                expr = self._parse_expr()
                self._expect("PUNCT", ";")
                init = ExprStmt(expr)
        else:
            self._advance()
        cond: Optional[Expr] = None
        if not self._check("PUNCT", ";"):
            cond = self._parse_expr()
        self._expect("PUNCT", ";")
        inc: Optional[Expr] = None
        if not self._check("PUNCT", ")"):
            inc = self._parse_expr()
        self._expect("PUNCT", ")")
        body = self._parse_stmt()
        return self._span(ForStmt(init, cond, inc, body), start)  # type: ignore[return-value]

    def _parse_while(self) -> WhileStmt:
        start = self._expect("KEYWORD", "while")
        self._expect("PUNCT", "(")
        cond = self._parse_expr()
        self._expect("PUNCT", ")")
        body = self._parse_stmt()
        return self._span(WhileStmt(cond, body), start)  # type: ignore[return-value]

    def _parse_do_while(self) -> DoWhileStmt:
        start = self._expect("KEYWORD", "do")
        body = self._parse_stmt()
        self._expect("KEYWORD", "while")
        self._expect("PUNCT", "(")
        cond = self._parse_expr()
        self._expect("PUNCT", ")")
        self._expect("PUNCT", ";")
        return self._span(DoWhileStmt(body, cond), start)  # type: ignore[return-value]

    def _parse_if(self) -> IfStmt:
        start = self._expect("KEYWORD", "if")
        self._expect("PUNCT", "(")
        cond = self._parse_expr()
        self._expect("PUNCT", ")")
        then = self._parse_stmt()
        els: Optional[Stmt] = None
        if self._accept("KEYWORD", "else"):
            els = self._parse_stmt()
        return self._span(IfStmt(cond, then, els), start)  # type: ignore[return-value]

    # -- expressions -----------------------------------------------------------
    def _parse_expr(self) -> Expr:
        # UHL has no comma operator: commas only separate call
        # arguments, parameters and declarators
        return self._parse_assignment()

    def _parse_assignment(self) -> Expr:
        lhs = self._parse_ternary()
        tok = self._peek()
        if tok.kind == "PUNCT" and tok.text in Assign.OPS:
            self._advance()
            rhs = self._parse_assignment()
            return self._span(Assign(tok.text, lhs, rhs), tok)  # type: ignore[return-value]
        return lhs

    def _parse_ternary(self) -> Expr:
        cond = self._parse_binary(0)
        if self._accept("PUNCT", "?"):
            then = self._parse_assignment()
            self._expect("PUNCT", ":")
            els = self._parse_assignment()
            return Ternary(cond, then, els)
        return cond

    _BINARY_LEVELS = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]
    _BINARY_LEVEL = {op: level for level, ops in enumerate(_BINARY_LEVELS)
                     for op in ops}

    def _parse_binary(self, min_level: int) -> Expr:
        # precedence climbing: an operand, then every operator binding at
        # least as tightly as min_level; the right operand only takes
        # tighter operators, so equal levels associate to the left
        lhs = self._parse_unary()
        while True:
            tok = self._peek()
            level = (self._BINARY_LEVEL.get(tok.text)
                     if tok.kind == "PUNCT" else None)
            if level is None or level < min_level:
                return lhs
            self._advance()
            rhs = self._parse_binary(level + 1)
            lhs = self._span(BinaryOp(tok.text, lhs, rhs), tok)  # type: ignore[assignment]

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        if tok.kind == "PUNCT" and tok.text in ("-", "+", "!", "~", "*", "&", "++", "--"):
            self._advance()
            operand = self._parse_unary()
            if tok.text == "+":
                return operand
            return self._span(UnaryOp(tok.text, operand, prefix=True), tok)  # type: ignore[return-value]
        # cast: '(' type ')' unary
        if tok.kind == "PUNCT" and tok.text == "(":
            nxt = self._peek(1)
            if nxt.kind == "KEYWORD" and (nxt.text in _SCALARS or nxt.text == "const"):
                self._advance()  # '('
                ctype = self._parse_type()
                self._expect("PUNCT", ")")
                expr = self._parse_unary()
                return self._span(Cast(ctype, expr), tok)  # type: ignore[return-value]
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if self._check("PUNCT", "["):
                self._advance()
                index = self._parse_expr()
                self._expect("PUNCT", "]")
                expr = self._span(Index(expr, index), tok)  # type: ignore[assignment]
            elif self._check("PUNCT", "++") or self._check("PUNCT", "--"):
                self._advance()
                expr = self._span(UnaryOp(tok.text, expr, prefix=False), tok)  # type: ignore[assignment]
            else:
                return expr

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        if tok.kind == "INT":
            self._advance()
            text = tok.text.rstrip("uUlL")
            suffix = tok.text[len(text):]
            return self._span(IntLit(_int_value(text, tok), suffix), tok)  # type: ignore[return-value]
        if tok.kind == "FLOAT":
            self._advance()
            body = tok.text.rstrip("fFlL")
            suffix = tok.text[len(body):]
            sfx = "f" if "f" in suffix.lower() else ""
            return self._span(FloatLit(float(body), sfx, text=tok.text), tok)  # type: ignore[return-value]
        if tok.kind == "STRING":
            self._advance()
            return self._span(StringLit(tok.text[1:-1]), tok)  # type: ignore[return-value]
        if tok.kind == "KEYWORD" and tok.text in ("true", "false"):
            self._advance()
            return self._span(BoolLit(tok.text == "true"), tok)  # type: ignore[return-value]
        if tok.kind == "IDENT":
            self._advance()
            if self._check("PUNCT", "("):
                return self._parse_call(tok)
            return self._span(Ident(tok.text), tok)  # type: ignore[return-value]
        if self._accept("PUNCT", "("):
            expr = self._parse_expr()
            self._expect("PUNCT", ")")
            return expr
        raise ParseError("expected expression", tok)

    def _parse_call(self, name_tok: Token) -> Call:
        self._expect("PUNCT", "(")
        args: List[Expr] = []
        if not self._check("PUNCT", ")"):
            while True:
                args.append(self._parse_assignment())
                if not self._accept("PUNCT", ","):
                    break
        self._expect("PUNCT", ")")
        return self._span(Call(name_tok.text, args), name_tok)  # type: ignore[return-value]


def _int_value(text: str, tok: Token) -> int:
    """C integer literal value: hex ``0x``, octal ``0``-led, else decimal."""
    try:
        if text[:2] in ("0x", "0X"):
            return int(text[2:], 16)
        return int(text, 8 if text[0] == "0" else 10)
    except ValueError:
        raise LexError(f"invalid integer literal {tok.text!r}",
                       tok.line, tok.col) from None


def parse(source: str) -> TranslationUnit:
    """Parse a UHL source string into a :class:`TranslationUnit`."""
    return Parser(source).parse_unit()


def parse_expr(source: str) -> Expr:
    """Parse a single expression (used by instrumentation helpers)."""
    parser = Parser(source)
    expr = parser._parse_expr()
    if not parser._check("EOF"):
        raise ParseError("trailing input after expression", parser._peek())
    return set_parents(expr)  # type: ignore[return-value]


def parse_stmt(source: str) -> Stmt:
    """Parse a single statement (used by instrumentation helpers)."""
    parser = Parser(source)
    stmt = parser._parse_stmt()
    if not parser._check("EOF"):
        raise ParseError("trailing input after statement", parser._peek())
    return set_parents(stmt)  # type: ignore[return-value]
