"""Shared analysis machinery.

- :class:`LoopPath` -- a stable, clone-independent way to name a loop
  (analyses instrument *clones* of the reference AST, so results must be
  mapped back to the original by position, not identity);
- :class:`SymbolTable` -- declared types of names visible in a function;
- :func:`affine_form` -- canonical ``{var: coef, 1: const}`` form of an
  affine subscript expression, or ``None`` if non-affine;
- :func:`infer_type` -- static C type of an expression (drives the
  FLOPs/B analysis and the single-precision transforms).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Union

from repro.lang.builtins import MATH_BUILTINS
from repro.meta.ast_api import Ast
from repro.meta.ast_nodes import (
    Assign, BinaryOp, BoolLit, Call, Cast, CType, DeclStmt, Expr, FloatLit,
    ForStmt, FunctionDecl, Ident, Index, IntLit, Node, StringLit, Ternary,
    TranslationUnit, UnaryOp,
)


class LoopPath(NamedTuple):
    """Names the ``index``-th for-loop (pre-order) of function ``fn_name``."""

    fn_name: str
    index: int

    def __str__(self):
        return f"{self.fn_name}#loop{self.index}"


def loop_path(loop: ForStmt) -> LoopPath:
    """Compute the :class:`LoopPath` of a loop node in its tree."""
    fn = loop.enclosing(FunctionDecl)
    if fn is None:
        raise ValueError("loop is not inside a function")
    index = 0
    for node in fn.body.walk():
        if node is loop:
            return LoopPath(fn.name, index)
        if isinstance(node, ForStmt):
            index += 1
    raise ValueError("loop not found in its own function")


def resolve_loop(ast_or_unit: Union[Ast, TranslationUnit],
                 path: LoopPath) -> ForStmt:
    """Find the loop named by ``path`` in (a clone of) the program."""
    unit = ast_or_unit.unit if isinstance(ast_or_unit, Ast) else ast_or_unit
    fn = unit.function(path.fn_name)
    loops = fn.loops()
    if path.index >= len(loops):
        raise ValueError(f"{path} out of range ({len(loops)} loops)")
    return loops[path.index]


class SymbolTable:
    """Types of names visible inside one function (params, locals, globals)."""

    def __init__(self, fn: FunctionDecl, unit: Optional[TranslationUnit] = None):
        self.types: Dict[str, CType] = {}
        #: names declared as stack arrays inside the function -- they
        #: live in registers/BRAM/L1 and never reach DRAM
        self.local_arrays: set = set()
        if unit is None:
            parent = fn.parent
            unit = parent if isinstance(parent, TranslationUnit) else None
        if unit is not None:
            for decl in unit.decls:
                if isinstance(decl, DeclStmt):
                    for var in decl.decls:
                        self.types[var.name] = self._decl_type(var)
        for param in fn.params:
            self.types[param.name] = param.ctype
        if fn.body is not None:
            for node in fn.body.walk():
                if isinstance(node, DeclStmt):
                    for var in node.decls:
                        self.types[var.name] = self._decl_type(var)
                        if var.is_array:
                            self.local_arrays.add(var.name)

    @staticmethod
    def _decl_type(var) -> CType:
        # `T a[n]` decays to `T*` for analysis purposes
        if var.is_array:
            return var.ctype.pointer_to()
        return var.ctype

    def type_of(self, name: str) -> Optional[CType]:
        return self.types.get(name)

    def is_local_array(self, name: str) -> bool:
        return name in self.local_arrays

    def __contains__(self, name: str) -> bool:
        return name in self.types


AffineForm = Dict[Union[str, int], int]  # {var_name: coef, 1: constant}


def affine_form(expr: Expr) -> Optional[AffineForm]:
    """Canonical affine form of an integer expression, or None.

    Handles ``+ - *`` with integer-literal scaling (``i * d + k``).
    Non-affine shapes (variable*variable, division, array loads used as
    subscripts such as ``c[labels[i]]``) return ``None`` -- the
    dependence analysis treats those conservatively.
    """
    if isinstance(expr, IntLit):
        return {1: expr.value}
    if isinstance(expr, Ident):
        return {expr.name: 1, 1: 0}
    if isinstance(expr, UnaryOp) and expr.op == "-" and expr.prefix:
        inner = affine_form(expr.operand)
        if inner is None:
            return None
        return {k: -v for k, v in inner.items()}
    if isinstance(expr, BinaryOp):
        if expr.op in ("+", "-"):
            lhs = affine_form(expr.lhs)
            rhs = affine_form(expr.rhs)
            if lhs is None or rhs is None:
                return None
            sign = 1 if expr.op == "+" else -1
            out: AffineForm = dict(lhs)
            out.setdefault(1, 0)
            for key, coef in rhs.items():
                out[key] = out.get(key, 0) + sign * coef
            return {k: v for k, v in out.items() if v != 0 or k == 1}
        if expr.op == "*":
            lhs = affine_form(expr.lhs)
            rhs = affine_form(expr.rhs)
            if lhs is None or rhs is None:
                return None
            lconst = set(lhs) <= {1}
            rconst = set(rhs) <= {1}
            if lconst:
                factor = lhs.get(1, 0)
                return {k: v * factor for k, v in rhs.items()}
            if rconst:
                factor = rhs.get(1, 0)
                return {k: v * factor for k, v in lhs.items()}
            return None
    return None


def affine_coefficient(form: AffineForm, var: str) -> int:
    return form.get(var, 0)


def uses_var(form: AffineForm, var: str) -> bool:
    return form.get(var, 0) != 0


_PROMOTION = {"bool": 0, "int": 1, "long": 2, "float": 3, "double": 4}


def _promote(a: CType, b: CType) -> CType:
    if a.is_pointer:
        return a
    if b.is_pointer:
        return b
    return a if _PROMOTION[a.base] >= _PROMOTION[b.base] else b


def infer_type(expr: Expr, symbols: SymbolTable) -> Optional[CType]:
    """Static type of an expression under C promotion rules.

    Returns ``None`` for names/calls whose type cannot be determined
    (callers treat unknown as double -- the conservative choice for the
    single-precision transforms, which must never downgrade silently).
    """
    if isinstance(expr, IntLit):
        return CType("long" if "l" in expr.suffix.lower() else "int")
    if isinstance(expr, FloatLit):
        return CType("float" if expr.is_single else "double")
    if isinstance(expr, BoolLit):
        return CType("bool")
    if isinstance(expr, StringLit):
        return None
    if isinstance(expr, Ident):
        return symbols.type_of(expr.name)
    if isinstance(expr, Index):
        base = infer_type(expr.base, symbols)
        if base is None or not base.is_pointer:
            return None
        return base.element_type()
    if isinstance(expr, UnaryOp):
        if expr.op == "*":
            base = infer_type(expr.operand, symbols)
            if base is None or not base.is_pointer:
                return None
            return base.element_type()
        if expr.op == "&":
            base = infer_type(expr.operand, symbols)
            return base.pointer_to() if base is not None else None
        if expr.op == "!":
            return CType("int")
        return infer_type(expr.operand, symbols)
    if isinstance(expr, Cast):
        return expr.ctype
    if isinstance(expr, Assign):
        return infer_type(expr.target, symbols)
    if isinstance(expr, Ternary):
        then = infer_type(expr.then, symbols)
        els = infer_type(expr.els, symbols)
        if then is None or els is None:
            return then or els
        return _promote(then, els)
    if isinstance(expr, BinaryOp):
        if expr.op in BinaryOp.COMPARE or expr.op in BinaryOp.LOGICAL:
            return CType("int")
        lhs = infer_type(expr.lhs, symbols)
        rhs = infer_type(expr.rhs, symbols)
        if lhs is None or rhs is None:
            return lhs or rhs
        return _promote(lhs, rhs)
    if isinstance(expr, Call):
        spec = MATH_BUILTINS.get(expr.name)
        if spec is not None:
            return CType("float" if spec.single_precision else "double")
        if expr.name in ("ws_int",):
            return CType("int")
        if expr.name in ("ws_double", "rand01"):
            return CType("double")
        if expr.name == "ws_float":
            return CType("float")
        if expr.name == "ws_array_double":
            return CType("double", 1)
        if expr.name == "ws_array_float":
            return CType("float", 1)
        if expr.name == "ws_array_int":
            return CType("int", 1)
        # user function: look up its declaration
        node: Optional[Node] = expr
        while node is not None and not isinstance(node, TranslationUnit):
            node = node.parent
        if isinstance(node, TranslationUnit) and node.has_function(expr.name):
            return node.function(expr.name).return_type
        return None
    return None
