"""AST structure dumper (debugging / teaching aid).

Renders the tree the way Fig. 2's purple diagram does: one node per
line, indentation for structure, the salient attribute of each node
(names, operators, literal values, pragmas) inline.

>>> from repro.meta import Ast
>>> from repro.meta.dump import dump
>>> print(dump(Ast("int main() { return 1 + 2; }").unit))
TranslationUnit
  FunctionDecl main() -> int
    CompoundStmt
      ReturnStmt
        BinaryOp +
          IntLit 1
          IntLit 2
"""

from __future__ import annotations

from typing import List

from repro.meta.ast_nodes import (
    Assign, BinaryOp, BoolLit, Call, Cast, Comment, DeclStmt, FloatLit,
    ForStmt, FunctionDecl, Ident, IntLit, Node, Pragma, RawStmt, StringLit,
    UnaryOp, VarDecl,
)


def _annotation(node: Node) -> str:
    if isinstance(node, FunctionDecl):
        params = ", ".join(str(p.ctype) for p in node.params)
        return f"{node.name}({params}) -> {node.return_type}"
    if isinstance(node, VarDecl):
        suffix = "[]" if node.is_array else ""
        return f"{node.ctype} {node.name}{suffix}"
    if isinstance(node, Ident):
        return node.name
    if isinstance(node, Call):
        return f"{node.name}(...)" if node.args else f"{node.name}()"
    if isinstance(node, (BinaryOp, UnaryOp)):
        return node.op
    if isinstance(node, Assign):
        return node.op
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, FloatLit):
        return node.text or str(node.value)
    if isinstance(node, BoolLit):
        return "true" if node.value else "false"
    if isinstance(node, StringLit):
        return repr(node.value)
    if isinstance(node, Cast):
        return f"({node.ctype})"
    if isinstance(node, ForStmt):
        var = node.loop_var()
        return f"var={var}" if var else ""
    if isinstance(node, (RawStmt, Comment)):
        first = node.text.splitlines()[0] if node.text else ""
        return first[:40]
    return ""


def dump(node: Node, max_depth: int = 100) -> str:
    """Indented structural dump of the subtree rooted at ``node``."""
    lines: List[str] = []

    def visit(current: Node, depth: int) -> None:
        note = _annotation(current)
        label = type(current).__name__ + (f" {note}" if note else "")
        for pragma in getattr(current, "pragmas", []):
            lines.append("  " * depth + f"#pragma {pragma.text}")
        lines.append("  " * depth + label)
        if depth >= max_depth:
            if current.children():
                lines.append("  " * (depth + 1) + "...")
            return
        for child in current.children():
            visit(child, depth + 1)

    visit(node, 0)
    return "\n".join(lines)
