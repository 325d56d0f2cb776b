"""AST node classes for the UHL (Unoptimised High-Level) C/C++ subset.

The paper's design-flows operate on C++ application sources through the
Artisan framework, whose ASTs "closely mirror the source-code as written
without lowering" so that exported designs stay human-readable.  These
node classes reproduce that property: every construct keeps its surface
structure (pragmas stay attached to the statements they precede, loop
headers keep their three clauses, literals keep their suffixes), and
:mod:`repro.meta.unparse` can always round-trip a tree back to readable
source.

Nodes carry parent links (maintained by :func:`set_parents`) so that
structural predicates such as ``fn.encloses(loop)`` and
``loop.is_outermost`` -- the exact predicates used by the Fig. 2
meta-program -- are cheap.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence

_node_ids = itertools.count(1)


class SourceSpan:
    """Location of a node in the original source (1-based line/column)."""

    __slots__ = ("line", "col")

    def __init__(self, line: int = 0, col: int = 0):
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.line}:{self.col}"


class CType:
    """A (possibly pointer / const-qualified) scalar C type.

    The UHL subset has no structs or typedefs; benchmark state lives in
    flat arrays, which is faithful to the paper's kernels (N-Body,
    K-Means, ... all operate on pointer-to-scalar buffers).
    """

    __slots__ = ("base", "pointers", "const")

    SCALARS = ("void", "bool", "int", "long", "float", "double")

    def __init__(self, base: str, pointers: int = 0, const: bool = False):
        if base not in self.SCALARS:
            raise ValueError(f"unknown base type {base!r}")
        self.base = base
        self.pointers = pointers
        self.const = const

    # -- classification helpers used by analyses -------------------------
    @property
    def is_pointer(self) -> bool:
        return self.pointers > 0

    @property
    def is_floating(self) -> bool:
        return self.base in ("float", "double") and self.pointers == 0

    @property
    def is_integral(self) -> bool:
        return self.base in ("bool", "int", "long") and self.pointers == 0

    def element_type(self) -> "CType":
        """Type obtained by dereferencing one pointer level."""
        if self.pointers == 0:
            raise ValueError("cannot dereference non-pointer type")
        return CType(self.base, self.pointers - 1, False)

    def pointer_to(self) -> "CType":
        return CType(self.base, self.pointers + 1, self.const)

    def sizeof(self) -> int:
        """Size in bytes of one value of this type (LP64 model)."""
        if self.pointers > 0:
            return 8
        return {"void": 0, "bool": 1, "int": 4, "long": 8,
                "float": 4, "double": 8}[self.base]

    def __eq__(self, other):
        return (isinstance(other, CType) and self.base == other.base
                and self.pointers == other.pointers)

    def __hash__(self):
        return hash((self.base, self.pointers))

    def __str__(self):
        s = ("const " if self.const else "") + self.base
        return s + "*" * self.pointers

    def __repr__(self):
        return f"CType({self})"


class Node:
    """Base class of all AST nodes."""

    _fields: Sequence[str] = ()

    def __init__(self):
        self.parent: Optional[Node] = None
        self.span = SourceSpan()
        self.node_id = next(_node_ids)

    # -- tree navigation --------------------------------------------------
    def children(self) -> List["Node"]:
        """Direct child nodes in source order: the nodes held by the
        class's ``_fields``, directly or as items of a list."""
        out: List[Node] = []
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Node):
                out.append(value)
            elif isinstance(value, list):
                out.extend(item for item in value if isinstance(item, Node))
        return out

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order.

        The walk keeps an explicit stack, so it has no recursion-depth
        limit.  It is lazy: a node's children are read when the walk
        resumes after yielding that node.  So rewriting attributes of
        any node during the iteration is fine, and replacing a field of
        the node just yielded is seen (the new child is walked).  Any
        other structural edit (inserting, removing or replacing nodes
        elsewhere) must iterate over ``list(node.walk())`` instead.
        """
        stack = [self]
        pop = stack.pop
        push = stack.append
        while stack:
            node = pop()
            yield node
            for name in reversed(node._fields):
                value = getattr(node, name)
                if isinstance(value, Node):
                    push(value)
                elif isinstance(value, list):
                    for item in reversed(value):
                        if isinstance(item, Node):
                            push(item)

    def descendants(self) -> Iterator["Node"]:
        """Yield strict descendants, pre-order."""
        nodes = self.walk()
        next(nodes)
        return nodes

    def ancestors(self) -> Iterator["Node"]:
        """Yield ancestors from the immediate parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def encloses(self, other: "Node") -> bool:
        """True if ``other`` is a strict descendant of this node.

        This is the ``fn.encloses(loop)`` predicate of the Fig. 2
        meta-program.
        """
        return any(anc is self for anc in other.ancestors())

    def enclosing(self, node_type) -> Optional["Node"]:
        """Nearest ancestor of the given type, or ``None``."""
        for anc in self.ancestors():
            if isinstance(anc, node_type):
                return anc
        return None

    def replace_child(self, old: "Node", new: "Node") -> None:
        """Replace a direct child ``old`` with ``new`` in place."""
        for name in self._fields:
            value = getattr(self, name)
            if value is old:
                setattr(self, name, new)
                new.parent = self
                return
            if isinstance(value, list):
                for i, item in enumerate(value):
                    if item is old:
                        value[i] = new
                        new.parent = self
                        return
        raise ValueError(f"{old!r} is not a child of {self!r}")

    def clone(self) -> "Node":
        """Deep copy of the subtree with fresh node ids and parents.

        Structural copy: child nodes are cloned, every other attribute
        (names, operators, types, spans) is shared -- they are treated
        as immutable throughout the codebase.  Avoids ``copy.deepcopy``,
        which both runs an order of magnitude slower and drags the
        entire enclosing tree along through the ``parent`` backrefs when
        cloning a subtree.  Nodes are copied from an explicit work list,
        so depth is unbounded.
        """
        pending: List[tuple] = []

        def copy(node: Node, parent: Optional[Node] = None) -> Node:
            cls = type(node)
            dup = cls.__new__(cls)
            dup.parent = parent
            pending.append((node, dup))
            return dup

        root = copy(self)
        while pending:
            node, dup = pending.pop()
            fields = node._fields
            d = dup.__dict__
            for name, value in node.__dict__.items():
                if name == "parent":
                    continue
                # as in set_parents: only ``_fields`` children get a parent
                parent = dup if name in fields else None
                if isinstance(value, Node):
                    value = copy(value, parent)
                elif isinstance(value, list):
                    # fast path: flat list of nodes/scalars (stmt bodies,
                    # arg lists); containers nested inside are walked
                    value = [copy(item, parent) if isinstance(item, Node)
                             else (_clone_field(item, copy)
                                   if isinstance(item, (list, tuple, dict))
                                   else item)
                             for item in value]
                elif isinstance(value, (tuple, dict)):
                    value = _clone_field(value, copy)
                d[name] = value
            d["node_id"] = next(_node_ids)
        return root

    def __repr__(self):
        return f"<{type(self).__name__} #{self.node_id} @{self.span}>"


def _clone_field(value, copy):
    """Copy any container shape that may hold :class:`Node` objects so a
    clone never aliases nodes with its original; nodes go to ``copy``,
    non-node leaves are shared (they are treated as immutable
    throughout the codebase)."""
    if isinstance(value, Node):
        return copy(value)
    if isinstance(value, list):
        return [_clone_field(item, copy) for item in value]
    if isinstance(value, tuple):
        return tuple(_clone_field(item, copy) for item in value)
    if isinstance(value, dict):
        return {key: _clone_field(item, copy) for key, item in value.items()}
    return value


def set_parents(root: Node, parent: Optional[Node] = None) -> Node:
    """(Re)establish parent links throughout the subtree rooted at ``root``."""
    root.parent = parent
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children():
            child.parent = node
            stack.append(child)
    return root


# =========================================================================
# Expressions
# =========================================================================

class Expr(Node):
    """Base class of expression nodes."""


class IntLit(Expr):
    _fields = ()

    def __init__(self, value: int, suffix: str = ""):
        super().__init__()
        self.value = int(value)
        self.suffix = suffix  # '', 'l', 'u' ...


class FloatLit(Expr):
    """A floating literal.

    ``suffix == 'f'`` marks single precision -- the "Employ SP Numeric
    Literals" transform rewrites double literals to carry this suffix.
    """

    _fields = ()

    def __init__(self, value: float, suffix: str = "", text: Optional[str] = None):
        super().__init__()
        self.value = float(value)
        self.suffix = suffix  # '' (double) or 'f' (float)
        self.text = text  # original spelling, preserved for readability

    @property
    def is_single(self) -> bool:
        return self.suffix.lower() == "f"


class BoolLit(Expr):
    _fields = ()

    def __init__(self, value: bool):
        super().__init__()
        self.value = bool(value)


class StringLit(Expr):
    _fields = ()

    def __init__(self, value: str):
        super().__init__()
        self.value = value


class Ident(Expr):
    _fields = ()

    def __init__(self, name: str):
        super().__init__()
        self.name = name


class BinaryOp(Expr):
    _fields = ("lhs", "rhs")

    ARITH = ("+", "-", "*", "/", "%")
    COMPARE = ("<", ">", "<=", ">=", "==", "!=")
    LOGICAL = ("&&", "||")
    BITWISE = ("&", "|", "^", "<<", ">>")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        super().__init__()
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class UnaryOp(Expr):
    """Prefix ``-x  !x  *p  &x  ++x  --x`` or postfix ``x++  x--``."""

    _fields = ("operand",)

    def __init__(self, op: str, operand: Expr, prefix: bool = True):
        super().__init__()
        self.op = op
        self.operand = operand
        self.prefix = prefix


class Assign(Expr):
    """Assignment, including compound forms (``+=``, ``-=``, ...).

    Compound array assignments (``a[i] += x``) are what the
    "Remove Array += Dependency" task rewrites.
    """

    _fields = ("target", "value")

    OPS = ("=", "+=", "-=", "*=", "/=")

    def __init__(self, op: str, target: Expr, value: Expr):
        super().__init__()
        if op not in self.OPS:
            raise ValueError(f"bad assignment operator {op!r}")
        self.op = op
        self.target = target
        self.value = value


class Call(Expr):
    _fields = ("args",)

    def __init__(self, name: str, args: List[Expr]):
        super().__init__()
        self.name = name
        self.args = list(args)


class Index(Expr):
    """Array subscript ``base[index]``."""

    _fields = ("base", "index")

    def __init__(self, base: Expr, index: Expr):
        super().__init__()
        self.base = base
        self.index = index


class Ternary(Expr):
    _fields = ("cond", "then", "els")

    def __init__(self, cond: Expr, then: Expr, els: Expr):
        super().__init__()
        self.cond = cond
        self.then = then
        self.els = els


class Cast(Expr):
    _fields = ("expr",)

    def __init__(self, ctype: CType, expr: Expr):
        super().__init__()
        self.ctype = ctype
        self.expr = expr


# =========================================================================
# Statements
# =========================================================================

class Stmt(Node):
    """Base class of statement nodes.

    Every statement owns a ``pragmas`` list: ``#pragma`` lines written
    immediately before it in the source.  Instrumentation tasks insert
    new pragmas here (e.g. ``#pragma unroll 4``,
    ``#pragma omp parallel for``).
    """

    def __init__(self):
        super().__init__()
        self.pragmas: List["Pragma"] = []


class Pragma(Node):
    """A ``#pragma`` directive attached to a statement."""

    _fields = ()

    def __init__(self, text: str):
        super().__init__()
        self.text = text.strip()

    @property
    def keyword(self) -> str:
        """First word of the pragma ('omp', 'unroll', 'ii', ...)."""
        parts = self.text.split()
        return parts[0] if parts else ""


class CompoundStmt(Stmt):
    _fields = ("stmts",)

    def __init__(self, stmts: Optional[List[Stmt]] = None):
        super().__init__()
        self.stmts: List[Stmt] = list(stmts or [])


class VarDecl(Node):
    """A single declarator within a declaration statement."""

    _fields = ("array_size", "init")

    def __init__(self, name: str, ctype: CType,
                 array_size: Optional[Expr] = None,
                 init: Optional[Expr] = None):
        super().__init__()
        self.name = name
        self.ctype = ctype
        self.array_size = array_size
        self.init = init

    @property
    def is_array(self) -> bool:
        return self.array_size is not None


class DeclStmt(Stmt):
    _fields = ("decls",)

    def __init__(self, decls: List[VarDecl]):
        super().__init__()
        self.decls = list(decls)


class ExprStmt(Stmt):
    _fields = ("expr",)

    def __init__(self, expr: Expr):
        super().__init__()
        self.expr = expr


class ForStmt(Stmt):
    """A C ``for`` loop with its surface structure preserved."""

    _fields = ("init", "cond", "inc", "body")

    def __init__(self, init: Optional[Stmt], cond: Optional[Expr],
                 inc: Optional[Expr], body: Stmt):
        super().__init__()
        self.init = init
        self.cond = cond
        self.inc = inc
        self.body = body

    # -- predicates from the Fig. 2 query --------------------------------
    @property
    def is_outermost(self) -> bool:
        """True when no enclosing for-loop exists within the same function."""
        for anc in self.ancestors():
            if isinstance(anc, ForStmt):
                return False
            if isinstance(anc, FunctionDecl):
                return True
        return True

    def nested_loops(self) -> List["ForStmt"]:
        """All for-loops strictly inside this one."""
        return [n for n in self.descendants() if isinstance(n, ForStmt)]

    def loop_var(self) -> Optional[str]:
        """Name of the induction variable, if the init clause declares or
        assigns a single variable (``int i = 0`` or ``i = 0``)."""
        init = self.init
        if isinstance(init, DeclStmt) and len(init.decls) == 1:
            return init.decls[0].name
        if isinstance(init, ExprStmt) and isinstance(init.expr, Assign):
            tgt = init.expr.target
            if isinstance(tgt, Ident):
                return tgt.name
        return None

    def depth(self) -> int:
        """Loop nesting depth: 0 for an outermost loop."""
        return sum(1 for anc in self.ancestors() if isinstance(anc, ForStmt))


class WhileStmt(Stmt):
    _fields = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt):
        super().__init__()
        self.cond = cond
        self.body = body


class DoWhileStmt(Stmt):
    _fields = ("body", "cond")

    def __init__(self, body: Stmt, cond: Expr):
        super().__init__()
        self.body = body
        self.cond = cond


class IfStmt(Stmt):
    _fields = ("cond", "then", "els")

    def __init__(self, cond: Expr, then: Stmt, els: Optional[Stmt] = None):
        super().__init__()
        self.cond = cond
        self.then = then
        self.els = els


class ReturnStmt(Stmt):
    _fields = ("expr",)

    def __init__(self, expr: Optional[Expr] = None):
        super().__init__()
        self.expr = expr


class BreakStmt(Stmt):
    _fields = ()


class ContinueStmt(Stmt):
    _fields = ()


class NullStmt(Stmt):
    """A lone ``;``."""

    _fields = ()


class RawStmt(Stmt):
    """Verbatim target-specific source emitted by code-generation tasks.

    Generated designs (HIP kernel launches, SYCL queue setup, ...) use
    constructs outside the UHL subset; code-generation tasks emit them
    as raw lines that the unparser prints verbatim, keeping the exported
    design human-readable exactly as the paper describes.
    """

    _fields = ()

    def __init__(self, text: str):
        super().__init__()
        self.text = text


class Comment(Stmt):
    """A ``//`` comment line kept as a statement for readability."""

    _fields = ()

    def __init__(self, text: str):
        super().__init__()
        self.text = text


# =========================================================================
# Declarations / top level
# =========================================================================

class ParamDecl(Node):
    _fields = ()

    def __init__(self, name: str, ctype: CType):
        super().__init__()
        self.name = name
        self.ctype = ctype


class FunctionDecl(Node):
    _fields = ("params", "body")

    def __init__(self, name: str, return_type: CType,
                 params: List[ParamDecl], body: Optional[CompoundStmt]):
        super().__init__()
        self.name = name
        self.return_type = return_type
        self.params = list(params)
        self.body = body
        # Attributes emitted by code generators (e.g. '__global__').
        self.attributes: List[str] = []

    def loops(self) -> List[ForStmt]:
        """All for-loops in the body, pre-order."""
        if self.body is None:
            return []
        return [n for n in self.body.walk() if isinstance(n, ForStmt)]

    def outermost_loops(self) -> List[ForStmt]:
        """For-loops not nested in another for-loop, pre-order: the walk
        collects each loop it meets and does not enter it."""
        if self.body is None:
            return []
        found: List[ForStmt] = []
        stack: List[Node] = [self.body]
        while stack:
            node = stack.pop()
            if isinstance(node, ForStmt):
                found.append(node)
            else:
                stack.extend(reversed(node.children()))
        return found


class TranslationUnit(Node):
    """Root node: an ordered list of top-level declarations."""

    _fields = ("decls",)

    def __init__(self, decls: Optional[List[Node]] = None):
        super().__init__()
        self.decls: List[Node] = list(decls or [])
        # Verbatim preamble lines (#include etc.) preserved for export.
        self.preamble: List[str] = []

    def functions(self) -> List[FunctionDecl]:
        return [d for d in self.decls if isinstance(d, FunctionDecl)]

    def function(self, name: str) -> FunctionDecl:
        for fn in self.functions():
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")

    def has_function(self, name: str) -> bool:
        return any(fn.name == name for fn in self.functions())


# =========================================================================
# Visitor
# =========================================================================

class NodeVisitor:
    """Classic double-dispatch visitor.

    Subclasses define ``visit_<ClassName>`` methods; unhandled node
    types fall through to :meth:`generic_visit`, which visits children.
    """

    def visit(self, node: Node):
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: Node):
        for child in node.children():
            self.visit(child)
