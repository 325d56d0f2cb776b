"""Static loop-carried dependence analysis ("Loop Dependence Analysis").

Determines, per loop, whether iterations are independent (parallel),
carry only scalar *reductions* (``s += ...`` -- removable with an OpenMP
reduction clause or register accumulation), or carry true dependences.
The Fig. 3 PSA strategy consumes exactly these facts: "parallel outer
loop?" and "inner loops w/ deps?".

Method (classic, conservative):

- names declared inside the loop body are private;
- a non-private scalar that is read-and-written per iteration is a
  reduction when every write site has the form ``s += e`` / ``s -= e`` /
  ``s *= e`` / ``s = s op e`` with ``s`` not otherwise read; any other
  read/write mix is a carried dependence;
- array subscripts are compared in affine form: writes whose subscript
  does not vary with the loop variable, pairs with mismatched loop-var
  coefficients, pairs whose difference is a non-zero constant multiple,
  and non-affine subscripts (e.g. ``csum[labels[i]]``) are carried
  dependences; equal affine forms touch the same element only within one
  iteration and are safe;
- calls to user functions taking pointer arguments are conservatively
  carried (the callee may touch shared state); math builtins are pure.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.common import (
    LoopPath, affine_form, loop_path,
)
from repro.lang.builtins import is_builtin
from repro.meta.ast_api import Ast
from repro.meta.ast_nodes import (
    Assign, BinaryOp, Call, DeclStmt, Expr, ForStmt, FunctionDecl, Ident,
    Index, Node, TranslationUnit, UnaryOp,
)


class CarriedDep(NamedTuple):
    kind: str      # 'scalar' | 'array' | 'call' | 'non-affine'
    name: str      # variable / array / function involved
    reason: str


class DependenceInfo(NamedTuple):
    path: LoopPath
    carried: Tuple[CarriedDep, ...]
    reductions: Tuple[str, ...]

    @property
    def is_parallel(self) -> bool:
        """No loop-carried dependence of any kind."""
        return not self.carried and not self.reductions

    @property
    def is_parallel_with_reductions(self) -> bool:
        """Parallel once scalar reductions are handled (OMP reduction)."""
        return not self.carried

    @property
    def has_dependences(self) -> bool:
        return bool(self.carried) or bool(self.reductions)


def _base_array(expr: Index) -> Optional[str]:
    base: Expr = expr.base
    while isinstance(base, Index):
        base = base.base
    return base.name if isinstance(base, Ident) else None


def _collect_private(loop: ForStmt) -> Set[str]:
    """Names declared in the loop init or anywhere inside the body."""
    private: Set[str] = set()
    if isinstance(loop.init, DeclStmt):
        for var in loop.init.decls:
            private.add(var.name)
    for node in loop.body.walk():
        if isinstance(node, DeclStmt):
            for var in node.decls:
                private.add(var.name)
        if isinstance(node, ForStmt):
            inner_var = node.loop_var()
            if inner_var is not None:
                private.add(inner_var)
    return private


def _scalar_writes(body: Node) -> Dict[str, List[Assign]]:
    writes: Dict[str, List[Assign]] = {}
    for node in body.walk():
        if isinstance(node, Assign) and isinstance(node.target, Ident):
            writes.setdefault(node.target.name, []).append(node)
        if isinstance(node, UnaryOp) and node.op in ("++", "--") \
                and isinstance(node.operand, Ident):
            # model x++ as x += 1 for dependence purposes
            writes.setdefault(node.operand.name, []).append(
                Assign("+=", node.operand, node.operand))
    return writes


def _reads_of_scalar(body: Node, name: str) -> int:
    """Reads of ``name`` outside its own reduction-update right-hand sides."""
    count = 0
    for node in body.walk():
        if isinstance(node, Ident) and node.name == name:
            parent = node.parent
            if isinstance(parent, Assign) and parent.target is node:
                continue  # the write itself
            count += 1
    return count


def _is_reduction_update(assign: Assign, name: str) -> bool:
    if assign.op in ("+=", "-=", "*="):
        return True
    if assign.op == "=":
        value = assign.value
        if isinstance(value, BinaryOp) and value.op in ("+", "*", "-"):
            for side in (value.lhs, value.rhs):
                if isinstance(side, Ident) and side.name == name:
                    return True
    return False


def _self_reads(assigns: List[Assign], name: str) -> int:
    """Reads of ``name`` that are part of its own update expressions."""
    count = 0
    for assign in assigns:
        if assign.op in ("+=", "-=", "*="):
            continue  # implicit read, not an Ident node in the value
        for node in assign.value.walk():
            if isinstance(node, Ident) and node.name == name:
                count += 1
    return count


def analyze_loop_dependences(loop: ForStmt) -> DependenceInfo:
    """Dependence facts for one loop (see module docstring for the method)."""
    return _loop_dependences(loop, loop_path(loop))


def _loop_dependences(loop: ForStmt, path: LoopPath) -> DependenceInfo:
    var = loop.loop_var()
    carried: List[CarriedDep] = []
    reductions: List[str] = []
    private = _collect_private(loop)
    if var is not None:
        private.add(var)
    body = loop.body

    # ---- calls with side effects ----------------------------------------
    unit = loop.enclosing(TranslationUnit) or (
        loop.enclosing(FunctionDecl).parent
        if loop.enclosing(FunctionDecl) else None)
    for node in body.walk():
        if isinstance(node, Call) and not is_builtin(node.name):
            fn = None
            if isinstance(unit, TranslationUnit) and unit.has_function(node.name):
                fn = unit.function(node.name)
            if fn is None or any(p.ctype.is_pointer for p in fn.params):
                carried.append(CarriedDep(
                    "call", node.name,
                    f"call to {node.name}() may touch shared memory"))

    # ---- scalar dependences ------------------------------------------------
    for name, assigns in _scalar_writes(body).items():
        if name in private:
            continue
        all_reductions = all(_is_reduction_update(a, name) for a in assigns)
        external_reads = _reads_of_scalar(body, name) - _self_reads(assigns, name)
        if all_reductions and external_reads == 0:
            reductions.append(name)
        elif external_reads > 0 or not all_reductions:
            carried.append(CarriedDep(
                "scalar", name,
                f"scalar {name!r} is read and written across iterations"))
        else:
            carried.append(CarriedDep(
                "scalar", name,
                f"scalar {name!r} written every iteration (output dependence)"))

    # ---- array dependences ---------------------------------------------------
    accesses: Dict[str, List[Tuple[Expr, bool]]] = {}  # name -> [(subscript, is_write)]
    for node in body.walk():
        if isinstance(node, Assign) and isinstance(node.target, Index):
            name = _base_array(node.target)
            if name is not None:
                is_rmw = node.op != "="
                accesses.setdefault(name, []).append(
                    (node.target.index, True))
                if is_rmw:
                    accesses.setdefault(name, []).append(
                        (node.target.index, False))
        elif isinstance(node, Index):
            parent = node.parent
            if isinstance(parent, Assign) and parent.target is node:
                continue  # handled above
            name = _base_array(node)
            if name is not None and not isinstance(parent, Index):
                accesses.setdefault(name, []).append((node.index, False))

    for name, recs in accesses.items():
        if name in private:
            continue
        writes = [sub for sub, is_write in recs if is_write]
        if not writes:
            continue  # read-only arrays never carry dependences
        dep = _array_dep(name, writes,
                         [sub for sub, _ in recs], var)
        if dep is not None:
            carried.append(dep)

    return DependenceInfo(path, tuple(carried), tuple(sorted(set(reductions))))


def _array_dep(name: str, writes: List[Expr], all_subs: List[Expr],
               var: Optional[str]) -> Optional[CarriedDep]:
    if var is None:
        return CarriedDep("array", name, "loop variable not recognised")
    write_forms = []
    for sub in writes:
        form = affine_form(sub)
        if form is None:
            return CarriedDep(
                "non-affine", name,
                f"write to {name}[] with non-affine subscript")
        write_forms.append(form)
    all_forms = []
    for sub in all_subs:
        form = affine_form(sub)
        if form is None:
            return CarriedDep(
                "non-affine", name,
                f"access to {name}[] with non-affine subscript")
        all_forms.append(form)

    for wform in write_forms:
        wcoef = wform.get(var, 0)
        if wcoef == 0:
            return CarriedDep(
                "array", name,
                f"write to {name}[] at a subscript independent of {var!r}")
        for aform in all_forms:
            acoef = aform.get(var, 0)
            if acoef != wcoef:
                return CarriedDep(
                    "array", name,
                    f"{name}[] accessed with mismatched {var!r} strides")
            # same coefficient: difference must be zero everywhere
            keys = set(wform) | set(aform)
            diff = {k: wform.get(k, 0) - aform.get(k, 0)
                    for k in keys if k != var}
            nonzero = {k: v for k, v in diff.items() if v != 0}
            if not nonzero:
                continue  # identical addressing: same-iteration access only
            if set(nonzero) == {1} and nonzero[1] % wcoef == 0:
                distance = nonzero[1] // wcoef
                return CarriedDep(
                    "array", name,
                    f"{name}[] carried dependence at distance {distance}")
            if set(nonzero) == {1}:
                continue  # constant offset below the stride: disjoint lanes
            return CarriedDep(
                "array", name,
                f"{name}[] subscripts differ in other variables")
    return None


def analyze_dependences(ast: Ast, fn_name: str) -> Dict[LoopPath, DependenceInfo]:
    """Dependence facts for every loop of ``fn_name``, keyed by loop path."""
    fn = ast.function(fn_name)
    infos = {}
    for index, loop in enumerate(fn.loops()):
        path = LoopPath(fn.name, index)
        infos[path] = _loop_dependences(loop, path)
    return infos
