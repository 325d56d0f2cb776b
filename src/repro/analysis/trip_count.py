"""Loop trip-count analysis ("Loop Trip-Count Analysis", Fig. 4).

Two complementary views, matching the paper:

- :func:`static_trip_count` -- compile-time trip count of a loop whose
  bounds are integer literals (``for (int j = 0; j < 16; j++)``).  The
  FPGA path's "can fully unroll?" decision (Fig. 3) and the "Unroll
  Fixed Loops" transform need this.
- :func:`analyze_trip_counts` -- dynamic characterisation: execute the
  program and record per-loop entry counts and iteration statistics
  (the paper marks this task as requiring program execution).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from repro.analysis.common import LoopPath
from repro.lang.interpreter import Workload
from repro.meta.ast_api import Ast
from repro.meta.ast_nodes import (
    Assign, BinaryOp, DeclStmt, ExprStmt, ForStmt, FunctionDecl, Ident,
    IntLit, UnaryOp,
)


class TripCountInfo(NamedTuple):
    path: LoopPath
    entries: int              # dynamic entries observed
    total_iterations: int
    min_trips: int
    max_trips: int
    avg_trips: float
    constant: bool            # same dynamic trip count at every entry
    static_trips: Optional[int]  # compile-time trip count, if bounds fixed

    @property
    def fixed_bounds(self) -> bool:
        """Bounds known at compile time (the FPGA unrollability test)."""
        return self.static_trips is not None


def _literal_init(loop: ForStmt) -> Optional[int]:
    init = loop.init
    if isinstance(init, DeclStmt) and len(init.decls) == 1:
        value = init.decls[0].init
        if isinstance(value, IntLit):
            return value.value
        return None
    if isinstance(init, ExprStmt) and isinstance(init.expr, Assign) \
            and init.expr.op == "=" and isinstance(init.expr.value, IntLit):
        return init.expr.value.value
    return None


def _literal_bound(loop: ForStmt, var: str) -> Optional[tuple]:
    cond = loop.cond
    if isinstance(cond, BinaryOp) and cond.op in ("<", "<=") \
            and isinstance(cond.lhs, Ident) and cond.lhs.name == var \
            and isinstance(cond.rhs, IntLit):
        return cond.op, cond.rhs.value
    return None


def _literal_step(loop: ForStmt, var: str) -> Optional[int]:
    inc = loop.inc
    if isinstance(inc, UnaryOp) and inc.op == "++" \
            and isinstance(inc.operand, Ident) and inc.operand.name == var:
        return 1
    if isinstance(inc, UnaryOp) and inc.op == "--" \
            and isinstance(inc.operand, Ident) and inc.operand.name == var:
        return -1
    if isinstance(inc, Assign) and inc.op == "+=" \
            and isinstance(inc.target, Ident) and inc.target.name == var \
            and isinstance(inc.value, IntLit):
        return inc.value.value
    return None


def static_trip_count(loop: ForStmt) -> Optional[int]:
    """Compile-time trip count for literal-bound canonical loops, else None."""
    var = loop.loop_var()
    if var is None:
        return None
    start = _literal_init(loop)
    bound = _literal_bound(loop, var)
    step = _literal_step(loop, var)
    if start is None or bound is None or step is None or step <= 0:
        return None
    op, limit = bound
    if op == "<=":
        limit += 1
    if limit <= start:
        return 0
    return (limit - start + step - 1) // step


def analyze_trip_counts(ast: Ast, workload: Workload, fn_name: str,
                        entry: str = "main") -> Dict[LoopPath, TripCountInfo]:
    """Dynamic trip-count characterisation of every loop in ``fn_name``.

    Runs the (un-instrumented) program -- the interpreter records trip
    counts natively, standing in for counter instrumentation -- and
    joins the dynamic records with the static view.
    """
    fn = ast.function(fn_name)
    loops = fn.loops()
    from repro.analysis.profile import collect_profile
    report = collect_profile(ast, workload, entry=entry)

    results: Dict[LoopPath, TripCountInfo] = {}
    for index, loop in enumerate(loops):
        path = LoopPath(fn.name, index)
        profile = report.loop_profiles.get(loop.node_id)
        static = static_trip_count(loop)
        if profile is None or profile.entries == 0:
            results[path] = TripCountInfo(path, 0, 0, 0, 0, 0.0,
                                          False, static)
        else:
            results[path] = TripCountInfo(
                path, profile.entries, profile.total_iterations,
                profile.min_trips, profile.max_trips, profile.avg_trips,
                profile.constant_trips, static)
    return results
