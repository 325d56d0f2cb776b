"""Tree-walking interpreter for UHL programs.

Executes a :class:`~repro.meta.ast_nodes.TranslationUnit` against a
:class:`Workload`, advancing the virtual clock and filling an
:class:`~repro.lang.profiler.ExecReport`.  This is the ``exec(ast)`` of
Fig. 2 and the execution engine behind every dynamic design-flow task.

Semantics follow C for the supported subset: integer division truncates
toward zero, pointers are base+offset pairs with real aliasing, arrays
decay to pointers, and assignment applies the target's conversion.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.lang.builtins import (
    ARRAY_BUILTIN_TYPES, LCG, MATH_BUILTINS, SCALAR_WS_BUILTINS, is_builtin,
)
from repro.lang.profiler import (
    ArrayAccessRecord, Counter, ExecReport, PointerArgEvent,
)
from repro.lang.values import ArrayValue, PointerValue, Value, truthy
from repro.meta.ast_nodes import (
    Assign, BinaryOp, BoolLit, BreakStmt, Call, Cast, Comment, CompoundStmt,
    ContinueStmt, CType, DeclStmt, DoWhileStmt, Expr, ExprStmt, FloatLit,
    ForStmt, FunctionDecl, Ident, IfStmt, Index, IntLit, NullStmt, Pragma,
    RawStmt, ReturnStmt, Stmt, StringLit, Ternary, TranslationUnit, UnaryOp,
    VarDecl, WhileStmt,
)

DIV_FLOP_COST = 4  # an FP divide costs several multiply-equivalents


class RuntimeFault(Exception):
    """A UHL program error (bad index, unknown name, type misuse)."""


class ExecLimitExceeded(RuntimeFault):
    """The step budget ran out -- likely a runaway loop."""


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Value = None):
        self.value = value


# Control flow is exceptional but frequent: constructing a fresh exception
# (and its traceback) per loop iteration dominates tight-loop cost, so each
# Interpreter pre-allocates its three control-flow signals once per run.
# Per-instance (not module-level) because the service runs jobs on a thread
# pool: a shared _Return.value would race between concurrent runs.  Catch
# sites drop the traceback so re-raising never chains frames iteration over
# iteration.  (The compiled engine uses Python's own break/continue/return.)


class Workload:
    """Named scalars and buffers supplied to a program run.

    Programs fetch scalars with ``ws_int("n")`` / ``ws_double("dt")``
    and buffers with ``ws_array_double("pos", n)``.  Buffers are created
    on first request (zero-filled, or from ``arrays`` if provided) and
    cached, so re-requests and post-run inspection see the same data.
    """

    def __init__(self, scalars: Optional[Dict[str, Union[int, float]]] = None,
                 arrays: Optional[Dict[str, Sequence[float]]] = None,
                 seed: int = 42):
        self.scalars = dict(scalars or {})
        self._initial_arrays = {k: list(v) for k, v in (arrays or {}).items()}
        self.seed = seed
        self._buffers: Dict[str, ArrayValue] = {}

    def scalar(self, name: str) -> Union[int, float]:
        try:
            return self.scalars[name]
        except KeyError:
            raise RuntimeFault(f"workload has no scalar {name!r}") from None

    def buffer(self, name: str, size: int, elem_type: CType) -> ArrayValue:
        buf = self._buffers.get(name)
        if buf is not None:
            if len(buf) != size:
                raise RuntimeFault(
                    f"workload buffer {name!r} re-requested with size "
                    f"{size}, previously {len(buf)}")
            return buf
        init = self._initial_arrays.get(name)
        if init is not None:
            if len(init) != size:
                raise RuntimeFault(
                    f"workload buffer {name!r} has {len(init)} initial "
                    f"values but the program requested {size}")
            buf = ArrayValue.from_values(init, elem_type, name)
        else:
            buf = ArrayValue(size, elem_type, name)
        self._buffers[name] = buf
        return buf

    def result(self, name: str) -> List[Union[int, float]]:
        """Contents of a buffer after a run (for oracle comparisons)."""
        try:
            return self._buffers[name].to_list()
        except KeyError:
            raise RuntimeFault(f"program never requested buffer {name!r}") from None

    def reset_buffers(self) -> None:
        """Drop cached buffers so the next run re-derives them from the
        inputs (used when an aborted run may have left them mutated)."""
        self._buffers.clear()

    def fresh(self) -> "Workload":
        """A new workload with the same inputs and no cached buffers."""
        return Workload(self.scalars, self._initial_arrays, self.seed)


def _c_int_div(a: int, b: int) -> int:
    if b == 0:
        raise RuntimeFault("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_int_mod(a: int, b: int) -> int:
    return a - _c_int_div(a, b) * b


class Interpreter:
    """Evaluator with profiling hooks; one instance per program run."""

    DEFAULT_MAX_STEPS = 200_000_000

    def __init__(self, unit: TranslationUnit,
                 workload: Optional[Workload] = None):
        self.unit = unit
        self.workload = workload if workload is not None else Workload()
        self.report = ExecReport()
        self.rng = LCG(self.workload.seed)
        self.functions: Dict[str, FunctionDecl] = {
            fn.name: fn for fn in unit.functions() if fn.body is not None}
        self.globals: Dict[str, Value] = {}
        # scope stack of the *current frame*; frames swap the whole list
        self.scopes: List[Dict[str, Value]] = []
        # counters: [global, outer loop, ..., innermost loop]
        self.counter_stack: List[Counter] = [self.report.global_counter]
        # per-frame pointer-arg access records (kernel data-movement)
        self.frame_arrays: List[Dict[int, ArrayAccessRecord]] = []
        self._timer_starts: Dict[str, float] = {}
        self.max_steps = self.DEFAULT_MAX_STEPS
        self._steps = 0
        self._break = _Break()
        self._continue = _Continue()
        self._return = _Return()

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------
    def run(self, entry: str = "main", max_steps: Optional[int] = None,
            args: Sequence[Value] = ()) -> ExecReport:
        if max_steps is not None:
            self.max_steps = max_steps
        self._exec_globals()
        if entry not in self.functions:
            raise RuntimeFault(f"no entry function {entry!r}")
        self.report.return_value = self.call_function(
            self.functions[entry], list(args))
        self.report.steps = self._steps
        return self.report

    def _exec_globals(self) -> None:
        for decl in self.unit.decls:
            if isinstance(decl, DeclStmt):
                for var in decl.decls:
                    self.globals[var.name] = self._init_decl(var)

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------
    def _lookup(self, name: str) -> Value:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name in self.globals:
            return self.globals[name]
        raise RuntimeFault(f"undefined variable {name!r}")

    def _assign_name(self, name: str, value: Value) -> None:
        for scope in reversed(self.scopes):
            if name in scope:
                scope[name] = value
                return
        if name in self.globals:
            self.globals[name] = value
            return
        raise RuntimeFault(f"assignment to undefined variable {name!r}")

    def _declare(self, name: str, value: Value) -> None:
        self.scopes[-1][name] = value

    # ------------------------------------------------------------------
    # Virtual clock
    # ------------------------------------------------------------------
    def _clock(self) -> float:
        """Current virtual time: the global counter plus every loop
        counter still in flight (their totals fold into the global
        counter only when the loops exit)."""
        return sum(counter.cycles() for counter in self.counter_stack)

    # ------------------------------------------------------------------
    # Step budget
    # ------------------------------------------------------------------
    def _step(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise ExecLimitExceeded(
                f"exceeded {self.max_steps} interpreter steps")

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------
    def call_function(self, fn: FunctionDecl, args: List[Value]) -> Value:
        if len(args) != len(fn.params):
            raise RuntimeFault(
                f"{fn.name}() takes {len(fn.params)} args, got {len(args)}")
        self.counter_stack[-1].calls += 1

        frame: Dict[str, Value] = {}
        records: Dict[int, ArrayAccessRecord] = {}
        ptr_args: List[Tuple[str, int, int, int]] = []
        for param, arg in zip(fn.params, args):
            if isinstance(arg, ArrayValue):
                arg = PointerValue(arg, 0)
            if isinstance(arg, PointerValue):
                if not param.ctype.is_pointer:
                    raise RuntimeFault(
                        f"{fn.name}(): passing pointer to scalar param "
                        f"{param.name!r}")
                records[arg.array.array_id] = ArrayAccessRecord(
                    param.name, arg.extent() * arg.array.elem_size,
                    arg.array.elem_size)
                ptr_args.append((param.name, arg.array.array_id,
                                 arg.offset, arg.extent()))
            elif param.ctype.is_pointer:
                raise RuntimeFault(
                    f"{fn.name}(): passing scalar to pointer param "
                    f"{param.name!r}")
            else:
                arg = self._convert(arg, param.ctype)
            frame[param.name] = arg

        if ptr_args and len(self.report.pointer_events) < 10_000:
            self.report.pointer_events.append(
                PointerArgEvent(fn.name, ptr_args))

        saved_scopes = self.scopes
        self.scopes = [frame]
        self.frame_arrays.append(records)
        try:
            self.exec_stmt(fn.body)
            result: Value = None
        except _Return as ret:
            ret.__traceback__ = None
            result = ret.value
        finally:
            self.scopes = saved_scopes
            self.frame_arrays.pop()
            self._merge_access_records(fn.name, records)
        return result

    def _merge_access_records(self, fn_name: str,
                              records: Dict[int, ArrayAccessRecord]) -> None:
        if not records:
            return
        merged = self.report.fn_array_access.setdefault(fn_name, {})
        for rec in records.values():
            into = merged.get(rec.name)
            if into is None:
                merged[rec.name] = rec
            else:
                into.reads += rec.reads
                into.writes += rec.writes
                into.read_before_write |= rec.read_before_write
                into.nbytes = max(into.nbytes, rec.nbytes)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def exec_stmt(self, stmt: Stmt) -> None:
        self._step()
        kind = type(stmt)
        if kind is ExprStmt:
            self.eval_expr(stmt.expr)
        elif kind is CompoundStmt:
            self.scopes.append({})
            try:
                for child in stmt.stmts:
                    self.exec_stmt(child)
            finally:
                self.scopes.pop()
        elif kind is DeclStmt:
            for var in stmt.decls:
                self._declare(var.name, self._init_decl(var))
        elif kind is ForStmt:
            self._exec_for(stmt)
        elif kind is IfStmt:
            self.counter_stack[-1].branches += 1
            if truthy(self.eval_expr(stmt.cond)):
                self.exec_stmt(stmt.then)
            elif stmt.els is not None:
                self.exec_stmt(stmt.els)
        elif kind is WhileStmt:
            self._exec_while(stmt)
        elif kind is DoWhileStmt:
            self._exec_do_while(stmt)
        elif kind is ReturnStmt:
            value = self.eval_expr(stmt.expr) if stmt.expr is not None else None
            self._return.value = value
            raise self._return
        elif kind is BreakStmt:
            raise self._break
        elif kind is ContinueStmt:
            raise self._continue
        elif kind in (NullStmt, Comment):
            pass
        elif kind is RawStmt:
            raise RuntimeFault(
                "generated target-specific code (RawStmt) is not "
                "interpretable; run the reference or kernel design instead")
        else:
            raise RuntimeFault(f"cannot execute {kind.__name__}")

    def _init_decl(self, var: VarDecl) -> Value:
        if var.is_array:
            size = self.eval_expr(var.array_size)
            if not isinstance(size, int):
                raise RuntimeFault(
                    f"array {var.name!r} size must be an integer")
            return ArrayValue(size, var.ctype, var.name, is_local=True)
        if var.init is not None:
            value = self.eval_expr(var.init)
            if var.ctype.is_pointer:
                if isinstance(value, ArrayValue):
                    return PointerValue(value, 0)
                if not isinstance(value, PointerValue):
                    raise RuntimeFault(
                        f"initialising pointer {var.name!r} with non-pointer")
                return value
            return self._convert(value, var.ctype)
        if var.ctype.is_pointer:
            return None  # uninitialised pointer
        return 0.0 if var.ctype.is_floating else 0

    # -- loops ----------------------------------------------------------
    def _push_loop(self, loop_id: int) -> Counter:
        counter = Counter()
        self.counter_stack.append(counter)
        return counter

    def _pop_loop(self, loop_id: int, counter: Counter, trips: int) -> None:
        self.counter_stack.pop()
        self.counter_stack[-1].add(counter)
        profile = self.report.loop(loop_id)
        profile.entries += 1
        profile.trip_counts.append(trips)
        profile.inclusive.add(counter)

    def _exec_for(self, stmt: ForStmt) -> None:
        self.scopes.append({})
        counter = self._push_loop(stmt.node_id)
        trips = 0
        try:
            if stmt.init is not None:
                self.exec_stmt(stmt.init)
            while True:
                if stmt.cond is not None:
                    counter.branches += 1
                    if not truthy(self.eval_expr(stmt.cond)):
                        break
                try:
                    self.exec_stmt(stmt.body)
                except _Continue as sig:
                    sig.__traceback__ = None
                except _Break as sig:
                    sig.__traceback__ = None
                    trips += 1
                    break
                trips += 1
                if stmt.inc is not None:
                    self.eval_expr(stmt.inc)
        finally:
            self._pop_loop(stmt.node_id, counter, trips)
            self.scopes.pop()

    def _exec_while(self, stmt: WhileStmt) -> None:
        counter = self._push_loop(stmt.node_id)
        trips = 0
        try:
            while True:
                counter.branches += 1
                if not truthy(self.eval_expr(stmt.cond)):
                    break
                try:
                    self.exec_stmt(stmt.body)
                except _Continue as sig:
                    sig.__traceback__ = None
                except _Break as sig:
                    sig.__traceback__ = None
                    trips += 1
                    break
                trips += 1
        finally:
            self._pop_loop(stmt.node_id, counter, trips)

    def _exec_do_while(self, stmt: DoWhileStmt) -> None:
        counter = self._push_loop(stmt.node_id)
        trips = 0
        try:
            while True:
                try:
                    self.exec_stmt(stmt.body)
                except _Continue as sig:
                    sig.__traceback__ = None
                except _Break as sig:
                    sig.__traceback__ = None
                    trips += 1
                    break
                trips += 1
                counter.branches += 1
                if not truthy(self.eval_expr(stmt.cond)):
                    break
        finally:
            self._pop_loop(stmt.node_id, counter, trips)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def eval_expr(self, expr: Expr) -> Value:
        self._step()
        kind = type(expr)
        if kind is IntLit:
            return expr.value
        if kind is FloatLit:
            return expr.value
        if kind is Ident:
            return self._lookup(expr.name)
        if kind is BinaryOp:
            return self._eval_binary(expr)
        if kind is Index:
            return self._eval_load(expr)
        if kind is Assign:
            return self._eval_assign(expr)
        if kind is Call:
            return self._eval_call(expr)
        if kind is UnaryOp:
            return self._eval_unary(expr)
        if kind is Ternary:
            self.counter_stack[-1].branches += 1
            if truthy(self.eval_expr(expr.cond)):
                return self.eval_expr(expr.then)
            return self.eval_expr(expr.els)
        if kind is Cast:
            return self._convert(self.eval_expr(expr.expr), expr.ctype)
        if kind is BoolLit:
            return 1 if expr.value else 0
        if kind is StringLit:
            return expr.value
        raise RuntimeFault(f"cannot evaluate {kind.__name__}")

    # -- arithmetic -------------------------------------------------------
    def _eval_binary(self, expr: BinaryOp) -> Value:
        op = expr.op
        if op == "&&":
            self.counter_stack[-1].branches += 1
            if not truthy(self.eval_expr(expr.lhs)):
                return 0
            return 1 if truthy(self.eval_expr(expr.rhs)) else 0
        if op == "||":
            self.counter_stack[-1].branches += 1
            if truthy(self.eval_expr(expr.lhs)):
                return 1
            return 1 if truthy(self.eval_expr(expr.rhs)) else 0
        if op == ",":
            self.eval_expr(expr.lhs)
            return self.eval_expr(expr.rhs)

        lhs = self.eval_expr(expr.lhs)
        rhs = self.eval_expr(expr.rhs)
        return self._apply_binary(op, lhs, rhs)

    def _apply_binary(self, op: str, lhs: Value, rhs: Value) -> Value:
        counter = self.counter_stack[-1]
        # pointer arithmetic
        if isinstance(lhs, (PointerValue, ArrayValue)) or isinstance(
                rhs, (PointerValue, ArrayValue)):
            return self._pointer_arith(op, lhs, rhs)

        is_float = isinstance(lhs, float) or isinstance(rhs, float)
        if op == "+":
            counter.flops += 1 if is_float else 0
            counter.int_ops += 0 if is_float else 1
            return lhs + rhs
        if op == "-":
            counter.flops += 1 if is_float else 0
            counter.int_ops += 0 if is_float else 1
            return lhs - rhs
        if op == "*":
            counter.flops += 1 if is_float else 0
            counter.int_ops += 0 if is_float else 1
            return lhs * rhs
        if op == "/":
            if is_float:
                counter.flops += DIV_FLOP_COST
                if rhs == 0:
                    return math.inf if lhs > 0 else (-math.inf if lhs < 0 else math.nan)
                return lhs / rhs
            counter.int_ops += 1
            return _c_int_div(lhs, rhs)
        if op == "%":
            counter.int_ops += 1
            if is_float:
                raise RuntimeFault("'%' requires integer operands")
            return _c_int_mod(lhs, rhs)
        if op in ("<", ">", "<=", ">=", "==", "!="):
            if is_float:
                counter.flops += 1
            else:
                counter.int_ops += 1
            result = {"<": lhs < rhs, ">": lhs > rhs, "<=": lhs <= rhs,
                      ">=": lhs >= rhs, "==": lhs == rhs, "!=": lhs != rhs}[op]
            return 1 if result else 0
        if op in ("&", "|", "^", "<<", ">>"):
            counter.int_ops += 1
            if isinstance(lhs, float) or isinstance(rhs, float):
                raise RuntimeFault(f"bitwise {op!r} requires integers")
            return {"&": lhs & rhs, "|": lhs | rhs, "^": lhs ^ rhs,
                    "<<": lhs << rhs, ">>": lhs >> rhs}[op]
        raise RuntimeFault(f"unsupported binary operator {op!r}")

    def _pointer_arith(self, op: str, lhs: Value, rhs: Value) -> Value:
        if isinstance(lhs, ArrayValue):
            lhs = PointerValue(lhs, 0)
        if isinstance(rhs, ArrayValue):
            rhs = PointerValue(rhs, 0)
        self.counter_stack[-1].int_ops += 1
        if op == "+" and isinstance(lhs, PointerValue) and isinstance(rhs, int):
            return lhs.add(rhs)
        if op == "+" and isinstance(rhs, PointerValue) and isinstance(lhs, int):
            return rhs.add(lhs)
        if op == "-" and isinstance(lhs, PointerValue) and isinstance(rhs, int):
            return lhs.add(-rhs)
        if (op == "-" and isinstance(lhs, PointerValue)
                and isinstance(rhs, PointerValue)):
            if lhs.array is not rhs.array:
                raise RuntimeFault("subtracting pointers into different buffers")
            return lhs.offset - rhs.offset
        if op in ("==", "!=") and isinstance(lhs, PointerValue) \
                and isinstance(rhs, PointerValue):
            same = lhs.array is rhs.array and lhs.offset == rhs.offset
            return int(same if op == "==" else not same)
        raise RuntimeFault(f"unsupported pointer operation {op!r}")

    def _eval_unary(self, expr: UnaryOp) -> Value:
        op = expr.op
        counter = self.counter_stack[-1]
        if op in ("++", "--"):
            return self._eval_incdec(expr)
        if op == "*":
            ptr = self.eval_expr(expr.operand)
            if isinstance(ptr, ArrayValue):
                ptr = PointerValue(ptr, 0)
            if not isinstance(ptr, PointerValue):
                raise RuntimeFault("dereferencing a non-pointer")
            return self._load_ptr(ptr, 0)
        if op == "&":
            operand = expr.operand
            if isinstance(operand, Index):
                base, index = self._resolve_index(operand)
                return base.add(index)
            if isinstance(operand, Ident):
                value = self._lookup(operand.name)
                if isinstance(value, ArrayValue):
                    return PointerValue(value, 0)
            raise RuntimeFault("'&' is only supported on array elements")
        value = self.eval_expr(expr.operand)
        if op == "-":
            if isinstance(value, float):
                counter.flops += 1
            else:
                counter.int_ops += 1
            return -value
        if op == "!":
            counter.int_ops += 1
            return 0 if truthy(value) else 1
        if op == "~":
            counter.int_ops += 1
            return ~value
        raise RuntimeFault(f"unsupported unary operator {op!r}")

    def _eval_incdec(self, expr: UnaryOp) -> Value:
        delta = 1 if expr.op == "++" else -1
        target = expr.operand
        self.counter_stack[-1].int_ops += 1
        if isinstance(target, Ident):
            old = self._lookup(target.name)
            if isinstance(old, PointerValue):
                new: Value = old.add(delta)
            else:
                new = old + delta
            self._assign_name(target.name, new)
            return old if not expr.prefix else new
        if isinstance(target, Index):
            base, index = self._resolve_index(target)
            old = self._load_ptr(base, index)
            new = old + delta
            self._store_ptr(base, index, new)
            return old if not expr.prefix else new
        raise RuntimeFault("++/-- target must be a variable or element")

    # -- memory ------------------------------------------------------------
    def _resolve_index(self, expr: Index) -> Tuple[PointerValue, int]:
        base = self.eval_expr(expr.base)
        if isinstance(base, ArrayValue):
            base = PointerValue(base, 0)
        if not isinstance(base, PointerValue):
            raise RuntimeFault("subscript on a non-pointer value")
        index = self.eval_expr(expr.index)
        if not isinstance(index, int):
            raise RuntimeFault("array index must be an integer")
        return base, index

    def _record_access(self, array: ArrayValue, write: bool) -> None:
        array_id = array.array_id
        for records in self.frame_arrays:
            rec = records.get(array_id)
            if rec is not None:
                if write:
                    rec.writes += 1
                else:
                    rec.reads += 1
                    if rec.writes == 0:
                        rec.read_before_write = True

    def _load_ptr(self, ptr: PointerValue, index: int) -> Value:
        arr = ptr.array
        counter = self.counter_stack[-1]
        counter.mem_reads += 1
        if not arr.is_local:
            counter.bytes_read += arr.elem_size
            if self.frame_arrays:
                self._record_access(arr, write=False)
        k = ptr.offset + index
        if k >= 0:               # a negative offset would wrap around
            try:
                return arr.data[k]
            except IndexError:
                pass
        raise RuntimeFault(f"out-of-bounds read at {arr.name or 'buffer'}"
                           f"[{k}] (size {len(arr)})")

    def _store_ptr(self, ptr: PointerValue, index: int, value: Value) -> Value:
        counter = self.counter_stack[-1]
        counter.mem_writes += 1
        if not ptr.array.is_local:
            counter.bytes_written += ptr.array.elem_size
            if self.frame_arrays:
                self._record_access(ptr.array, write=True)
        if ptr.offset + index < 0:
            raise RuntimeFault("negative buffer offset")
        try:
            return ptr.store(index, value)
        except IndexError:
            raise RuntimeFault(
                f"out-of-bounds write at {ptr.array.name or 'buffer'}"
                f"[{ptr.offset + index}] (size {len(ptr.array)})") from None

    def _eval_load(self, expr: Index) -> Value:
        base, index = self._resolve_index(expr)
        return self._load_ptr(base, index)

    def _eval_assign(self, expr: Assign) -> Value:
        target = expr.target
        if isinstance(target, Index):
            base, index = self._resolve_index(target)
            if expr.op == "=":
                value = self.eval_expr(expr.value)
            else:
                old = self._load_ptr(base, index)
                rhs = self.eval_expr(expr.value)
                value = self._apply_binary(expr.op[0], old, rhs)
            return self._store_ptr(base, index, value)
        if isinstance(target, Ident):
            if expr.op == "=":
                value = self.eval_expr(expr.value)
            else:
                old = self._lookup(target.name)
                rhs = self.eval_expr(expr.value)
                value = self._apply_binary(expr.op[0], old, rhs)
            # preserve the declared storage class of the current value
            current = self._lookup(target.name)
            if isinstance(current, float) and isinstance(value, int):
                value = float(value)
            elif isinstance(current, int) and not isinstance(current, bool) \
                    and isinstance(value, float):
                value = _trunc(value)
            self._assign_name(target.name, value)
            return value
        if isinstance(target, UnaryOp) and target.op == "*":
            ptr = self.eval_expr(target.operand)
            if isinstance(ptr, ArrayValue):
                ptr = PointerValue(ptr, 0)
            if not isinstance(ptr, PointerValue):
                raise RuntimeFault("assignment through a non-pointer")
            if expr.op == "=":
                value = self.eval_expr(expr.value)
            else:
                old = self._load_ptr(ptr, 0)
                rhs = self.eval_expr(expr.value)
                value = self._apply_binary(expr.op[0], old, rhs)
            return self._store_ptr(ptr, 0, value)
        raise RuntimeFault("unsupported assignment target")

    # -- calls ---------------------------------------------------------------
    def _eval_call(self, expr: Call) -> Value:
        name = expr.name
        fn = self.functions.get(name)
        if fn is not None:
            args = [self.eval_expr(a) for a in expr.args]
            return self.call_function(fn, args)
        if is_builtin(name):
            return self._eval_builtin(name, expr)
        raise RuntimeFault(f"call to unknown function {name!r}")

    def _eval_builtin(self, name: str, expr: Call) -> Value:
        counter = self.counter_stack[-1]
        spec = MATH_BUILTINS.get(name)
        if spec is not None:
            args = [self.eval_expr(a) for a in expr.args]
            counter.builtin_flops += spec.flop_cost
            result = spec.fn(*args)
            return float(result)

        if name in SCALAR_WS_BUILTINS:
            key = self._string_arg(expr, 0, name)
            value = self.workload.scalar(key)
            return int(value) if name == "ws_int" else float(value)

        elem_type = ARRAY_BUILTIN_TYPES.get(name)
        if elem_type is not None:
            key = self._string_arg(expr, 0, name)
            size = self.eval_expr(expr.args[1])
            if not isinstance(size, int):
                raise RuntimeFault(f"{name}() size must be an integer")
            return PointerValue(self.workload.buffer(key, size, elem_type), 0)

        if name == "rand01":
            counter.flops += 2
            return self.rng.next01()
        if name == "timer_start":
            key = self._string_arg(expr, 0, name)
            self._timer_starts[key] = self._clock()
            return 0
        if name == "timer_stop":
            key = self._string_arg(expr, 0, name)
            start = self._timer_starts.pop(key, None)
            if start is None:
                raise RuntimeFault(f"timer_stop({key!r}) without timer_start")
            elapsed = self._clock() - start
            self.report.timers[key] = self.report.timers.get(key, 0.0) + elapsed
            return 0
        if name == "printf":
            return self._eval_printf(expr)
        raise RuntimeFault(f"unhandled builtin {name!r}")

    def _string_arg(self, expr: Call, pos: int, name: str) -> str:
        if pos >= len(expr.args) or not isinstance(expr.args[pos], StringLit):
            raise RuntimeFault(
                f"{name}() argument {pos} must be a string literal")
        return expr.args[pos].value

    def _eval_printf(self, expr: Call) -> Value:
        if not expr.args or not isinstance(expr.args[0], StringLit):
            raise RuntimeFault("printf() needs a literal format string")
        fmt = expr.args[0].value.replace("\\n", "\n").replace("\\t", "\t")
        args = [self.eval_expr(a) for a in expr.args[1:]]
        try:
            text = fmt % tuple(args) if args else fmt
        except (TypeError, ValueError) as exc:
            raise RuntimeFault(f"printf format error: {exc}") from None
        self.report.stdout.append(text)
        return len(text)

    # -- conversions ------------------------------------------------------------
    def _convert(self, value: Value, ctype: CType) -> Value:
        if ctype.is_pointer:
            if isinstance(value, ArrayValue):
                return PointerValue(value, 0)
            if isinstance(value, PointerValue) or value is None:
                return value
            raise RuntimeFault(f"cannot convert {value!r} to {ctype}")
        if not isinstance(value, (int, float, bool)):
            raise RuntimeFault(f"cannot convert {value!r} to {ctype}")
        if ctype.is_floating:
            return float(value)
        if ctype.base == "bool":
            return 1 if value else 0
        return _trunc(value)


def _trunc(value: Union[int, float]) -> int:
    """C float->int conversion: truncate toward zero."""
    if isinstance(value, int):
        return value
    if math.isnan(value) or math.isinf(value):
        raise RuntimeFault(f"cannot convert {value} to int")
    return int(value)
