"""UHL -> Python source compiler.

Lowers a :class:`~repro.meta.ast_nodes.TranslationUnit` to the text of
one Python function per UHL function, compiled once per unit with
``compile()``/``exec``.  All dispatch (node kind, operator, scope
resolution, static type classification) happens while the text is
generated: frame slots become Python locals, loops become ``while``
loops and element accesses are inlined with their bounds checks.

Profiler accounting is batched per *region*: a straight-line stretch of
code whose static event cost (flops, int ops, branches, builtin flops,
memory accesses) is known when the text is generated.  Each region
counts its executions in a local int; a flush multiplies the counts by
the regions' cost vectors and adds them to the live :class:`Counter`.
Flushes happen on loop exit, on return, and before anything reads the
virtual clock (a timer builtin, or a call into a function that can
reach one).  Bytes moved are summed in per-loop locals; access records,
pointer-arithmetic ops and calls are counted where they happen.

The compiled engine is observationally identical to the interpreter for
every well-typed program: same ExecReport counters, timers, loop
profiles, trip counts, pointer events, stdout and return value.  Two
escape hatches preserve identity for the rest:

- :class:`CompileUnsupported` (compile time): a construct the compiler
  does not model (malformed builtin call shapes, assignment to an array
  name) -- the caller runs the interpreter instead.
- :class:`CompiledBailout` (run time): a value whose runtime type breaks
  the static kind assumptions (e.g. an ``int*`` passed to a ``double*``
  parameter) -- the caller discards the partial run and re-executes the
  same workload under the interpreter.

A compiled program holds no per-run state: every run gets its own
:class:`_Rt`, so concurrent runs of one program stay independent.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.lang.builtins import (
    ARRAY_BUILTIN_TYPES, LCG, MATH_BUILTINS, SCALAR_WS_BUILTINS, is_builtin,
)
from repro.lang.interpreter import (
    DIV_FLOP_COST, ExecLimitExceeded, RuntimeFault, Workload,
    _c_int_div, _c_int_mod, _trunc,
)
from repro.lang.profiler import (
    ArrayAccessRecord, Counter, ExecReport, PointerArgEvent,
)
from repro.lang.values import ArrayValue, PointerValue, truthy
from repro.meta.ast_nodes import (
    Assign, BinaryOp, BoolLit, BreakStmt, Call, Cast, Comment, CompoundStmt,
    ContinueStmt, CType, DeclStmt, DoWhileStmt, ExprStmt, FloatLit, ForStmt,
    FunctionDecl, Ident, IfStmt, Index, IntLit, NullStmt, RawStmt, ReturnStmt,
    StringLit, Ternary, TranslationUnit, UnaryOp, WhileStmt,
)

DEFAULT_MAX_STEPS = 200_000_000
_MAX_EVENTS = 10_000


class CompileUnsupported(Exception):
    """The unit uses a construct the compiler does not model."""


class CompiledBailout(Exception):
    """A runtime value broke the compiler's static kind assumptions."""


# -------------------------------------------------------------------------
# Static kinds: compile-time classification of every expression's value.
# -------------------------------------------------------------------------
K_UNKNOWN, K_INT, K_FLOAT, K_STR, K_PTR_U, K_PTR_I, K_PTR_F = range(7)
_PTR_KINDS = (K_PTR_U, K_PTR_I, K_PTR_F)
_NUM_KINDS = (K_INT, K_FLOAT)


def _kind_of_ctype(ctype: CType) -> int:
    if ctype.is_pointer:
        if ctype.pointers > 1 or ctype.base == "void":
            return K_PTR_U
        return K_PTR_F if ctype.element_type().is_floating else K_PTR_I
    if ctype.is_floating:
        return K_FLOAT
    return K_INT          # int / long / bool


def _elem_kind(ptr_kind: int) -> int:
    if ptr_kind == K_PTR_F:
        return K_FLOAT
    if ptr_kind == K_PTR_I:
        return K_INT
    return K_UNKNOWN


def _decl_kind(var) -> int:
    if var.is_array:
        if var.ctype.is_pointer:
            return K_PTR_U
        return K_PTR_F if var.ctype.is_floating else K_PTR_I
    return _kind_of_ctype(var.ctype)


def _want_float(kind: int) -> Optional[bool]:
    """Element category a pointer kind promises (None: no promise)."""
    if kind == K_PTR_F:
        return True
    if kind == K_PTR_I:
        return False
    return None


# Static cost vector components and the Counter fields they flush into.
F, I, B, BF, MR, MW = range(6)
_COST_ATTRS = ("flops", "int_ops", "branches", "builtin_flops",
               "mem_reads", "mem_writes")
_SETTLE_ATTRS = _COST_ATTRS + ("bytes_read", "bytes_written")


# -------------------------------------------------------------------------
# Runtime state (one per program run).
# -------------------------------------------------------------------------
class _Rt:
    """Mutable run state handed to every generated function."""

    __slots__ = ("workload", "report", "rng", "counter_stack", "live",
                 "timer_starts", "globals", "steps", "max_steps")

    def __init__(self, workload: Workload, max_steps: int, nglobals: int):
        self.workload = workload
        self.report = ExecReport()
        self.rng = LCG(workload.seed)
        self.counter_stack = [self.report.global_counter]
        # array id -> access tally, for buffers some live frame received
        # through a pointer parameter (see _enter_ptrs)
        self.live: Dict[int, list] = {}
        self.timer_starts: Dict[str, float] = {}
        self.globals: List[object] = [None] * nglobals
        self.steps = 0
        self.max_steps = max_steps


# -------------------------------------------------------------------------
# Runtime helpers called by generated code.  They mirror the
# interpreter's semantics and fault messages exactly.
# -------------------------------------------------------------------------
def _steps_exc(rt: _Rt) -> ExecLimitExceeded:
    return ExecLimitExceeded(f"exceeded {rt.max_steps} interpreter steps")


def _oob_read(arr: ArrayValue, k: int):
    raise RuntimeFault(f"out-of-bounds read at {arr.name or 'buffer'}"
                       f"[{k}] (size {len(arr)})")


def _oob_write(arr: ArrayValue, k: int):
    if k < 0:
        raise RuntimeFault("negative buffer offset")
    raise RuntimeFault(f"out-of-bounds write at {arr.name or 'buffer'}"
                       f"[{k}] (size {len(arr)})")


def _as_ptr(base) -> PointerValue:
    if isinstance(base, ArrayValue):
        return PointerValue(base, 0)
    raise RuntimeFault("subscript on a non-pointer value")


def _deref_ptr(value) -> PointerValue:
    if isinstance(value, ArrayValue):
        return PointerValue(value, 0)
    if not isinstance(value, PointerValue):
        raise RuntimeFault("dereferencing a non-pointer")
    return value


def _store_ptr(value) -> PointerValue:
    if isinstance(value, ArrayValue):
        return PointerValue(value, 0)
    if not isinstance(value, PointerValue):
        raise RuntimeFault("assignment through a non-pointer")
    return value


def _int_index(idx):
    if not isinstance(idx, int):
        raise RuntimeFault("array index must be an integer")
    return idx


def _first_access(t: list, is_read: bool) -> None:
    """Classify the records of frames that have not touched the buffer
    yet: the first access decides ``read_before_write``."""
    if is_read:
        for rec in t[2]:
            rec.read_before_write = True
    t[2] = []


def _tally_read(live, arr: ArrayValue) -> None:
    t = live.get(arr.array_id)
    if t is not None:
        t[0] += 1
        if t[2]:
            _first_access(t, True)


def _tally_write(live, arr: ArrayValue) -> None:
    t = live.get(arr.array_id)
    if t is not None:
        t[1] += 1
        if t[2]:
            _first_access(t, False)


def _enter_ptrs(rt: _Rt, fn_name: str, params) -> list:
    """Register one call's pointer arguments: access records for the
    data-movement analysis and a pointer event for the alias analysis.

    ``params`` holds ``(name, pointer)`` pairs.  Accesses to non-local
    buffers are tallied per buffer in ``rt.live`` -- O(1) per access at
    any call depth -- and each record takes the difference between the
    tally at entry and at exit.  ``read_before_write`` holds exactly
    when the first access to the buffer after entry is a read."""
    records: Dict[int, tuple] = {}
    ptr_args = []
    for pname, ptr in params:
        arr = ptr.array
        records[arr.array_id] = (ArrayAccessRecord(
            pname, ptr.extent() * arr.elem_size, arr.elem_size), arr)
        ptr_args.append((pname, arr.array_id, ptr.offset, ptr.extent()))
    if len(rt.report.pointer_events) < _MAX_EVENTS:
        rt.report.pointer_events.append(PointerArgEvent(fn_name, ptr_args))
    live = rt.live
    frame = []
    for array_id, (rec, arr) in records.items():
        if arr.is_local:
            frame.append((rec, None, array_id, 0, 0))
            continue
        t = live.get(array_id)
        if t is None:
            t = live[array_id] = [0, 0, [], 0]
        t[2].append(rec)
        t[3] += 1
        frame.append((rec, t, array_id, t[0], t[1]))
    return frame


def _exit_ptrs(rt: _Rt, fn_name: str, frame: list) -> None:
    merged = rt.report.fn_array_access.setdefault(fn_name, {})
    for rec, t, array_id, r0, w0 in frame:
        if t is not None:
            rec.reads = t[0] - r0
            rec.writes = t[1] - w0
            if t[2]:
                t[2] = [r for r in t[2] if r is not rec]
            t[3] -= 1
            if not t[3]:
                del rt.live[array_id]
        into = merged.get(rec.name)
        if into is None:
            merged[rec.name] = rec
        else:
            into.reads += rec.reads
            into.writes += rec.writes
            into.read_before_write |= rec.read_before_write
            into.nbytes = max(into.nbytes, rec.nbytes)


def _ptr_param(fn_name: str, pname: str, arg, want: Optional[bool]):
    """A pointer argument and its shadows (see :func:`_shadow`)."""
    if isinstance(arg, ArrayValue):
        arg = PointerValue(arg, 0)
    if isinstance(arg, PointerValue):
        arr = arg.array
        if want is not None and arr.is_float is not want:
            raise CompiledBailout(
                f"{fn_name}(): pointer element category mismatch "
                f"for param {pname!r}")
        return arg, arr, arr.data, arg.offset, len(arr.data), arr.dram
    raise RuntimeFault(
        f"{fn_name}(): passing scalar to pointer param {pname!r}")


def _scalar_param(fn_name: str, pname: str, arg, ctype: CType):
    if isinstance(arg, (PointerValue, ArrayValue)):
        raise RuntimeFault(
            f"{fn_name}(): passing pointer to scalar param {pname!r}")
    return _convert_val(arg, ctype)


def _convert_val(value, ctype: CType):
    """Replica of ``Interpreter._convert`` (declared-type conversion)."""
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


def _checked_ptr(value, want: Optional[bool]):
    """A value entering a pointer-kinded slot: its buffer must have the
    element category the static kind promises (None passes)."""
    arr = value.array if isinstance(value, PointerValue) else value
    if isinstance(arr, ArrayValue):
        if want is not None and arr.is_float is not want:
            raise CompiledBailout(
                f"pointer element category mismatch: {value!r}")
    elif value is not None:
        raise CompiledBailout(f"non-pointer value in pointer slot: {value!r}")
    return value


def _init_ptr(value, name: str, want: Optional[bool]):
    if isinstance(value, ArrayValue):
        value = PointerValue(value, 0)
    if not isinstance(value, PointerValue):
        raise RuntimeFault(f"initialising pointer {name!r} with non-pointer")
    return _checked_ptr(value, want)


def _float_slot(v):
    t = type(v)
    if t is float:
        return v
    if t is int:
        return float(v)
    raise CompiledBailout(f"non-numeric value in float slot: {v!r}")


def _int_slot(v):
    if isinstance(v, int):      # includes bool
        return v
    if isinstance(v, float):
        return _trunc(v)
    raise CompiledBailout(f"non-numeric value in int slot: {v!r}")


def _kind_value(v, kind: int):
    """A value returned where the static kind promises ``kind``."""
    if kind == K_FLOAT:
        ok = type(v) is float
    elif kind == K_INT:
        ok = type(v) is int
    else:
        ok = v is None or isinstance(v, (PointerValue, ArrayValue))
    if not ok:
        raise CompiledBailout(f"return value {v!r} breaks its static kind")
    return v


def _fdiv_zero(lhs):
    return math.inf if lhs > 0 else (-math.inf if lhs < 0 else math.nan)


def _pointer_arith(c: Counter, op: str, lhs, rhs):
    if isinstance(lhs, ArrayValue):
        lhs = PointerValue(lhs, 0)
    if isinstance(rhs, ArrayValue):
        rhs = PointerValue(rhs, 0)
    c.int_ops += 1
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


def _binary_rt(c: Counter, op: str, lhs, rhs):
    """Dynamic binary op for operands of unknown kind: a replica of
    ``Interpreter._apply_binary`` charging ``c`` as it runs."""
    if isinstance(lhs, (PointerValue, ArrayValue)) or isinstance(
            rhs, (PointerValue, ArrayValue)):
        return _pointer_arith(c, op, lhs, rhs)
    is_float = isinstance(lhs, float) or isinstance(rhs, float)
    if op in ("+", "-", "*"):
        if is_float:
            c.flops += 1
        else:
            c.int_ops += 1
        if op == "+":
            return lhs + rhs
        return lhs - rhs if op == "-" else lhs * rhs
    if op == "/":
        if is_float:
            c.flops += DIV_FLOP_COST
            if rhs == 0:
                return _fdiv_zero(lhs)
            return lhs / rhs
        c.int_ops += 1
        return _c_int_div(lhs, rhs)
    if op == "%":
        c.int_ops += 1
        if is_float:
            raise RuntimeFault("'%' requires integer operands")
        return _c_int_mod(lhs, rhs)
    if op in BinaryOp.COMPARE:
        if is_float:
            c.flops += 1
        else:
            c.int_ops += 1
        result = {"<": lhs < rhs, ">": lhs > rhs, "<=": lhs <= rhs,
                  ">=": lhs >= rhs, "==": lhs == rhs, "!=": lhs != rhs}[op]
        return 1 if result else 0
    if op in BinaryOp.BITWISE:
        c.int_ops += 1
        if is_float:
            raise RuntimeFault(f"bitwise {op!r} requires integers")
        return {"&": lhs & rhs, "|": lhs | rhs, "^": lhs ^ rhs,
                "<<": lhs << rhs, ">>": lhs >> rhs}[op]
    raise RuntimeFault(f"unsupported binary operator {op!r}")


def _neg_rt(c: Counter, value):
    if isinstance(value, float):
        c.flops += 1
    else:
        c.int_ops += 1
    return -value


def _incdec_rt(old, delta: int):
    if isinstance(old, PointerValue):
        return old.add(delta)
    return old + delta


def _address_of(value):
    if isinstance(value, ArrayValue):
        return PointerValue(value, 0)
    raise RuntimeFault("'&' is only supported on array elements")


def _new_array(size, ctype: CType, name: str) -> ArrayValue:
    if not isinstance(size, int):
        raise RuntimeFault(f"array {name!r} size must be an integer")
    return ArrayValue(size, ctype, name, is_local=True)


def _ws_buffer(rt: _Rt, name: str, key: str, size, elem_type: CType):
    if not isinstance(size, int):
        raise RuntimeFault(f"{name}() size must be an integer")
    return PointerValue(rt.workload.buffer(key, size, elem_type), 0)


def _clock(rt: _Rt) -> float:
    return sum(c.cycles() for c in rt.counter_stack)


def _timer_stop(rt: _Rt, key: str) -> int:
    start = rt.timer_starts.pop(key, None)
    if start is None:
        raise RuntimeFault(f"timer_stop({key!r}) without timer_start")
    elapsed = _clock(rt) - start
    rt.report.timers[key] = rt.report.timers.get(key, 0.0) + elapsed
    return 0


def _printf(rt: _Rt, fmt: str, vals: tuple) -> int:
    try:
        text = fmt % vals if vals else fmt
    except (TypeError, ValueError) as exc:
        raise RuntimeFault(f"printf format error: {exc}") from None
    rt.report.stdout.append(text)
    return len(text)


def _loop_done(rt: _Rt, node_id: int, trips: int, c: Counter) -> None:
    prof = rt.report.loop(node_id)
    prof.entries += 1
    prof.trip_counts.append(trips)
    prof.inclusive.add(c)


def _settle(prof, entries: int, c, parent, counts: tuple, costs: tuple):
    """Fold a deferred loop's counts into ``c`` (created if None), then
    ``c`` into the loop profile and the enclosing Counter ``parent``
    (created if None), which is returned."""
    if c is None:
        c = Counter()
    for count, cost in zip(counts, costs):
        if count:
            for attr, weight in zip(_SETTLE_ATTRS, cost):
                if weight:
                    setattr(c, attr, getattr(c, attr) + weight * count)
    if parent is None:
        parent = Counter()
    parent.add(c)
    prof.inclusive.add(c)
    prof.entries += entries
    return parent


def _shadow(value):
    """(buffer, data, offset, length, DRAM bytes) of a pointer slot's
    value; buffer None when it holds no pointer."""
    if value.__class__ is PointerValue:
        arr = value.array
        return arr, arr.data, value.offset, len(arr.data), arr.dram
    if isinstance(value, ArrayValue):
        return value, value.data, 0, len(value.data), value.dram
    return None, None, 0, 0, 0


def _fault(message: str):
    raise RuntimeFault(message)


# -------------------------------------------------------------------------
# Code generation.
# -------------------------------------------------------------------------
class _Ex:
    """A generated expression: Python text plus what the generator must
    know to keep evaluation order.  ``simple`` text (a literal or a
    temporary) never changes value; otherwise ``deps`` names the locals
    (``"G"`` for globals) it reads and ``effect`` says it may fault or
    have side effects."""

    __slots__ = ("code", "kind", "simple", "deps", "effect")

    def __init__(self, code: str, kind: int, simple: bool = False,
                 deps=frozenset(), effect: bool = False):
        self.code = code
        self.kind = kind
        self.simple = simple
        self.deps = deps
        self.effect = effect


_NONE = _Ex("None", K_UNKNOWN, simple=True)
#: longer operand text goes to a temporary, so long expression chains
#: stay within Python's parser nesting limits
_MAX_INLINE = 160
_ZERO = _Ex("0", K_INT, simple=True)


def _float_text(v: float) -> str:
    if math.isfinite(v):
        return repr(v)
    return "1e999" if v > 0 else ("-1e999" if v < 0 else "(1e999 - 1e999)")


class _Region:
    """Straight-line code with a static cost vector and a run counter."""

    __slots__ = ("name", "cost")

    def __init__(self, name: str):
        self.name = name
        self.cost = [0, 0, 0, 0, 0, 0]


class _Level:
    """One Counter's worth of code: the function body or one loop.

    A loop whose body cannot read the virtual clock is *deferred*: it
    gets no Counter per entry.  Its regions count across all entries,
    each exit only records the trip count, and a *settle* -- on return,
    on exit of the enclosing clock-reading loop, or before a clock
    read -- folds the accumulated counts into the loop profile and the
    enclosing Counter in one go.  Sums commute, so the totals match the
    per-entry accounting the interpreter does; nothing can observe the
    counters in between.  A loop that can read the clock is *eager*: a
    fresh Counter on the stack per entry, flushed on exit."""

    __slots__ = ("serial", "var", "parent", "node_id", "regions",
                 "uses_bytes", "deferred", "needs_counter")

    def __init__(self, serial: int, parent: Optional["_Level"],
                 node_id: Optional[int]):
        self.serial = serial
        self.var = f"c{serial}" if parent is not None else "c0"
        self.parent = parent
        self.node_id = node_id
        self.regions: List[_Region] = []
        self.uses_bytes = False
        self.deferred = False
        # a Counter object must exist while the level runs (callees and
        # dynamic operations charge it directly)
        self.needs_counter = parent is None

    @property
    def bytes(self) -> tuple:
        return (f"br{self.serial}", f"bw{self.serial}")

    def within(self, scope: Optional["_Level"]) -> bool:
        level = self.parent
        while level is not None:
            if level is scope:
                return True
            level = level.parent
        return scope is None


class _Inc:
    __slots__ = ("region",)

    def __init__(self, region):
        self.region = region


class _Init:
    """Zero a level's counts (for level 0: every deferred loop's too)."""

    __slots__ = ("level",)

    def __init__(self, level):
        self.level = level


class _Flush:
    __slots__ = ("levels", "reset")

    def __init__(self, levels, reset: bool):
        self.levels = tuple(levels)
        self.reset = reset


class _LoopEntry:
    __slots__ = ("level",)

    def __init__(self, level):
        self.level = level


class _LoopExit:
    __slots__ = ("level", "trips")

    def __init__(self, level, trips: str):
        self.level = level
        self.trips = trips


class _Settle:
    """Settle the deferred loops nested in ``scope`` (None: all)."""

    __slots__ = ("scope",)

    def __init__(self, scope):
        self.scope = scope


class _Var:
    """A UHL variable.  Local arrays and local pointers are *shadowed*:
    Python locals ``<code>a/d/n/o/b`` cache the buffer, its data list,
    length, the offset and the DRAM bytes per element, refreshed on
    every store, so element accesses need no attribute lookups."""

    __slots__ = ("code", "kind", "is_array", "ctype", "deps", "shadow",
                 "nonnull", "tally")

    def __init__(self, code: str, kind: int, is_array: bool, ctype: CType,
                 deps, shadow: bool = False):
        self.code = code
        self.kind = kind
        self.is_array = is_array
        self.ctype = ctype
        self.deps = deps
        self.shadow = shadow
        # holds a PointerValue for its whole life: initialised with one
        # and never assigned again
        self.nonnull = False
        # an unassigned pointer parameter: its buffer's access tally
        # lives as long as the frame, so ``<code>t`` caches it
        self.tally = False


class _Addr:
    """Where an element access goes: Python text for the buffer, its
    data list, length, offset, DRAM bytes per element (None for local
    arrays, which move none) and the element offset ``k``."""

    __slots__ = ("a", "d", "n", "o", "b", "kind", "k", "checked", "t")

    def __init__(self, a, d, n, o, b, kind, t=None):
        self.a, self.d, self.n, self.o, self.b = a, d, n, o, b
        self.kind = kind
        self.k = None
        self.checked = False
        self.t = t          # the buffer's access tally, when hoisted


class _Gen:
    """Generates the text of one Python function."""

    def __init__(self, comp: "_Compiler", fn_name: str):
        self.comp = comp
        self.fn_name = fn_name
        self.lines: list = []
        self.ind = 1
        self.scopes: List[Dict[str, _Var]] = []
        self.ntmp = 0
        self.nvar = 0
        self.nserial = 0
        self.levels: List[_Level] = []
        self.all_levels: List[_Level] = []
        self.region: Optional[_Region] = None
        self.barriers = 0
        self.loops: List[_Level] = []
        self.tails: List[list] = []     # what `continue` runs per loop
        self.writes: List[str] = []
        self.ret_kinds: List[int] = []
        self.ptr_frame = False
        self.jumps = 0            # break/continue/return emitted so far
        self.returns = 0
        # names some assignment or ++/-- in this function targets
        self.assigned = comp.assigned.get(fn_name, frozenset())

    # -- emission ---------------------------------------------------------
    def emit(self, item) -> None:
        self.lines.append((self.ind, item))

    def tmp(self) -> str:
        self.ntmp += 1
        return f"t{self.ntmp}"

    def serial(self) -> int:
        self.nserial += 1
        return self.nserial

    def sub(self, fn, node) -> list:
        """``fn(node)``'s lines, generated apart at relative indent 0."""
        saved, saved_ind = self.lines, self.ind
        self.lines, self.ind = [], 0
        try:
            fn(node)
            return self.lines
        finally:
            self.lines, self.ind = saved, saved_ind

    def paste(self, lines: list) -> None:
        for ind, item in lines:
            self.lines.append((self.ind + ind, item))

    def spill(self, x: _Ex) -> _Ex:
        if x.simple:
            return x
        t = self.tmp()
        self.emit(f"{t} = {x.code}")
        return _Ex(t, x.kind, simple=True)

    def discard(self, x: _Ex) -> None:
        """Evaluate ``x`` for its effects only."""
        if x.effect:
            self.emit(x.code)

    def fault(self, message: str) -> _Ex:
        self.emit(f"_fault({message!r})")
        return _NONE

    # -- accounting -------------------------------------------------------
    def push_level(self, node_id: Optional[int] = None) -> _Level:
        parent = self.levels[-1] if self.levels else None
        level = _Level(self.serial(), parent, node_id)
        self.levels.append(level)
        self.all_levels.append(level)
        return level

    def counter(self) -> str:
        """The current level's Counter, for charges made as they run."""
        level = self.levels[-1]
        level.needs_counter = True
        return level.var

    def open_region(self) -> None:
        region = _Region(f"n{self.serial()}")
        self.levels[-1].regions.append(region)
        self.emit(_Inc(region))
        self.region = region

    def cost(self, which: int, n: int = 1) -> None:
        self.region.cost[which] += n

    def resume(self, region: _Region, barriers: int, jumps: bool) -> None:
        """Continue ``region`` after a nested construct when the code
        that follows runs exactly as often as the code before it."""
        if jumps or barriers != self.barriers:
            self.open_region()
        else:
            self.region = region

    def clock_barrier(self) -> None:
        """Flush every pending count before the virtual clock is read."""
        self.emit(_Settle(None))
        self.emit(_Flush(self.levels, reset=True))
        self.barriers += 1
        self.open_region()

    def level_bytes(self) -> tuple:
        """The current level's (bytes read, bytes written) locals."""
        level = self.levels[-1]
        level.uses_bytes = True
        return level.bytes

    # -- scopes -----------------------------------------------------------
    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, kind: int, is_array: bool,
                ctype: CType) -> _Var:
        self.nvar += 1
        code = f"v{self.nvar}"
        var = _Var(code, kind, is_array, ctype, frozenset((code,)),
                   shadow=is_array or kind in _PTR_KINDS)
        self.scopes[-1][name] = var
        return var

    def store(self, var: _Var, text: str) -> None:
        """Assign a local or global and refresh its shadows."""
        code = var.code
        self.emit(f"{code} = {text}")
        self.writes.extend(var.deps)
        if var.is_array and var.shadow:
            self.emit(f"{code}d = {code}.data")
            self.emit(f"{code}n = len({code}d)")
        elif var.shadow:
            self.emit(f"{code}a, {code}d, {code}o, {code}n, {code}b = "
                      f"_shadow({code})")

    def lookup(self, name: str) -> Optional[_Var]:
        for scope in reversed(self.scopes):
            var = scope.get(name)
            if var is not None:
                return var
        return self.comp.global_vars.get(name)

    # -- expression ordering ----------------------------------------------
    def seq(self, nodes) -> List[_Ex]:
        """Compile ``nodes`` left to right, spilling an operand to a
        temporary when later operands' statements could change it or
        fault before it is evaluated."""
        parts = []
        for node in nodes:
            saved = self.lines
            self.lines = []
            wmark = len(self.writes)
            x = self.ex(node)
            parts.append((self.lines, x, set(self.writes[wmark:])))
            self.lines = saved
        out = []
        for j, (lines, x, _) in enumerate(parts):
            self.lines.extend(lines)
            if not x.simple and (len(x.code) > _MAX_INLINE or any(
                    later and (x.effect or x.deps & written)
                    for later, _, written in parts[j + 1:])):
                x = self.spill(x)
            out.append(x)
        return out

    def truth(self, x: _Ex) -> str:
        if x.kind in _NUM_KINDS:
            return x.code
        return f"truthy({x.code})"

    def cond(self, e) -> str:
        """Python text testing ``e`` for truth."""
        if type(e) is BinaryOp and e.op in BinaryOp.COMPARE:
            lhs, rhs = self.seq((e.lhs, e.rhs))
            if lhs.kind in _NUM_KINDS and rhs.kind in _NUM_KINDS:
                self.cost(F if K_FLOAT in (lhs.kind, rhs.kind) else I)
                return f"({lhs.code} {e.op} {rhs.code})"
            return self.truth(self.binary_rt(e.op, lhs, rhs))
        return self.truth(self.ex(e))

    # -- expressions ------------------------------------------------------
    def ex(self, e, unused: bool = False) -> _Ex:
        """Compile ``e``; ``unused``: only its effects matter."""
        kind = type(e)
        if kind is IntLit:
            text = repr(e.value)
            return _Ex(text if e.value >= 0 else f"({text})", K_INT, True)
        if kind is FloatLit:
            return _Ex(f"({_float_text(e.value)})", K_FLOAT, True)
        if kind is Ident:
            return self.ident(e.name)
        if kind is BinaryOp:
            return self.binary(e)
        if kind is Index:
            return self.read(self.address(e, lazy=True))
        if kind is Assign:
            return self.assign(e)
        if kind is Call:
            return self.call(e)
        if kind is UnaryOp:
            if unused and e.op in ("++", "--"):
                return self.incdec(e, prefix=True)
            return self.unary(e)
        if kind is Ternary:
            return self.ternary(e)
        if kind is Cast:
            return self.cast(e)
        if kind is BoolLit:
            return _Ex("1" if e.value else "0", K_INT, True)
        if kind is StringLit:
            return _Ex(repr(e.value), K_STR, True)
        return self.fault(f"cannot evaluate {kind.__name__}")

    def ident(self, name: str) -> _Ex:
        var = self.lookup(name)
        if var is None:
            return self.fault(f"undefined variable {name!r}")
        return _Ex(var.code, var.kind, deps=var.deps)

    def binary(self, e: BinaryOp) -> _Ex:
        op = e.op
        if op in ("&&", "||"):
            self.cost(B)
            lhs = self.ex(e.lhs)
            t = self.tmp()
            test = self.truth(lhs)
            self.emit(f"if {'not ' if op == '&&' else ''}{test}:")
            self.ind += 1
            self.emit(f"{t} = {0 if op == '&&' else 1}")
            self.ind -= 1
            self.emit("else:")
            self.ind += 1
            saved, barriers = self.region, self.barriers
            self.open_region()
            rhs = self.ex(e.rhs)
            self.emit(f"{t} = 1 if {self.truth(rhs)} else 0")
            self.ind -= 1
            self.resume(saved, barriers, False)
            return _Ex(t, K_INT, True)
        if op == ",":
            self.discard(self.ex(e.lhs))
            return self.ex(e.rhs)
        lhs, rhs = self.seq((e.lhs, e.rhs))
        if lhs.kind in _NUM_KINDS and rhs.kind in _NUM_KINDS:
            return self.arith(op, lhs, rhs)
        return self.binary_rt(op, lhs, rhs)

    def binary_rt(self, op: str, lhs: _Ex, rhs: _Ex) -> _Ex:
        kind = K_INT if op in BinaryOp.COMPARE else K_UNKNOWN
        return _Ex(f"_binary_rt({self.counter()}, {op!r}, {lhs.code}, "
                   f"{rhs.code})", kind, effect=True)

    def arith(self, op: str, lhs: _Ex, rhs: _Ex) -> _Ex:
        """A binary op on statically numeric operands."""
        is_float = K_FLOAT in (lhs.kind, rhs.kind)
        kind = K_FLOAT if is_float else K_INT
        deps = lhs.deps | rhs.deps
        effect = lhs.effect or rhs.effect
        if op in ("+", "-", "*"):
            self.cost(F if is_float else I)
            return _Ex(f"({lhs.code} {op} {rhs.code})", kind, deps=deps,
                       effect=effect)
        if op == "/":
            if not is_float:
                self.cost(I)
                return _Ex(f"_c_int_div({lhs.code}, {rhs.code})", K_INT,
                           effect=True)
            self.cost(F, DIV_FLOP_COST)
            lhs = self.spill(lhs)
            rhs = self.spill(rhs)
            return _Ex(f"({lhs.code} / {rhs.code} if {rhs.code} else "
                       f"_fdiv_zero({lhs.code}))", K_FLOAT, True)
        if op == "%":
            self.cost(I)
            if is_float:
                self.discard(lhs)
                self.discard(rhs)
                return self.fault("'%' requires integer operands")
            return _Ex(f"_c_int_mod({lhs.code}, {rhs.code})", K_INT,
                       effect=True)
        if op in BinaryOp.COMPARE:
            self.cost(F if is_float else I)
            return _Ex(f"(1 if {lhs.code} {op} {rhs.code} else 0)", K_INT,
                       deps=deps, effect=effect)
        if op in BinaryOp.BITWISE:
            self.cost(I)
            if is_float:
                self.discard(lhs)
                self.discard(rhs)
                return self.fault(f"bitwise {op!r} requires integers")
            return _Ex(f"({lhs.code} {op} {rhs.code})", K_INT, deps=deps,
                       effect=effect or op in ("<<", ">>"))
        self.discard(lhs)
        self.discard(rhs)
        return self.fault(f"unsupported binary operator {op!r}")

    # -- memory -----------------------------------------------------------
    def address(self, target, store: bool = False,
                lazy: bool = False) -> _Addr:
        """Emit the address part of ``base[index]`` / ``*ptr`` in the
        interpreter's order: the base, its pointer check, the index.
        ``lazy``: the access follows at once, so a side-effect-free
        offset may be computed inside its bounds check."""
        if type(target) is UnaryOp:
            base, index = target.operand, None
            check = "_store_ptr" if store else "_deref_ptr"
        else:
            base, index = target.base, target.index
            check = "_as_ptr"
        var = self.lookup(base.name) if type(base) is Ident else None
        if var is not None and var.shadow:
            code = var.code
            if var.is_array:
                addr = _Addr(code, f"{code}d", f"{code}n", None, None,
                             var.kind)
            else:
                if not var.nonnull:
                    self.emit(f"if {code}a is None: {check}({code})")
                addr = _Addr(f"{code}a", f"{code}d", f"{code}n", f"{code}o",
                             f"{code}b", var.kind,
                             f"{code}t" if var.tally else None)
        else:
            ptr = self.ex(base)
            p, a = self.tmp(), self.tmp()
            self.emit(f"{p} = {ptr.code}")
            if var is not None and var.is_array:
                self.emit(f"{a} = {p}")
                addr = _Addr(a, f"{a}.data", f"len({a}.data)", None, None,
                             var.kind)
            else:
                self.emit(f"if {p}.__class__ is not PointerValue: "
                          f"{p} = {check}({p})")
                self.emit(f"{a} = {p}.array")
                addr = _Addr(a, f"{a}.data", f"len({a}.data)",
                             f"{p}.offset", f"{a}.dram", ptr.kind)
        if index is None:
            addr.k = addr.o or "0"
            return addr
        idx = self.ex(index)
        if idx.kind != K_INT:
            idx = self.spill(_Ex(f"_int_index({idx.code})", K_INT,
                                 effect=True))
        if addr.o is None and (idx.simple or (lazy and not idx.effect
                                              and idx.code.isidentifier())):
            addr.k = idx.code
        elif idx.code == "0" and addr.o.isidentifier():
            addr.k = addr.o
        else:
            addr.k = self.tmp()
            offset = f"{addr.o} + " if addr.o else ""
            if lazy and not idx.effect:
                # computed where the bounds check first reads it
                addr.k = f"({addr.k} := {offset}{idx.code})"
            else:
                self.emit(f"{addr.k} = {offset}{idx.code}")
        return addr

    def account(self, addr: _Addr, which: int) -> None:
        """Bytes and access records of one element access."""
        if addr.b is not None:
            self.emit(f"{self.level_bytes()[which]} += {addr.b}")
            if addr.t is None:
                tally = "_tally_write" if which else "_tally_read"
                self.emit(f"if live: {tally}(live, {addr.a})")
            else:
                self.emit(f"{addr.t}[{which}] += 1")
                self.emit(f"if {addr.t}[2]: _first_access({addr.t}, "
                          f"{not which})")
        self.cost(MW if which else MR)

    def read(self, addr: _Addr) -> _Ex:
        t, k = self.tmp(), addr.k
        low = "" if k.isdigit() else "0 <= "
        if k.startswith("("):               # (name := offset)
            addr.k = k[1:k.index(" ")]
        self.emit(f"{t} = {addr.d}[{addr.k}] if {low}{k} < {addr.n} "
                  f"else _oob_read({addr.a}, {addr.k})")
        addr.checked = True
        self.account(addr, 0)
        return _Ex(t, _elem_kind(addr.kind), True)

    def write(self, addr: _Addr, value: _Ex) -> _Ex:
        if value.effect:
            value = self.spill(value)
        want = _want_float(addr.kind)
        k = addr.k
        low = "" if k.isdigit() else "0 <= "
        if want is not None and value.kind == (K_FLOAT if want else K_INT):
            coerced = value
            if not addr.checked:
                self.emit(f"if not {low}{k} < {addr.n}: "
                          f"_oob_write({addr.a}, {k})")
        else:
            # the conversion may fault: check the negative offset, then
            # convert, then check the upper bound, as the interpreter does
            if not addr.checked and low:
                self.emit(f"if {k} < 0: _oob_write({addr.a}, {k})")
            if want is None:
                text = f"{addr.a}.coerce({value.code})"
            else:
                text = f"{'float' if want else 'int'}({value.code})"
            coerced = self.spill(_Ex(text, _elem_kind(addr.kind),
                                     effect=True))
            if not addr.checked:
                self.emit(f"if {k} >= {addr.n}: "
                          f"_oob_write({addr.a}, {k})")
        self.emit(f"{addr.d}[{k}] = {coerced.code}")
        self.account(addr, 1)
        return coerced

    # -- ternary / cast ---------------------------------------------------
    def ternary(self, e: Ternary) -> _Ex:
        self.cost(B)
        test = self.cond(e.cond)
        t = self.tmp()
        saved, barriers = self.region, self.barriers
        kinds = []
        for header, arm in ((f"if {test}:", e.then), ("else:", e.els)):
            self.emit(header)
            self.ind += 1
            self.open_region()
            x = self.ex(arm)
            kinds.append(x.kind)
            self.emit(f"{t} = {x.code}")
            self.ind -= 1
        self.resume(saved, barriers, False)
        return _Ex(t, kinds[0] if kinds[0] == kinds[1] else K_UNKNOWN, True)

    def cast(self, e: Cast) -> _Ex:
        x = self.ex(e.expr)
        ct = e.ctype
        kind = _kind_of_ctype(ct)
        if ct.is_pointer:
            conv = f"_convert_val({x.code}, {self.comp.const(ct)})"
            want = _want_float(kind)
            if want is not None:
                conv = f"_checked_ptr({conv}, {want})"
            return _Ex(conv, kind, effect=True)
        if ct.base != "bool":
            if ct.is_floating:
                if x.kind == K_FLOAT:
                    return x
                if x.kind == K_INT:
                    return _Ex(f"float({x.code})", K_FLOAT, deps=x.deps,
                               effect=True)
            else:
                if x.kind == K_INT:
                    return x
                if x.kind == K_FLOAT:
                    return _Ex(f"_trunc({x.code})", K_INT, effect=True)
        return _Ex(f"_convert_val({x.code}, {self.comp.const(ct)})",
                   K_INT if ct.base == "bool" else kind, effect=True)

    # -- unary ------------------------------------------------------------
    def unary(self, e: UnaryOp) -> _Ex:
        op = e.op
        if op in ("++", "--"):
            return self.incdec(e)
        if op == "*":
            return self.read(self.address(e, lazy=True))
        if op == "&":
            operand = e.operand
            if type(operand) is Index:
                addr = self.address(operand)
                return _Ex(f"PointerValue({addr.a}, {addr.k})",
                           addr.kind if addr.kind in _PTR_KINDS else K_PTR_U)
            if type(operand) is Ident:
                x = self.ident(operand.name)
                return _Ex(f"_address_of({x.code})",
                           x.kind if x.kind in _PTR_KINDS else K_PTR_U,
                           effect=True)
            return self.fault("'&' is only supported on array elements")
        x = self.ex(e.operand)
        if op == "-":
            if x.kind in _NUM_KINDS:
                self.cost(F if x.kind == K_FLOAT else I)
                return _Ex(f"(-{x.code})", x.kind, deps=x.deps,
                           effect=x.effect)
            return _Ex(f"_neg_rt({self.counter()}, {x.code})",
                       K_UNKNOWN, effect=True)
        if op == "!":
            self.cost(I)
            return _Ex(f"(0 if {self.truth(x)} else 1)", K_INT, deps=x.deps,
                       effect=x.effect or x.kind not in _NUM_KINDS)
        if op == "~":
            self.cost(I)
            return _Ex(f"(~{x.code})", K_INT, deps=x.deps, effect=True)
        self.discard(x)
        return self.fault(f"unsupported unary operator {op!r}")

    def incdec(self, e: UnaryOp, prefix: bool = False) -> _Ex:
        delta = 1 if e.op == "++" else -1
        prefix = prefix or e.prefix
        target = e.operand
        self.cost(I)
        if type(target) is Ident:
            var = self.lookup(target.name)
            if var is None:
                return self.fault(f"undefined variable {target.name!r}")
            if var.is_array:
                raise CompileUnsupported(f"++/-- on array {target.name!r}")
            old = var.code
            if not prefix:
                old = self.tmp()
                self.emit(f"{old} = {var.code}")
            if var.kind in _NUM_KINDS:
                new = f"{old} + {delta}"
            else:
                new = f"_incdec_rt({old}, {delta})"
            self.store(var, new)
            if prefix:
                return _Ex(var.code, var.kind, deps=var.deps)
            return _Ex(old, var.kind, True)
        if type(target) is Index:
            addr = self.address(target)
            old = self.read(addr)
            new = self.spill(_Ex(f"{old.code} + {delta}", old.kind,
                                 effect=True))
            stored = self.write(addr, new)
            return stored if prefix else old
        return self.fault("++/-- target must be a variable or element")

    # -- assignment -------------------------------------------------------
    def assign(self, e: Assign) -> _Ex:
        target = e.target
        if type(target) is Ident:
            return self.assign_ident(e, target)
        if type(target) is Index or (type(target) is UnaryOp
                                     and target.op == "*"):
            addr = self.address(target, store=True)
            if e.op == "=":
                return self.write(addr, self.ex(e.value))
            old = self.read(addr)
            rhs = self.ex(e.value)
            return self.write(addr, self.combine(e.op[0], old, rhs))
        return self.fault("unsupported assignment target")

    def combine(self, op: str, lhs: _Ex, rhs: _Ex) -> _Ex:
        if lhs.kind in _NUM_KINDS and rhs.kind in _NUM_KINDS:
            return self.arith(op, lhs, rhs)
        return self.binary_rt(op, lhs, rhs)

    def assign_ident(self, e: Assign, target: Ident) -> _Ex:
        var = self.lookup(target.name)
        if var is None:
            self.discard(self.ex(e.value))
            return self.fault(f"undefined variable {target.name!r}")
        if var.is_array:
            raise CompileUnsupported(f"assignment to array {target.name!r}")
        if e.op == "=":
            value = self.ex(e.value)
        else:
            old, rhs = self.seq((target, e.value))
            value = self.combine(e.op[0], old, rhs)
        tk = var.kind
        if tk == K_FLOAT:
            if value.kind == K_INT:
                value = _Ex(f"float({value.code})", K_FLOAT, effect=True)
            elif value.kind != K_FLOAT:
                value = _Ex(f"_float_slot({value.code})", K_FLOAT,
                            effect=True)
        elif tk == K_INT:
            if value.kind == K_FLOAT:
                value = _Ex(f"_trunc({value.code})", K_INT, effect=True)
            elif value.kind != K_INT:
                value = _Ex(f"_int_slot({value.code})", K_INT, effect=True)
        elif value.kind != tk:
            value = _Ex(f"_checked_ptr({value.code}, {_want_float(tk)})",
                        tk, effect=True)
        self.store(var, value.code)
        return _Ex(var.code, tk, deps=var.deps)

    # -- calls ------------------------------------------------------------
    def call(self, e: Call) -> _Ex:
        name = e.name
        comp = self.comp
        if name in comp.functions:
            args = self.seq(e.args)
            nparams = len(comp.functions[name].params)
            if len(args) != nparams:
                for a in args:
                    self.discard(a)
                return self.fault(
                    f"{name}() takes {nparams} args, got {len(args)}")
            if name in comp.timer_fns:
                self.clock_barrier()
            self.writes.append("G")
            text = ", ".join([f"rt, {self.counter()}"]
                             + [a.code for a in args])
            return _Ex(f"{comp.pyname[name]}({text})",
                       comp.ret_kind.get(name, K_UNKNOWN), effect=True)

        spec = MATH_BUILTINS.get(name)
        if spec is not None:
            args = self.seq(e.args)
            self.cost(BF, spec.flop_cost)
            text = f"{comp.const(spec.fn)}({', '.join(a.code for a in args)})"
            if spec.fn in _INT_RESULT_FNS:
                text = f"float({text})"
            return _Ex(text, K_FLOAT, effect=True)

        if name in SCALAR_WS_BUILTINS:
            if not self.string_arg(e, name):
                return _NONE
            conv = "int" if name == "ws_int" else "float"
            return _Ex(f"{conv}(rt.workload.scalar({e.args[0].value!r}))",
                       K_INT if name == "ws_int" else K_FLOAT, effect=True)

        elem_type = ARRAY_BUILTIN_TYPES.get(name)
        if elem_type is not None:
            if len(e.args) < 2:
                raise CompileUnsupported(f"{name}() needs (name, size)")
            if not self.string_arg(e, name):
                return _NONE
            size = self.ex(e.args[1])
            return _Ex(f"_ws_buffer(rt, {name!r}, {e.args[0].value!r}, "
                       f"{size.code}, {comp.const(elem_type)})",
                       K_PTR_F if elem_type.is_floating else K_PTR_I,
                       effect=True)

        if name == "rand01":
            self.cost(F, 2)
            return _Ex("rt.rng.next01()", K_FLOAT, effect=True)

        if name in ("timer_start", "timer_stop"):
            if not self.string_arg(e, name):
                return _NONE
            self.clock_barrier()
            key = e.args[0].value
            if name == "timer_start":
                self.emit(f"rt.timer_starts[{key!r}] = _clock(rt)")
            else:
                self.emit(f"_timer_stop(rt, {key!r})")
            return _ZERO

        if name == "printf":
            if not e.args or type(e.args[0]) is not StringLit:
                return self.fault("printf() needs a literal format string")
            fmt = e.args[0].value.replace("\\n", "\n").replace("\\t", "\t")
            args = self.seq(e.args[1:])
            vals = "".join(f"{a.code}, " for a in args)
            return _Ex(f"_printf(rt, {fmt!r}, ({vals}))", K_INT, effect=True)

        if is_builtin(name):
            return self.fault(f"unhandled builtin {name!r}")
        return self.fault(f"call to unknown function {name!r}")

    def string_arg(self, e: Call, name: str) -> bool:
        """Emit the interpreter's fault unless argument 0 is a string
        literal."""
        if e.args and type(e.args[0]) is StringLit:
            return True
        self.fault(f"{name}() argument 0 must be a string literal")
        return False

    # -- statements -------------------------------------------------------
    def stmt(self, s) -> None:
        kind = type(s)
        if kind is ExprStmt:
            self.discard(self.ex(s.expr, unused=True))
        elif kind is CompoundStmt:
            self.push_scope()
            for child in s.stmts:
                self.stmt(child)
                if type(child) in (BreakStmt, ContinueStmt, ReturnStmt):
                    break             # the rest is unreachable
            self.pop_scope()
        elif kind is DeclStmt:
            for var in s.decls:
                self.decl(var)
        elif kind is IfStmt:
            self.if_(s)
        elif kind in (ForStmt, WhileStmt, DoWhileStmt):
            self.loop(s)
        elif kind is ReturnStmt:
            self.return_(s)
        elif kind is BreakStmt or kind is ContinueStmt:
            if not self.loops:
                raise CompileUnsupported(f"{kind.__name__} outside a loop")
            if kind is ContinueStmt:
                self.paste(self.tails[-1])
            self.emit("continue" if kind is ContinueStmt else "break")
            self.jumps += 1
        elif kind in (NullStmt, Comment):
            pass
        elif kind is RawStmt:
            self.fault("generated target-specific code (RawStmt) is not "
                       "interpretable; run the reference or kernel design "
                       "instead")
        else:
            self.fault(f"cannot execute {kind.__name__}")

    def decl(self, var) -> None:
        """Mirror of ``Interpreter._init_decl``: the initial value is
        computed before the name enters scope."""
        ctype = var.ctype
        kind = _decl_kind(var)
        if var.is_array:
            size = self.ex(var.array_size)
            text = (f"_new_array({size.code}, {self.comp.const(ctype)}, "
                    f"{var.name!r})")
        elif var.init is None:
            text = "None" if ctype.is_pointer else (
                "0.0" if ctype.is_floating else "0")
        else:
            value = self.ex(var.init)
            if ctype.is_pointer:
                text = (f"_init_ptr({value.code}, {var.name!r}, "
                        f"{_want_float(kind)})")
            elif ctype.base == "bool":
                text = (f"(1 if {value.code} else 0)"
                        if value.kind in _NUM_KINDS else
                        f"_convert_val({value.code}, "
                        f"{self.comp.const(ctype)})")
            elif value.kind == kind:
                text = value.code
            elif value.kind in _NUM_KINDS:
                text = (f"float({value.code})" if kind == K_FLOAT
                        else f"_trunc({value.code})")
            else:
                text = f"_convert_val({value.code}, {self.comp.const(ctype)})"
        if self.scopes:
            slot = self.declare(var.name, kind, var.is_array, ctype)
            self.store(slot, text)
            slot.nonnull = (ctype.is_pointer and var.init is not None
                            and var.name not in self.assigned)
        else:
            self.comp.declare_global(var, kind, text, self)

    def if_(self, s: IfStmt) -> None:
        self.cost(B)
        test = self.cond(s.cond)
        saved, barriers, jumps = self.region, self.barriers, self.jumps
        self.emit(f"if {test}:")
        self.arm(s.then)
        if s.els is not None:
            self.emit("else:")
            self.arm(s.els)
        self.resume(saved, barriers, self.jumps != jumps)

    def arm(self, s) -> None:
        self.ind += 1
        self.emit("pass")
        self.open_region()
        self.stmt(s)
        self.ind -= 1

    def loop(self, s) -> None:
        """``for``/``while``/``do`` as a Python ``while True`` loop with
        a local trip count and an inline step check.  The trip count is
        the number of iterations entered: every entered iteration
        completes (or breaks) unless it returns."""
        is_for = type(s) is ForStmt
        is_do = type(s) is DoWhileStmt
        saved, barriers, returns = self.region, self.barriers, self.returns
        if is_for:
            self.push_scope()
        # the node id goes in as a constant: generated text depends on
        # the source only, so equal text can share one code object
        level = self.push_level(self.comp.const(s.node_id))
        trips, limit = f"T{level.serial}", f"M{level.serial}"
        self.emit(_LoopEntry(level))
        self.open_region()
        if is_for and s.init is not None:
            self.stmt(s.init)
        self.emit(f"{trips} = 0")
        self.emit(f"{limit} = rt.max_steps - rt.steps")
        self.emit("while True:")
        self.ind += 1
        if not is_do and s.cond is not None:
            self.loop_test(s.cond)
        tail = []
        if is_do:
            tail = self.sub(self.loop_test, s.cond)
        elif is_for and s.inc is not None:
            tail = self.sub(self.loop_inc, s.inc)
        self.emit(f"{trips} += 1")
        self.emit(f"if {trips} > {limit}: raise _steps_exc(rt)")
        self.loops.append(level)
        self.tails.append(tail)
        self.open_region()
        self.stmt(s.body)
        self.paste(tail)
        self.loops.pop()
        self.tails.pop()
        self.ind -= 1
        level.deferred = self.barriers == barriers
        self.emit(_LoopExit(level, trips))
        self.levels.pop()
        if is_for:
            self.pop_scope()
        self.resume(saved, barriers, self.returns != returns)

    def loop_test(self, cond) -> None:
        self.open_region()
        self.cost(B)
        self.emit(f"if not {self.cond(cond)}: break")

    def loop_inc(self, inc) -> None:
        self.open_region()
        self.discard(self.ex(inc, unused=True))

    def return_(self, s: ReturnStmt) -> None:
        value = _NONE if s.expr is None else self.spill(self.ex(s.expr))
        self.ret_kinds.append(value.kind)
        self.leave(value.code)
        self.jumps += 1
        self.returns += 1

    def leave(self, value: str) -> None:
        """Return from the function: exit every open loop (the iteration
        in flight does not count as a trip), settle, flush, and merge
        the pointer-parameter access records."""
        for level in reversed(self.loops):
            self.emit(_LoopExit(level, f"T{level.serial} - 1"))
        self.emit(_Settle(None))
        self.emit(_Flush(self.levels[:1], reset=False))
        if self.ptr_frame:
            self.emit(f"_exit_ptrs(rt, {self.fn_name!r}, PF)")
        self.emit(f"return {value}")

    # -- text -------------------------------------------------------------
    def render(self, header: str) -> str:
        out = [header]
        for ind, item in self.lines:
            pad = "    " * ind
            kind = type(item)
            if kind is str:
                out.append(pad + item)
                continue
            if kind is _Inc:
                lines = ([f"{item.region.name} += 1"]
                         if any(item.region.cost) else [])
            elif kind is _Init:
                lines = _zero(_counted(item.level))
                for level in self.all_levels:
                    if level.deferred:
                        lines += _zero(_counted(level)
                                       + [f"E{level.serial}"])
                        lines.append(f"P{level.serial} = {level.var} = None")
            elif kind is _Flush:
                lines = []
                for level in item.levels:
                    lines += _flush_lines(level)
                    if item.reset:
                        lines += _zero(_counted(level))
            elif kind is _LoopEntry:
                lines = _entry_lines(item.level)
            elif kind is _LoopExit:
                lines = self.exit_lines(item.level, item.trips)
            else:
                lines = self.settle_lines(item.scope)
            out.extend(pad + line for line in lines)
        return "\n".join(out) + "\n"

    def exit_lines(self, level: _Level, trips: str) -> List[str]:
        n, c = level.serial, level.var
        if level.deferred:
            return [f"if P{n} is None: P{n} = rt.report.loop({level.node_id})",
                    f"P{n}.trip_counts.append({trips})", f"E{n} += 1",
                    f"rt.steps += T{n}"]
        return (self.settle_lines(level) + _flush_lines(level)
                + ["stk.pop()", f"{level.parent.var}.add({c})",
                   f"rt.steps += T{n}",
                   f"_loop_done(rt, {level.node_id}, {trips}, {c})"])

    def settle_lines(self, scope: Optional[_Level]) -> List[str]:
        """Fold deferred loops' counts into their profiles and parents,
        innermost first."""
        out = []
        for level in reversed(self.all_levels):
            if not level.deferred or not level.within(scope):
                continue
            n, c, parent = level.serial, level.var, level.parent.var
            names = _counted(level)
            costs = tuple(tuple(r.cost) + (0, 0)
                          for r in level.regions if any(r.cost))
            if level.uses_bytes:
                costs += ((0,) * 6 + (1, 0), (0,) * 6 + (0, 1))
            counts = "".join(f"{name}, " for name in names)
            out.append(f"if E{n}: {parent} = _settle(P{n}, E{n}, {c}, "
                       f"{parent}, ({counts}), {self.comp.const(costs)}); "
                       + "".join(f"{line}; " for line in _zero(names))
                       + f"E{n} = 0; {c} = None")
        return out


def _zero(names: List[str]) -> List[str]:
    return [" = ".join(names) + " = 0"] if names else []


def _entry_lines(level: _Level) -> List[str]:
    c = level.var
    if level.deferred:
        return [f"if {c} is None: {c} = Counter()"] \
            if level.needs_counter else []
    return [f"{c} = Counter()", f"stk.append({c})"] + _zero(_counted(level))


def _counted(level: _Level) -> List[str]:
    """The level's count locals that a flush reads."""
    names = [r.name for r in level.regions if any(r.cost)]
    if level.uses_bytes:
        names.extend(level.bytes)
    return names


def _flush_lines(level: _Level) -> List[str]:
    lines = []
    for i, attr in enumerate(_COST_ATTRS):
        terms = [r.name if r.cost[i] == 1 else f"{r.cost[i]} * {r.name}"
                 for r in level.regions if r.cost[i]]
        if terms:
            lines.append(f"{level.var}.{attr} += {' + '.join(terms)}")
    if level.uses_bytes:
        lines.append(f"{level.var}.bytes_read += {level.bytes[0]}")
        lines.append(f"{level.var}.bytes_written += {level.bytes[1]}")
    return lines


_INT_RESULT_FNS = {MATH_BUILTINS[name].fn for name in (
    "fabs", "fabsf", "floor", "floorf", "fmin", "fminf", "fmax", "fmaxf")}

_PROLOGUE = ("G = rt.globals", "stk = rt.counter_stack", "live = rt.live")


# -------------------------------------------------------------------------
# Program assembly.
# -------------------------------------------------------------------------
class _Compiler:
    def __init__(self, unit: TranslationUnit):
        self.functions: Dict[str, FunctionDecl] = {
            fn.name: fn for fn in unit.functions() if fn.body is not None}
        self.pyname = {name: f"F{i}"
                       for i, name in enumerate(self.functions)}
        self.ret_kind: Dict[str, int] = {}
        self.global_vars: Dict[str, _Var] = {}
        self.consts: Dict[str, object] = {}
        self._const_names: Dict[int, str] = {}
        self._scan()
        self.texts = [self._globals_init(unit)]
        for name in self._callees_first():
            self.texts.append(self._function(self.functions[name]))

    def const(self, obj) -> str:
        """Name under which generated code sees ``obj``."""
        name = self._const_names.get(id(obj))
        if name is None:
            name = f"K{len(self.consts)}"
            self._const_names[id(obj)] = name
            self.consts[name] = obj
        return name

    def _scan(self) -> None:
        """One walk per function: its callees, whether it calls a timer
        builtin, and the names it assigns."""
        self.calls: Dict[str, set] = {}
        self.assigned: Dict[str, frozenset] = {}
        timer_fns = set()
        for name, fn in self.functions.items():
            callees, assigned = set(), set()
            for node in fn.body.walk():
                kind = type(node)
                if kind is Call:
                    if node.name in self.functions:
                        callees.add(node.name)
                    elif node.name in ("timer_start", "timer_stop"):
                        timer_fns.add(name)
                elif kind is Assign and type(node.target) is Ident:
                    assigned.add(node.target.name)
                elif (kind is UnaryOp and node.op in ("++", "--")
                      and type(node.operand) is Ident):
                    assigned.add(node.operand.name)
            self.calls[name] = callees
            self.assigned[name] = frozenset(assigned)
        # functions whose execution can read the virtual clock
        changed = True
        while changed:
            changed = False
            for name, callees in self.calls.items():
                if name not in timer_fns and callees & timer_fns:
                    timer_fns.add(name)
                    changed = True
        self.timer_fns = timer_fns

    def _callees_first(self) -> List[str]:
        """Functions in call-graph post-order, so a caller sees its
        callees' result kinds (a recursive cycle leaves them unknown)."""
        order: List[str] = []
        seen = set()

        def visit(name):
            seen.add(name)
            for callee in sorted(self.calls[name]):
                if callee not in seen:
                    visit(callee)
            order.append(name)

        for name in self.functions:
            if name not in seen:
                visit(name)
        return order

    def declare_global(self, var, kind: int, text: str, gen: _Gen) -> None:
        slot = len(self.global_vars)
        gen.emit(f"G[{slot}] = {text}")
        gen.writes.append("G")
        self.global_vars[var.name] = _Var(f"G[{slot}]", kind, var.is_array,
                                          var.ctype, frozenset(("G",)))

    def _globals_init(self, unit: TranslationUnit) -> str:
        # each initializer sees only the globals declared before it,
        # matching the interpreter's in-order binding
        gen = _Gen(self, "")
        level = gen.push_level()
        gen.emit("c0 = stk[0]")
        gen.emit(_Init(level))
        gen.open_region()
        for decl in unit.decls:
            if isinstance(decl, DeclStmt):
                for var in decl.decls:
                    gen.decl(var)
        gen.emit(_Flush((level,), reset=False))
        return gen.render("def GINIT(rt):\n    " + "\n    ".join(_PROLOGUE))

    def _function(self, fn: FunctionDecl) -> str:
        gen = _Gen(self, fn.name)
        level = gen.push_level()
        gen.push_scope()
        for line in ("c0.calls += 1", "rt.steps += 1",
                     "if rt.steps > rt.max_steps: raise _steps_exc(rt)"):
            gen.emit(line)
        gen.emit(_Init(level))
        args, ptrs = [], []
        for i, param in enumerate(fn.params):
            ct = param.ctype
            arg = f"a{i}"
            args.append(arg)
            var = gen.declare(param.name, _kind_of_ctype(ct), False, ct)
            if ct.is_pointer:
                want = (ct.element_type().is_floating
                        if ct.pointers == 1 and ct.base != "void" else None)
                code = var.code
                gen.emit(f"{code}, {code}a, {code}d, {code}o, {code}n, "
                         f"{code}b = _ptr_param({fn.name!r}, "
                         f"{param.name!r}, {arg}, {want})")
                var.nonnull = var.tally = param.name not in gen.assigned
                ptrs.append((param.name, var))
                continue
            slow = (f"_scalar_param({fn.name!r}, {param.name!r}, {arg}, "
                    f"{self.const(ct)})")
            if ct.base == "bool":
                gen.emit(f"{var.code} = {slow}")
            else:
                py_type = "float" if ct.is_floating else "int"
                gen.emit(f"{var.code} = {arg} if {arg}.__class__ is "
                         f"{py_type} else {slow}")
        if ptrs:
            gen.ptr_frame = True
            pairs = "".join(f"({name!r}, {var.code}), " for name, var in ptrs)
            gen.emit(f"PF = _enter_ptrs(rt, {fn.name!r}, ({pairs}))")
            for _, var in ptrs:
                if var.tally:
                    # a local buffer has no tally: count into a dummy
                    gen.emit(f"{var.code}t = live.get({var.code}a.array_id)"
                             f" or [0, 0, [], 0]")
        gen.open_region()
        gen.stmt(fn.body)
        kinds = set(gen.ret_kinds)
        kind = kinds.pop() if len(kinds) == 1 else K_UNKNOWN
        stmts = fn.body.stmts if type(fn.body) is CompoundStmt else ()
        falls_off = not stmts or type(stmts[-1]) is not ReturnStmt
        if kind in (K_UNKNOWN, K_STR):
            if falls_off:
                gen.leave("None")
        else:
            self.ret_kind[fn.name] = kind
            if falls_off:
                # returns None, breaking the kind callers compiled against
                gen.leave(f"_kind_value(None, {kind})")
        header = (f"def {self.pyname[fn.name]}"
                  f"({', '.join(['rt', 'c0'] + args)}):\n    "
                  + "\n    ".join(_PROLOGUE))
        return gen.render(header)


class CompiledProgram:
    """A translation unit lowered to Python functions, runnable many
    times; holds no per-run state."""

    def __init__(self, unit: TranslationUnit):
        try:
            comp = _Compiler(unit)
            codes = [_code_for(text) for text in comp.texts]
        except (RecursionError, SyntaxError) as exc:
            # nesting deeper than Python's compiler takes (expressions
            # hundreds of operators deep, ~20 nested loops)
            raise CompileUnsupported(
                f"nesting too deep for generated code: {exc}") from None
        self.source = "\n\n".join(comp.texts)
        namespace = dict(_RUNTIME)
        namespace.update(comp.consts)
        for code in codes:
            exec(code, namespace)                            # noqa: S102
        self._init = namespace["GINIT"]
        self._fns = {name: (namespace[py], len(comp.functions[name].params))
                     for name, py in comp.pyname.items()}
        self._nglobals = len(comp.global_vars)

    def run(self, workload: Optional[Workload] = None, entry: str = "main",
            max_steps: Optional[int] = None, args: Sequence = ()
            ) -> ExecReport:
        if workload is None:
            workload = Workload()
        rt = _Rt(workload,
                 max_steps if max_steps is not None else DEFAULT_MAX_STEPS,
                 self._nglobals)
        self._init(rt)
        if entry not in self._fns:
            raise RuntimeFault(f"no entry function {entry!r}")
        fn, nparams = self._fns[entry]
        if len(args) != nparams:
            raise RuntimeFault(
                f"{entry}() takes {nparams} args, got {len(args)}")
        rt.report.return_value = fn(rt, rt.report.global_counter, *args)
        rt.report.steps = rt.steps
        return rt.report


#: code objects of generated function text.  Flows run many variants of
#: one application, and re-parsed or re-scaled units generate the same
#: text for every function they did not change; code objects are
#: immutable, so sharing them shares no run state.
_CODE_CACHE: Dict[str, object] = {}
_CODE_CACHE_MAX = 256


def _code_for(text: str):
    code = _CODE_CACHE.get(text)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _CODE_CACHE.clear()
        code = _CODE_CACHE[text] = compile(text, "<uhl>", "exec")
    return code


def compile_unit(unit: TranslationUnit) -> CompiledProgram:
    """Compile ``unit``; raises :class:`CompileUnsupported` when the
    unit uses constructs the compiler cannot model exactly."""
    return CompiledProgram(unit)


#: module names generated code reads besides the unit's own constants
_RUNTIME = {name: obj for name, obj in list(globals().items())
            if name.startswith("_") and callable(obj)
            and not isinstance(obj, type)}
_RUNTIME.update(Counter=Counter, PointerValue=PointerValue, truthy=truthy)
