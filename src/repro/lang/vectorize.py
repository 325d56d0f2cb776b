"""Numpy fast path for recognized affine inner loops.

``try_vectorize`` inspects a ``for`` loop at compile time and, for a
narrow canonical shape, builds a *plan*: a callable the compiled loop
driver invokes once on loop entry.  The plan either executes the whole
loop as a handful of numpy array operations and returns the iteration
count it covered, or returns 0 and the closure-compiled loop runs
normally.

Recognized shape::

    for (int i = S; i < E; i += K)        # also <=, i++, ++i
        a[c*i + d] OP= <expr>;            # OP in  =  +=  -=  *=  /=

where ``a`` is a float-typed array, the index is affine in ``i`` with a
positive literal coefficient, and ``<expr>`` is built from float/int
literals, loop-invariant scalars, ``i`` itself, affine loads from
float arrays, ``+ - * /``, unary minus, IEEE-exact one-argument math
builtins (``sqrt``/``fabs``/``floor`` families) and at most one
``rand01()`` call.

Exactness is non-negotiable: the plan must be observationally identical
to running the loop iteration by iteration.  Three mechanisms ensure it:

- the per-iteration statement cost is *harvested* from the compiler
  itself (the statement expression is recompiled under a fresh cost
  vector), so flushed counters match the closure path bit for bit;
- the plan is transactional -- every check (bounds, aliasing,
  zero divisors, non-int induction values) happens before any state is
  mutated, and any failure falls back to the normal loop;
- only operations where numpy float64 agrees exactly with Python float
  are vectorized (``+ - *``, division with a zero-free divisor,
  correctly-rounded ``sqrt``, ``fabs``, ``floor``).

:data:`ENABLED` is off only without numpy; the differential suite
turns it off to compare the plain compiled loops with the interpreter.
"""

from __future__ import annotations

try:
    import numpy as _np
except Exception:                                    # pragma: no cover
    _np = None

from repro.lang.builtins import LCG, MATH_BUILTINS
from repro.lang.values import ArrayValue, PointerValue
from repro.meta.ast_nodes import (
    Assign, BinaryOp, Call, Comment, CompoundStmt, DeclStmt, ExprStmt,
    FloatLit, ForStmt, Ident, Index, IntLit, NullStmt, UnaryOp,
)

_FASTPATH_MIN_TRIPS = 16

#: recognise affine loops at compile time (read on every compile)
ENABLED = _np is not None

# one-argument builtins where numpy is bit-identical to the interpreter's
# (``_safe``-wrapped) math implementation for every float input
_NP_FUNCS = {}
if _np is not None:
    _NP_FUNCS = {
        "sqrt": _np.sqrt, "sqrtf": _np.sqrt,
        "fabs": _np.abs, "fabsf": _np.abs,
        "floor": _np.floor, "floorf": _np.floor,
    }


class _Reject(Exception):
    """Compile-time: the loop does not match the canonical shape."""


class _Abort(Exception):
    """Plan-time: a runtime check failed before any mutation."""


K_INT = K_FLOAT = K_PTR_F = None     # bound late to avoid a cycle


def _bind_kinds():
    global K_INT, K_FLOAT, K_PTR_F
    if K_INT is None:
        from repro.lang import compiler as _c
        K_INT, K_FLOAT, K_PTR_F = _c.K_INT, _c.K_FLOAT, _c.K_PTR_F


def try_vectorize(fc, s: ForStmt):
    """A plan ``(rt, frame, counter) -> trips_done`` or None."""
    if not ENABLED:
        return None
    _bind_kinds()
    try:
        return _build_plan(fc, s)
    except _Reject:
        return None


# -------------------------------------------------------------------------
# Recognition
# -------------------------------------------------------------------------
def _induction_name(init) -> str:
    if isinstance(init, DeclStmt) and len(init.decls) == 1:
        var = init.decls[0]
        if (not var.is_array and not var.ctype.is_pointer
                and not var.ctype.is_floating):
            return var.name
    if (isinstance(init, ExprStmt) and isinstance(init.expr, Assign)
            and init.expr.op == "=" and isinstance(init.expr.target, Ident)):
        return init.expr.target.name
    raise _Reject


def _slot_getter(fc, name: str, want_kind):
    res = fc.lookup(name)
    if res is None or res[2] is not want_kind:
        raise _Reject
    where, slot = res[0], res[1]
    if where == "l":
        return lambda rt, frame: frame[slot], slot
    return lambda rt, frame: rt.globals[slot], None


def _affine(fc, e, ivar: str):
    """``(coef, invariant_getter)`` with index == coef*i + invariant."""
    if isinstance(e, IntLit):
        v = e.value
        return 0, (lambda rt, frame: v)
    if isinstance(e, Ident):
        if e.name == ivar:
            return 1, (lambda rt, frame: 0)
        getter, _ = _slot_getter(fc, e.name, K_INT)
        return 0, getter
    if isinstance(e, BinaryOp):
        if e.op in ("+", "-"):
            lc, lo = _affine(fc, e.lhs, ivar)
            rc, ro = _affine(fc, e.rhs, ivar)
            if e.op == "+":
                return lc + rc, (lambda rt, frame:
                                 lo(rt, frame) + ro(rt, frame))
            return lc - rc, (lambda rt, frame:
                             lo(rt, frame) - ro(rt, frame))
        if e.op == "*":
            if isinstance(e.lhs, IntLit):
                m, sub = e.lhs.value, e.rhs
            elif isinstance(e.rhs, IntLit):
                m, sub = e.rhs.value, e.lhs
            else:
                raise _Reject
            c, o = _affine(fc, sub, ivar)
            return c * m, (lambda rt, frame: o(rt, frame) * m)
    raise _Reject


def _ref(fc, e: Index, ivar: str, refs):
    """Register an affine load/store site; returns its index in refs."""
    if not isinstance(e.base, Ident):
        raise _Reject
    getter, _ = _slot_getter(fc, e.base.name, K_PTR_F)
    coef, off = _affine(fc, e.index, ivar)
    if coef < 0:
        raise _Reject
    refs.append((getter, coef, off))
    return len(refs) - 1


def _value(fc, e, ivar: str, refs, state):
    """``(eval(env) -> vec_or_scalar, is_float)``; registers loads in
    left-to-right depth-first (== interpreter evaluation) order."""
    if isinstance(e, FloatLit):
        v = e.value
        return (lambda env: v), True
    if isinstance(e, IntLit):
        v = e.value
        return (lambda env: v), False
    if isinstance(e, Ident):
        res = fc.lookup(e.name)
        if res is None:
            raise _Reject
        if res[2] is K_INT:
            if res[0] == "l" and res[1] == state.get("islot"):
                return (lambda env: env[2]), False       # i itself
            getter, _ = _slot_getter(fc, e.name, K_INT)
            return (lambda env: getter(env[0], env[1])), False
        if res[2] is K_FLOAT:
            getter, _ = _slot_getter(fc, e.name, K_FLOAT)
            return (lambda env: getter(env[0], env[1])), True
        raise _Reject
    if isinstance(e, Index):
        k = _ref(fc, e, ivar, refs)
        return (lambda env: env[3][k]), True
    if isinstance(e, UnaryOp) and e.op == "-" and e.prefix:
        ev, isf = _value(fc, e.operand, ivar, refs, state)
        if not isf:
            raise _Reject
        return (lambda env: -ev(env)), True
    if isinstance(e, BinaryOp) and e.op in ("+", "-", "*", "/"):
        lev, lf = _value(fc, e.lhs, ivar, refs, state)
        rev, rf = _value(fc, e.rhs, ivar, refs, state)
        if not (lf or rf):
            raise _Reject                 # int x int: C int semantics
        if e.op == "+":
            return (lambda env: lev(env) + rev(env)), True
        if e.op == "-":
            return (lambda env: lev(env) - rev(env)), True
        if e.op == "*":
            return (lambda env: lev(env) * rev(env)), True

        def div(env):
            lhs = lev(env)
            rhs = rev(env)
            if _np.any(_np.asarray(rhs) == 0.0):
                raise _Abort              # interpreter has signed-inf rules
            return lhs / rhs
        return div, True
    if isinstance(e, Call):
        if e.name == "rand01" and not e.args:
            if state.get("rand"):
                raise _Reject             # draw order: one per iteration
            state["rand"] = True
            return (lambda env: env[4]), True
        fn = _NP_FUNCS.get(e.name)
        if fn is not None and len(e.args) == 1:
            ev, isf = _value(fc, e.args[0], ivar, refs, state)
            if not isf:
                raise _Reject
            return (lambda env: fn(ev(env))), True
    raise _Reject


def _single_assign(body):
    stmts = [body]
    if isinstance(body, CompoundStmt):
        stmts = [st for st in body.stmts
                 if not isinstance(st, (Comment, NullStmt))]
    if (len(stmts) == 1 and isinstance(stmts[0], ExprStmt)
            and isinstance(stmts[0].expr, Assign)):
        return stmts[0].expr
    raise _Reject


def _build_plan(fc, s: ForStmt):
    if s.init is None or s.cond is None or s.inc is None:
        raise _Reject
    ivar = _induction_name(s.init)
    res = fc.lookup(ivar)
    if res is None or res[0] != "l" or res[2] is not K_INT:
        raise _Reject
    islot = res[1]

    cond = s.cond
    if (not isinstance(cond, BinaryOp) or cond.op not in ("<", "<=")
            or not isinstance(cond.lhs, Ident) or cond.lhs.name != ivar):
        raise _Reject
    inclusive = cond.op == "<="
    if isinstance(cond.rhs, IntLit):
        ev = cond.rhs.value
        limit_get = lambda rt, frame: ev                 # noqa: E731
    elif isinstance(cond.rhs, Ident) and cond.rhs.name != ivar:
        limit_get, _ = _slot_getter(fc, cond.rhs.name, K_INT)
    else:
        raise _Reject

    inc = s.inc
    if (isinstance(inc, UnaryOp) and inc.op == "++"
            and isinstance(inc.operand, Ident)
            and inc.operand.name == ivar):
        step = 1
    elif (isinstance(inc, Assign) and inc.op == "+="
            and isinstance(inc.target, Ident) and inc.target.name == ivar
            and isinstance(inc.value, IntLit) and inc.value.value >= 1):
        step = inc.value.value
    else:
        raise _Reject

    assign = _single_assign(s.body)
    if not isinstance(assign.target, Index):
        raise _Reject
    op = assign.op
    refs = []
    wref = _ref(fc, assign.target, ivar, refs)
    wgetter, wcoef, woff = refs.pop(wref)
    if wcoef < 1:
        raise _Reject
    state = {"islot": islot}
    val_ev, _ = _value(fc, assign.value, ivar, refs, state)
    has_rand = bool(state.get("rand"))

    # harvest the statement's exact static cost from the compiler itself:
    # recompiling the assignment under a fresh cost vector reproduces
    # precisely what the closure path flushes per execution
    saved = fc.cost
    fc.cost = [0, 0, 0, 0, 0, 0]
    fc.expr(assign)
    mul_flush = _make_mul_flush(fc.cost)
    fc.cost = saved

    return _make_plan(islot, limit_get, inclusive, step, wgetter, wcoef,
                      woff, op, refs, val_ev, has_rand, mul_flush)


def _make_mul_flush(cost):
    from repro.lang import compiler as _c
    return _c._make_mul_flush(cost)


# -------------------------------------------------------------------------
# The runtime plan
# -------------------------------------------------------------------------
def _as_pointer(value):
    if value.__class__ is PointerValue:
        return value
    if value.__class__ is ArrayValue:
        return PointerValue(value, 0)
    raise _Abort


def _resolve(getter, coef, off, rt, frame, i0, step, trips):
    """``(array, start, stride)`` for one ref, bounds-checked."""
    ptr = _as_pointer(getter(rt, frame))
    base = off(rt, frame)
    if not isinstance(base, int):
        raise _Abort
    start = ptr.offset + coef * i0 + base
    stride = coef * step
    n = len(ptr.array.data)
    last = start + stride * (trips - 1)
    if start < 0 or last < 0 or start >= n or last >= n:
        raise _Abort
    return ptr.array, start, stride


def _rand_states(rt, trips):
    mult, incr, mask = LCG.MULT, LCG.INC, LCG.MASK
    state = rt.rng.state
    hi = []
    for _ in range(trips):
        state = (state * mult + incr) & mask
        hi.append(state >> 11)
    return state, _np.array(hi, dtype=_np.float64) / float(1 << 53)


def _make_plan(islot, limit_get, inclusive, step, wgetter, wcoef, woff,
               op, refs, val_ev, has_rand, mul_flush):
    def plan(rt, frame, counter):
        i0 = frame[islot]
        if i0.__class__ is not int:
            return 0
        limit = limit_get(rt, frame)
        if limit.__class__ is not int:
            return 0
        span = limit - i0 + (1 if inclusive else 0)
        if span <= 0:
            return 0
        trips = -(-span // step)
        if trips < _FASTPATH_MIN_TRIPS:
            return 0
        try:
            warr, wstart, wstride = _resolve(
                wgetter, wcoef, woff, rt, frame, i0, step, trips)
            loads = []
            sites = []
            for getter, coef, off in refs:
                arr, start, stride = _resolve(
                    getter, coef, off, rt, frame, i0, step, trips)
                # a read that is not lane-aligned with the write would
                # carry a dependency across iterations: fall back
                if arr.array_id == warr.array_id and \
                        (start, stride) != (wstart, wstride):
                    raise _Abort
                sites.append(arr)
                if stride == 0:
                    loads.append(arr.data[start])
                else:
                    loads.append(_np.asarray(
                        arr.data[start:start + stride * trips:stride],
                        dtype=_np.float64))
            rng_state = rand_vec = None
            if has_rand:
                rng_state, rand_vec = _rand_states(rt, trips)
            old = None
            if op != "=":
                old = _np.asarray(
                    warr.data[wstart:wstart + wstride * trips:wstride],
                    dtype=_np.float64)
            ivec = _np.arange(i0, i0 + step * trips, step,
                              dtype=_np.float64)
            with _np.errstate(all="ignore"):
                env = (rt, frame, ivec, loads, rand_vec)
                out = val_ev(env)
                if op == "+=":
                    out = old + out
                elif op == "-=":
                    out = old - out
                elif op == "*=":
                    out = old * out
                elif op == "/=":
                    if _np.any(_np.asarray(out) == 0.0):
                        raise _Abort
                    out = old / out
            if _np.isscalar(out) or getattr(out, "ndim", 1) == 0:
                out = _np.full(trips, float(out))
        except (_Abort, ArithmeticError):
            return 0
        # ---- commit phase: no fallible work below this line ----------
        warr.data[wstart:wstart + wstride * trips:wstride] = out.tolist()
        frame[islot] = i0 + step * trips
        if has_rand:
            rt.rng.state = rng_state
        mul_flush(counter, trips)
        elem = warr.elem_size
        # access accounting in interpreter order: compound target load,
        # value loads left to right, then the store
        seq = []
        if op != "=":
            seq.append((warr, False))
        seq.extend((arr, False) for arr in sites)
        seq.append((warr, True))
        for arr, write in seq:
            if arr.is_local:
                continue
            if write:
                counter.bytes_written += trips * elem
            else:
                counter.bytes_read += trips * arr.elem_size
            for records in rt.frame_arrays:
                rec = records.get(arr.array_id)
                if rec is None:
                    continue
                if write:
                    rec.writes += trips
                else:
                    if rec.writes == 0:
                        rec.read_before_write = True
                    rec.reads += trips
        return trips
    return plan
