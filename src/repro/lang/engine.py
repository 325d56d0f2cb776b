"""Execution-engine dispatch: compiled to Python by default, tree-walking
interpreter as an exact fallback or in a reference process started with
``REPRO_EXEC=interp`` (read here only; it is not a ``ReproConfig`` knob).

``execute_unit`` is the single entry point every dynamic execution in
the repo goes through (``Ast.execute`` delegates here).  That makes it
the natural place to hang *execution observers* -- callbacks notified
once per dynamic program execution, used by tests and telemetry to
assert how many executions a flow actually performs -- and the
``repro.obs`` instrumentation: one span per execution (its
``compile_ms`` attribute separates generating the code from running
it) and one ``repro_exec_total{mode=...}`` count per engine that
actually ran.

Fallback rules keeping the two engines observationally identical:

- :class:`CompileUnsupported` (raised while compiling): the unit uses a
  construct the compiler does not model; run the interpreter instead.
- :class:`CompiledBailout` (raised mid-run): a runtime value broke the
  compiler's static typing assumptions.  The partially-mutated workload
  buffers are discarded and the same workload re-runs interpreted.
- any *other* exception out of ``compile_unit`` is a compiler bug, not
  the program's fault: it is contained (fallback ``compile-crash``)
  rather than propagated, so a compiler defect degrades throughput,
  never correctness.

A per-unit :class:`~repro.resilience.CircuitBreaker` watches these
dynamic failures (bailouts, compile crashes, injected faults --
*not* deterministic ``CompileUnsupported``): a unit that keeps
bailing out stops paying the compile-then-discard tax and goes
straight to the interpreter until the breaker's cooldown re-admits a
probe.  Breakers are keyed weakly, so dropping a unit drops its
breaker.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from typing import Callable, List, Optional, Sequence

from repro import obs
from repro.lang.compiler import (
    CompiledBailout, CompileUnsupported, compile_unit,
)
from repro.lang.interpreter import ExecReport, Interpreter, Workload
from repro.meta.ast_nodes import TranslationUnit
from repro.resilience import CircuitBreaker, faults

_MODES = ("interp", "compiled")

# Observer registry: the service notifies from concurrent worker
# threads, so registration/removal and the notify snapshot are all
# lock-guarded.  Registration is idempotent -- re-adding a callback
# (e.g. a module-level telemetry hook imported twice) must not double
# its notifications.
_observers: List[Callable] = []
_observers_lock = threading.Lock()

_EXEC_TOTAL = obs.REGISTRY.counter(
    "repro_exec_total",
    "dynamic program executions by engine that actually ran",
    ("mode",))
_EXEC_FALLBACKS = obs.REGISTRY.counter(
    "repro_exec_fallback_total",
    "compiled-engine fallbacks to the interpreter",
    ("reason",))


def add_execution_observer(fn: Callable) -> None:
    """Register ``fn(unit, workload, entry, mode)`` called once per
    dynamic program execution.  ``mode`` names the engine that actually
    runs: ``"compiled"``, ``"interp"``, or ``"interp-fallback"`` for the
    interpreter re-run after a mid-run :class:`CompiledBailout` (which
    therefore notifies twice -- two executions really happen).

    Thread-safe and idempotent: adding an already-registered callback
    is a no-op."""
    with _observers_lock:
        if fn not in _observers:
            _observers.append(fn)


def remove_execution_observer(fn: Callable) -> None:
    with _observers_lock:
        try:
            _observers.remove(fn)
        except ValueError:
            pass


def _notify(unit, workload, entry: str, mode: str) -> None:
    _EXEC_TOTAL.inc(mode=mode)
    with _observers_lock:
        observers = list(_observers)
    for fn in observers:
        fn(unit, workload, entry, mode)


def execution_mode() -> str:
    """The engine selected by ``REPRO_EXEC`` (default: compiled)."""
    mode = os.environ.get("REPRO_EXEC", "compiled").strip().lower()
    return mode if mode in _MODES else "compiled"


# Per-unit breakers guarding the compiled engine.  Weak keys: a breaker
# lives exactly as long as its TranslationUnit.
_breakers: "weakref.WeakKeyDictionary[TranslationUnit, CircuitBreaker]" = \
    weakref.WeakKeyDictionary()
_breakers_lock = threading.Lock()

#: consecutive dynamic compiled-path failures before a unit's breaker opens
BREAKER_THRESHOLD = 3
#: seconds an open breaker keeps a unit on the interpreter
BREAKER_COOLDOWN_S = 30.0


def _breaker_for(unit: TranslationUnit) -> CircuitBreaker:
    with _breakers_lock:
        breaker = _breakers.get(unit)
        if breaker is None:
            breaker = CircuitBreaker(
                "exec.compiled",
                failure_threshold=BREAKER_THRESHOLD,
                cooldown_s=BREAKER_COOLDOWN_S)
            _breakers[unit] = breaker
        return breaker


def breaker_state(unit: TranslationUnit) -> str:
    """The unit's compiled-path breaker state ('closed' if none yet)."""
    with _breakers_lock:
        breaker = _breakers.get(unit)
    return breaker.state if breaker is not None else "closed"


def reset_breakers() -> None:
    """Forget all compiled-path breakers (tests)."""
    with _breakers_lock:
        _breakers.clear()


def execute_unit(unit: TranslationUnit,
                 workload: Optional[Workload] = None,
                 entry: str = "main",
                 max_steps: Optional[int] = None,
                 args: Sequence = (),
                 mode: Optional[str] = None) -> ExecReport:
    """Run ``entry`` in ``unit`` under the selected engine."""
    if mode is None:
        mode = execution_mode()
    if workload is None:
        workload = Workload()
    with obs.span("execute_unit", entry=entry, requested=mode) as sp:
        return _dispatch(unit, workload, entry, max_steps, args, mode, sp)


def _dispatch(unit, workload, entry, max_steps, args, mode, sp) -> ExecReport:
    if mode == "compiled":
        breaker = _breaker_for(unit)
        if not breaker.allow():
            # this unit keeps failing compiled; stop paying the
            # compile-then-discard tax until the cooldown passes
            _EXEC_FALLBACKS.inc(reason="breaker-open")
            sp.event("fallback", reason="breaker-open")
        else:
            program = None
            try:
                faults.inject("exec.compiled")
                started = time.perf_counter()
                program = compile_unit(unit)
                # generating the code vs running it, in one trace
                sp.set(compile_ms=(time.perf_counter() - started) * 1e3)
            except CompileUnsupported as exc:
                # deterministic property of the program, not a failure:
                # does not feed the breaker.  Nothing ran yet.
                _EXEC_FALLBACKS.inc(reason="compile-unsupported")
                sp.event("fallback", reason="compile-unsupported",
                         detail=str(exc))
            except faults.InjectedFault as exc:
                breaker.record_failure()
                _EXEC_FALLBACKS.inc(reason="fault-injected")
                sp.event("fallback", reason="fault-injected",
                         detail=str(exc))
            except Exception as exc:
                # a compiler bug: contain it, degrade to the
                # interpreter, and strike the breaker
                breaker.record_failure()
                _EXEC_FALLBACKS.inc(reason="compile-crash")
                sp.event("fallback", reason="compile-crash",
                         detail=f"{type(exc).__name__}: {exc}")
            if program is not None:
                _notify(unit, workload, entry, "compiled")
                try:
                    report = program.run(workload, entry, max_steps, args)
                    breaker.record_success()
                    sp.set(mode="compiled")
                    return report
                except CompiledBailout as exc:
                    # discard buffers the aborted compiled run may have
                    # touched; the interpreter re-derives them from the
                    # workload spec
                    workload.reset_buffers()
                    breaker.record_failure()
                    _EXEC_FALLBACKS.inc(reason="compiled-bailout")
                    sp.event("fallback", reason="compiled-bailout",
                             detail=str(exc))
                    _notify(unit, workload, entry, "interp-fallback")
                sp.set(mode="interp-fallback")
                return Interpreter(unit, workload).run(entry, max_steps,
                                                       args)
    _notify(unit, workload, entry, "interp")
    sp.set(mode="interp")
    return Interpreter(unit, workload).run(entry, max_steps, args)
