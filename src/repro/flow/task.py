"""Design-flow task base classes.

The Fig. 4 repository classifies each codified task as Analysis (A),
Transform (T), Code-Generation (CG) or Optimisation (O), and marks the
tasks that require program execution as *dynamic*.  Tasks are
meta-programs: they receive the shared :class:`FlowContext` and operate
on its AST / current design / accrued facts.
"""

from __future__ import annotations

import enum
import time
from typing import Optional, TYPE_CHECKING

from repro import obs

if TYPE_CHECKING:
    from repro.flow.context import FlowContext
    from repro.flow.psa import PSADecision


class FlowError(Exception):
    """A design-flow could not proceed (bad mapping, missing facts...)."""


class FlowObserver:
    """Hook interface for flow instrumentation (telemetry, progress).

    An observer attached to a :class:`~repro.flow.context.FlowContext`
    receives one callback pair per executed task and one callback per
    branch decision.  The base class is a no-op so observers override
    only what they need.  The HTTP server's
    :class:`~repro.server.core.TaskFrames` streams these callbacks as
    live SSE frames; per-task timing for traces and breakdowns comes
    from the ``repro.obs`` span each task opens, not from an observer.
    """

    def on_task_start(self, task: "Task", ctx: "FlowContext") -> None:
        pass

    def on_task_end(self, task: "Task", ctx: "FlowContext",
                    wall_s: float, status: str = "ok",
                    error: Optional[BaseException] = None) -> None:
        pass

    def on_branch(self, decision: "PSADecision",
                  ctx: "FlowContext") -> None:
        pass


class TaskKind(enum.Enum):
    ANALYSIS = "A"
    TRANSFORM = "T"
    CODEGEN = "CG"
    OPTIMISATION = "O"


class Task:
    """One codified design-flow task.

    Subclasses set ``name``, ``kind``, ``scope`` (the Fig. 4 grouping:
    ``T-INDEP``, ``FPGA``, ``FPGA-S10``, ``GPU``, ``GPU-1080``,
    ``CPU-OMP``, ...) and ``dynamic`` (requires program execution), and
    implement :meth:`run`.
    """

    name: str = "task"
    kind: TaskKind = TaskKind.TRANSFORM
    scope: str = "T-INDEP"
    dynamic: bool = False

    def run(self, ctx: "FlowContext") -> None:
        raise NotImplementedError

    def __call__(self, ctx: "FlowContext") -> None:
        ctx.log(f"[{self.scope}] {self.name} ({self.kind.value}"
                f"{'*' if self.dynamic else ''})")
        ctx.notify_task_start(self)
        start = time.perf_counter()
        status = "ok"
        error: Optional[BaseException] = None
        with obs.span(self.name, kind=self.kind.value, scope=self.scope,
                      dynamic=self.dynamic, app=ctx.app.name):
            try:
                self.run(ctx)
            except Exception as exc:
                status = "error"
                error = exc
                raise
            finally:
                # inside the span so observers can link to it
                ctx.notify_task_end(self, time.perf_counter() - start,
                                    status, error)

    def __repr__(self):
        return f"<Task {self.name} kind={self.kind.value} scope={self.scope}>"
