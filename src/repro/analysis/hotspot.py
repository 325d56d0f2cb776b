"""Dynamic hotspot loop identification ("Identify Hotspot Loops", Fig. 4).

Exactly the mechanism the paper describes for Fig. 3: "Hotspot detection
instruments the application with loop timers and executes the
instrumented code to dynamically identify time-consuming loops as
candidates for acceleration."

The meta-program:

1. clones the reference AST (the reference itself is never modified);
2. queries the outermost for-loops of the entry function;
3. wraps each in ``timer_start("...")`` / ``timer_stop("...")`` calls;
4. executes the instrumented program on the workload;
5. ranks loops by measured (virtual-clock) time share.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.analysis.common import LoopPath
from repro.lang.interpreter import Workload
from repro.meta.ast_api import Ast
from repro.meta.instrument import wrap_around


class HotspotInfo(NamedTuple):
    """One timed candidate loop."""

    path: LoopPath          # position of the loop in the *reference* AST
    cycles: float           # virtual-clock time inside the loop
    fraction: float         # share of total program time

    @property
    def timer_id(self) -> str:
        return str(self.path)


def identify_hotspot_loops(ast: Ast, workload: Workload,
                           entry: str = "main",
                           min_fraction: float = 0.0) -> List[HotspotInfo]:
    """Time every outermost loop of ``entry``; return hotspots, hottest first.

    ``min_fraction`` filters out loops below a time-share threshold
    (setup/teardown loops).  The returned loop paths refer to the
    reference ``ast`` so downstream tasks (extraction) can resolve them.
    """
    candidates = ast.outermost_loops(entry)
    if not candidates:
        return []
    position = {loop: index
                for index, loop in enumerate(ast.function(entry).loops())}
    paths = [LoopPath(entry, position[loop]) for loop in candidates]

    instrumented = ast.clone()
    copies = instrumented.function(entry).loops()
    for path in paths:
        loop = copies[path.index]
        timer = str(path)
        wrap_around(loop,
                    prologue=[f'timer_start("{timer}");'],
                    epilogue=[f'timer_stop("{timer}");'])

    from repro.analysis.profile import collect_profile
    report = collect_profile(instrumented, workload, entry=entry)
    total = report.total_cycles() or 1.0

    infos = [HotspotInfo(path=path,
                         cycles=report.timer(str(path)),
                         fraction=report.timer(str(path)) / total)
             for path in paths]
    infos.sort(key=lambda info: info.cycles, reverse=True)
    return [info for info in infos if info.fraction >= min_fraction]


def hottest_loop(ast: Ast, workload: Workload,
                 entry: str = "main") -> Optional[HotspotInfo]:
    """Convenience: the single most time-consuming outermost loop."""
    infos = identify_hotspot_loops(ast, workload, entry)
    return infos[0] if infos else None
