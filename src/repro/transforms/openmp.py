"""OpenMP transforms ("Multi-Thread Parallel Loops", Fig. 4).

Annotates the kernel's parallel outermost loops with
``#pragma omp parallel for``, adding ``reduction(...)`` clauses for the
scalar reductions the dependence analysis recognised, and optionally a
``num_threads(N)`` clause (set by the "OMP Num. Threads DSE" task).
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.dependence import analyze_loop_dependences
from repro.meta.ast_api import Ast
from repro.meta.ast_nodes import ForStmt
from repro.meta.instrument import insert_pragma
from repro.transforms.extraction import TransformError


def _omp_pragma(reductions, num_threads: Optional[int],
                schedule: Optional[str]) -> str:
    text = "omp parallel for"
    if reductions:
        text += f" reduction(+:{', '.join(reductions)})"
    if schedule:
        text += f" schedule({schedule})"
    if num_threads:
        text += f" num_threads({num_threads})"
    return text


def insert_parallel_for(ast: Ast, fn_name: str,
                        num_threads: Optional[int] = None,
                        schedule: Optional[str] = None) -> List[ForStmt]:
    """Annotate parallelisable outermost loops of ``fn_name``.

    A loop qualifies when the dependence analysis reports it parallel,
    or parallel-with-reductions (handled with a reduction clause).
    Returns the annotated loops; raises :class:`TransformError` when
    none qualifies (mapping to the multi-thread CPU branch was a PSA
    error).
    """
    fn = ast.function(fn_name)
    annotated = []
    for loop in fn.outermost_loops():
        info = analyze_loop_dependences(loop)
        if not info.is_parallel_with_reductions:
            continue
        insert_pragma(
            loop, _omp_pragma(info.reductions, num_threads, schedule))
        annotated.append(loop)
    if not annotated:
        raise TransformError(
            f"no parallelisable outermost loop in {fn_name}(); "
            "the multi-thread CPU branch does not apply")
    return annotated


def set_num_threads(ast: Ast, fn_name: str, num_threads: int) -> int:
    """Re-pin the ``num_threads`` clause on annotated loops (DSE step)."""
    fn = ast.function(fn_name)
    updated = 0
    for loop in fn.outermost_loops():
        for pragma in list(loop.pragmas):
            if pragma.keyword == "omp":
                base = pragma.text.split(" num_threads(")[0]
                new_text = f"{base} num_threads({num_threads})"
                loop.pragmas.remove(pragma)
                insert_pragma(loop, new_text, replace_keyword=True)
                updated += 1
    return updated
