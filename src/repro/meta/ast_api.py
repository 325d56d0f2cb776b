"""The ``Ast(src)`` façade of Fig. 2.

Wraps a parsed translation unit with the operations meta-programs use:
query, instrument (via :mod:`repro.meta.instrument` on the nodes),
execution against a workload (``report = exec(ast)`` in Fig. 2 -- here
backed by the :mod:`repro.lang` interpreter), cloning for DSE
candidates, and export to readable source.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro import obs
from repro.meta.ast_nodes import ForStmt, FunctionDecl, TranslationUnit
from repro.meta.parser import parse as _parse
from repro.meta.query import Match, Query
from repro.meta.unparse import count_loc, unparse


def parse(source: str) -> TranslationUnit:
    """Parse UHL source (the ``repro.meta.parser`` front end), emitting
    one ``parse`` span per call -- the chokepoint ``run --time`` and
    trace exports read the parse phase from."""
    with obs.span("parse", phase="parse", chars=len(source)):
        return _parse(source)


class Ast:
    """A queryable, instrumentable, executable program representation."""

    def __init__(self, source: str, name: str = "app.cpp"):
        """Parse ``source`` (UHL C/C++ subset). ``name`` labels exports."""
        self.name = name
        self.unit: TranslationUnit = parse(source)

    # -- alternative constructors ------------------------------------------
    @classmethod
    def from_file(cls, path: str) -> "Ast":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(fh.read(), name=os.path.basename(path))

    @classmethod
    def from_unit(cls, unit: TranslationUnit, name: str = "app.cpp") -> "Ast":
        ast = cls.__new__(cls)
        ast.name = name
        ast.unit = unit
        return ast

    # -- query ------------------------------------------------------------
    def query(self) -> Query:
        """Start a fluent query over the whole unit."""
        return Query(self.unit)

    def functions(self) -> List[FunctionDecl]:
        return self.unit.functions()

    def function(self, name: str) -> FunctionDecl:
        return self.unit.function(name)

    def has_function(self, name: str) -> bool:
        return self.unit.has_function(name)

    def loops(self, fn_name: Optional[str] = None) -> List[ForStmt]:
        root = self.unit.function(fn_name) if fn_name else self.unit
        return [n for n in root.walk() if isinstance(n, ForStmt)]

    def outermost_loops(self, fn_name: str) -> List[ForStmt]:
        """The Fig. 2 query: outermost for-loops enclosed in a function."""
        matches = (self.query()
                   .row("loop", ForStmt)
                   .row("fn", FunctionDecl)
                   .where(lambda loop, fn: fn.name == fn_name
                          and fn.encloses(loop)
                          and loop.is_outermost)
                   .all())
        return [m.loop for m in matches]

    # -- execution (dynamic tasks) ------------------------------------------
    def execute(self, workload=None, entry: str = "main",
                max_steps: Optional[int] = None):
        """Run the program; returns an ExecReport.

        ``workload`` is a :class:`repro.lang.interpreter.Workload`-like
        mapping of external buffers/scalars made visible to the program
        through its builtin environment.  Dynamic analysis tasks (hotspot
        detection, trip counts, data movement) call this -- it is the
        ``exec(ast)`` of Fig. 2.

        Execution goes through :mod:`repro.lang.engine`: the closure
        compiler, or the tree-walking reference interpreter in a
        process started with ``REPRO_EXEC=interp`` (both produce
        identical reports).
        """
        from repro.lang.engine import execute_unit

        return execute_unit(self.unit, workload=workload, entry=entry,
                            max_steps=max_steps)

    # -- output --------------------------------------------------------------
    @property
    def source(self) -> str:
        """Current (possibly instrumented/transformed) source text."""
        return unparse(self.unit)

    @property
    def loc(self) -> int:
        """Lines of code of the current source (Table I metric)."""
        return count_loc(self.source)

    def export(self, path: str) -> str:
        """Write the current source to ``path``; returns the text written."""
        text = self.source
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return text

    def clone(self, name: Optional[str] = None) -> "Ast":
        """Deep copy (DSE candidates mutate clones, not the reference)."""
        dup = Ast.__new__(Ast)
        dup.name = name or self.name
        dup.unit = self.unit.clone()  # type: ignore[assignment]
        return dup

    def clone_function(self, fn_name: str,
                       name: Optional[str] = None) -> "Ast":
        """A kernel-view clone: copy only ``fn_name``'s subtree.

        DSE candidates mutate exactly one function (pragmas on the
        kernel's loops), so copying the whole translation unit per
        candidate is wasted allocation proportional to the *program*
        rather than the *kernel*.  The returned Ast owns a fresh clone
        of ``fn_name`` and shares every other declaration with the
        original unit; callers must only mutate the cloned function.
        """
        decls = []
        for decl in self.unit.decls:
            if isinstance(decl, FunctionDecl) and decl.name == fn_name:
                decls.append(decl.clone())
            else:
                decls.append(decl)
        unit = TranslationUnit(decls)
        unit.preamble = list(self.unit.preamble)
        dup = Ast.__new__(Ast)
        dup.name = name or self.name
        dup.unit = unit
        return dup

    def __repr__(self):
        fns = ", ".join(f.name for f in self.functions())
        return f"<Ast {self.name!r} functions=[{fns}]>"
