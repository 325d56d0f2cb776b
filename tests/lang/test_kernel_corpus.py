"""Generated-kernel differential corpus.

Hypothesis drives :mod:`tests.lang.kernelgen` through a few hundred
kernels.  Each must give identical observable results under the
interpreter and the compiled engine -- or fault with the same
exception and message -- and its source must be a parse -> unparse ->
parse fixed point.  Kernels the search once found diverging are kept
below, shrunk, as named regression tests.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.lang.compiler import compile_unit
from repro.lang.interpreter import Interpreter, Workload
from repro.meta.parser import parse
from repro.meta.unparse import unparse
from tests.lang.kernelgen import FEATURES, generate, kernels
from tests.lang.test_compiler_differential import compare_runs


def check_source(source, workload_factory=Workload):
    unit = parse(source)
    once = unparse(unit)
    assert unparse(parse(once)) == once
    wa, wb = workload_factory(), workload_factory()
    try:
        ra = Interpreter(unit, wa).run()
    except Exception as exc:
        with pytest.raises(Exception) as caught:
            compile_unit(unit).run(wb)
        assert type(caught.value) is type(exc)
        assert str(caught.value) == str(exc)
        return
    compare_runs(ra, compile_unit(unit).run(wb), wa, wb)


@settings(max_examples=350, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(kernels())
def test_generated_kernels_agree(kernel):
    check_source(kernel.source, kernel.workload)


def test_seeded_corpus_covers_every_feature():
    labels = set()
    for seed in range(150):
        labels |= generate(seed).labels
    assert labels >= FEATURES, sorted(FEATURES - labels)


class TestShrunkReproducers:
    """Minimal kernels that once diverged between the engines."""

    def test_out_of_bounds_read_in_expression_position(self):
        # the compiled bounds check built the fault but did not raise
        # it, so the read yielded the exception object as its value
        check_source("int main() { int a[2]; return a[5]; }")
