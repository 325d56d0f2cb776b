"""Overlap-free self time on synthetic span trees.

    python3 -m pytest perfbench/tests
"""

import os
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pytest  # noqa: E402

from spans import (  # noqa: E402
    LayerTotals, Recorder, Span, attribute, self_time, union_length,
)


def span(layer, start, end, parent=None):
    s = Span(layer, start, parent)
    s.end = end
    return s


def test_union_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], lo=2, hi=4) == 2
    assert union_length([(3, 3), (4, 2)]) == 0
    assert union_length([]) == 0


def test_nested_tree_self_times_sum_to_wall():
    root = span("flow", 0.0, 10.0)
    analysis = span("analysis", 1.0, 6.0, root)
    span("lang.exec", 2.0, 5.0, analysis)
    span("meta.parse", 2.5, 3.0, analysis.children[0])
    span("codegen", 7.0, 9.0, root)
    self_s, calls, error = attribute(root)
    assert self_s == pytest.approx({"flow": 3.0, "analysis": 2.0,
                                    "lang.exec": 2.5, "meta.parse": 0.5,
                                    "codegen": 2.0})
    assert calls["flow"] == 1 and calls["meta.parse"] == 1
    assert sum(self_s.values()) == pytest.approx(10.0)
    assert error == pytest.approx(0.0)


def test_overlapping_children_are_not_counted_twice_by_the_parent():
    root = span("flow", 0.0, 10.0)
    span("dse", 1.0, 5.0, root)
    span("dse", 3.0, 7.0, root)
    # the parent loses the union [1, 7], not 4 + 4
    assert self_time(root) == pytest.approx(4.0)
    # ... but the overlap is time both children claim, which the
    # per-job check reports as attribution error
    _, _, error = attribute(root)
    assert error == pytest.approx(2.0 / 10.0)


def test_child_sticking_out_of_its_parent_is_clipped():
    root = span("flow", 0.0, 4.0)
    span("lang.exec", 3.0, 6.0, root)
    assert self_time(root) == pytest.approx(3.0)


def test_layer_totals_aggregate_jobs():
    totals = LayerTotals()
    for _ in range(2):
        root = span("flow", 0.0, 2.0)
        span("lang.exec", 0.5, 1.5, root)
        totals.add(root)
    assert totals.jobs == 2
    assert totals.per_job_ms("lang.exec") == pytest.approx(1000.0)
    assert totals.per_job_ms("flow") == pytest.approx(1000.0)
    assert totals.calls_per_job("lang.exec") == 1
    other = LayerTotals()
    other.merge(totals.to_dict())
    assert other.self_s == totals.self_s and other.jobs == 2


def test_recorder_nests_calls_and_adopts_worker_threads():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    parse = recorder.wrap(lambda: None, "meta.parse")

    def execute():
        parse()

    execute = recorder.wrap(execute, "lang.exec")
    recorder.start_job("flow")           # t=0
    execute()                            # exec 1..4, parse 2..3
    worker = threading.Thread(target=parse)
    worker.start()                       # parse 5..6 on another thread
    worker.join(timeout=5)
    assert not worker.is_alive()
    root = recorder.finish_job()         # t=7
    self_s, calls, error = attribute(root)
    assert calls == {"flow": 1, "lang.exec": 1, "meta.parse": 2}
    assert self_s == pytest.approx({"flow": 3.0, "lang.exec": 2.0,
                                    "meta.parse": 2.0})
    assert error == pytest.approx(0.0)
