"""repro.obs.collect: traceparent codec, buffers, stitching, federation."""

import pytest

from repro import obs
from repro.obs.collect import (
    SpanBuffer, TraceStore, align_spans, clock_offset,
    federate_metrics, format_traceparent, parse_traceparent,
)
from repro.obs.span import Span, new_trace_id


_IDS = iter(range(1, 1 << 30))


def finished_span(name="work", trace_id=None, parent_id=None, t0=10.0,
                  dur=0.5, **attrs):
    span = Span(name=name, trace_id=trace_id or new_trace_id(),
                span_id=f"fa.{next(_IDS):x}", parent_id=parent_id,
                t0=t0, attrs=attrs)
    span.end = t0 + dur
    return span


# ----------------------------------------------------------------------
# traceparent codec
# ----------------------------------------------------------------------

def test_traceparent_round_trips_a_real_span_context(collector):
    with obs.span("job") as root:
        pass
    ctx = {"trace_id": root.trace_id, "span_id": root.span_id}
    header = format_traceparent(ctx)
    assert header == f"00-{root.trace_id}-{root.span_id}-01"
    assert parse_traceparent(header) == ctx


def test_traceparent_span_ids_keep_their_pid_dot():
    # span ids are "<pid hex>.<counter hex>" -- the dot must survive
    header = format_traceparent({"trace_id": "ab" * 8,
                                 "span_id": "1f4.2a"})
    parsed = parse_traceparent(header)
    assert parsed["span_id"] == "1f4.2a"


def test_format_traceparent_requires_both_ids():
    assert format_traceparent(None) is None
    assert format_traceparent({}) is None
    assert format_traceparent({"trace_id": "ab" * 8}) is None
    assert format_traceparent({"span_id": "1.2"}) is None


@pytest.mark.parametrize("value", [
    None, "", "garbage", "00-xyz-1.2-01", "01-" + "ab" * 8 + "-1f-01",
    "00-" + "ab" * 8 + "-1f", "00--1f-01", "00-" + "ab" * 20 + "-1f-01",
    "00-" + "ab" * 8 + "-1f-zz", 42,
])
def test_parse_traceparent_rejects_malformed_values(value):
    assert parse_traceparent(value) is None


def test_parse_traceparent_tolerates_whitespace():
    assert parse_traceparent(f"  00-{'cd' * 8}-3.4-01 ") == \
        {"trace_id": "cd" * 8, "span_id": "3.4"}


# ----------------------------------------------------------------------
# clock alignment
# ----------------------------------------------------------------------

def test_clock_offset_is_the_round_trip_midpoint_delta():
    # local sends at t=100, hears back at t=100.2; the remote said its
    # clock read 40.0 -- so remote + 60.1 lands on the local clock
    assert clock_offset(100.0, 100.2, 40.0) == pytest.approx(60.1)
    # clocks already aligned, instant round trip: no correction
    assert clock_offset(50.0, 50.0, 50.0) == 0.0


def test_align_spans_shifts_timestamps_and_stamps_the_runner():
    span = finished_span(t0=5.0, dur=1.0)
    span.events.append(obs.SpanEvent(name="tick", t=5.5))
    [aligned] = align_spans([span.to_dict()], offset_s=2.0,
                            runner="http://n1:8000")
    assert aligned["t0"] == pytest.approx(7.0)
    assert aligned["end"] == pytest.approx(8.0)
    assert aligned["events"][0]["t"] == pytest.approx(7.5)
    assert aligned["attrs"]["runner"] == "http://n1:8000"


def test_align_spans_leaves_the_input_dicts_alone():
    original = finished_span(t0=1.0).to_dict()
    align_spans([original], offset_s=100.0, runner="x")
    assert original["t0"] == 1.0
    assert "runner" not in original["attrs"]


# ----------------------------------------------------------------------
# SpanBuffer
# ----------------------------------------------------------------------

def test_span_buffer_drains_incrementally():
    buffer = SpanBuffer(cap=16)
    buffer.emit(finished_span("a"))
    buffer.emit(finished_span("b"))
    spans, cursor = buffer.since(0)
    assert [s["name"] for s in spans] == ["a", "b"]
    assert len(buffer) == 2
    again, cursor2 = buffer.since(cursor)
    assert again == [] and cursor2 == cursor
    buffer.emit(finished_span("c"))
    fresh, _ = buffer.since(cursor)
    assert [s["name"] for s in fresh] == ["c"]


def test_span_buffer_overflow_drops_oldest_and_counts():
    buffer = SpanBuffer(cap=2)
    for name in ("a", "b", "c", "d"):
        buffer.emit(finished_span(name))
    spans, _ = buffer.since(0)
    assert [s["name"] for s in spans] == ["c", "d"]
    assert buffer.dropped == 2


def test_span_buffer_works_as_an_obs_sink():
    buffer = SpanBuffer()
    obs.add_sink(buffer)
    try:
        with obs.span("visible"):
            pass
    finally:
        obs.remove_sink(buffer)
    spans, _ = buffer.since(0)
    assert [s["name"] for s in spans] == ["visible"]


def test_span_buffer_rejects_zero_cap():
    with pytest.raises(ValueError):
        SpanBuffer(cap=0)


# ----------------------------------------------------------------------
# TraceStore
# ----------------------------------------------------------------------

def test_trace_store_groups_by_trace_and_dedups_span_ids():
    store = TraceStore()
    trace = new_trace_id()
    span = finished_span("root", trace_id=trace)
    child = finished_span("child", trace_id=trace,
                          parent_id=span.span_id)
    assert store.ingest([span.to_dict(), child.to_dict()]) == 2
    # the on-demand pull re-reads what the loop already collected
    assert store.ingest([child.to_dict()], runner="http://n1") == 0
    assert len(store.spans(trace)) == 2
    assert store.trace_ids() == [trace]


def test_trace_store_applies_clock_offset_and_runner():
    store = TraceStore()
    span = finished_span("remote", t0=100.0)
    store.ingest([span.to_dict()], offset_s=-40.0, runner="http://n2")
    [stored] = store.spans(span.trace_id)
    assert stored["t0"] == pytest.approx(60.0)
    assert stored["attrs"]["runner"] == "http://n2"


def test_trace_store_reads_one_runner_with_one_offset():
    # the child finished (and was pulled) first; the estimate moved
    # 60 ms before the parent's pull, and must not reorder the two
    store = TraceStore()
    parent = finished_span("flow", t0=10.0, dur=2.0)
    child = finished_span("parse", trace_id=parent.trace_id, t0=10.01,
                          dur=0.01, parent_id=parent.span_id)
    store.ingest([child.to_dict()], offset_s=-0.06, runner="http://n3")
    store.ingest([parent.to_dict()], offset_s=0.0, runner="http://n3")
    by_name = {s["name"]: s for s in store.spans(parent.trace_id)}
    assert by_name["flow"]["t0"] == pytest.approx(10.0)
    assert by_name["parse"]["t0"] == pytest.approx(10.01)


def test_trace_store_evicts_least_recently_updated_trace():
    store = TraceStore(max_traces=2)
    first, second, third = (finished_span(str(i)) for i in range(3))
    store.ingest([first.to_dict()])
    store.ingest([second.to_dict()])
    # touching `first` makes `second` the eviction candidate
    store.ingest([finished_span("more", trace_id=first.trace_id)
                  .to_dict()])
    store.ingest([third.to_dict()])
    assert set(store.trace_ids()) == {first.trace_id, third.trace_id}
    assert store.spans(second.trace_id) == []


def test_trace_store_caps_spans_per_trace():
    store = TraceStore(max_spans_per_trace=2)
    trace = new_trace_id()
    dicts = [finished_span(str(i), trace_id=trace).to_dict()
             for i in range(4)]
    assert store.ingest(dicts) == 2
    assert store.dropped == 2


def test_trace_store_skips_spans_without_ids():
    store = TraceStore()
    broken = finished_span("x").to_dict()
    broken["trace_id"] = None
    assert store.ingest([broken]) == 0
    assert len(store) == 0


# ----------------------------------------------------------------------
# Prometheus federation
# ----------------------------------------------------------------------

OWN = """\
# HELP repro_fleet_runners_healthy Healthy runner count.
# TYPE repro_fleet_runners_healthy gauge
repro_fleet_runners_healthy 2
"""

PEER = """\
# HELP repro_server_jobs_inflight Jobs in flight.
# TYPE repro_server_jobs_inflight gauge
repro_server_jobs_inflight 3
# TYPE repro_profile_cache_total counter
repro_profile_cache_total{tier="memory"} 7
"""


def test_federation_labels_peer_samples_with_the_runner():
    text = federate_metrics(OWN, [("http://n1:8000", PEER)])
    assert "repro_fleet_runners_healthy 2" in text
    assert ('repro_server_jobs_inflight'
            '{runner="http://n1:8000"} 3') in text
    assert ('repro_profile_cache_total'
            '{runner="http://n1:8000",tier="memory"} 7') in text


def test_federation_merges_families_under_one_type_header():
    text = federate_metrics(OWN, [("http://n1", PEER),
                                  ("http://n2", PEER)])
    assert text.count("# TYPE repro_server_jobs_inflight gauge") == 1
    assert 'repro_server_jobs_inflight{runner="http://n1"} 3' in text
    assert 'repro_server_jobs_inflight{runner="http://n2"} 3' in text
    # every sample of a family sits under its single header
    lines = text.splitlines()
    header_at = lines.index("# TYPE repro_server_jobs_inflight gauge")
    assert lines[header_at + 1].startswith("repro_server_jobs_inflight")
    assert lines[header_at + 2].startswith("repro_server_jobs_inflight")


def test_federation_keeps_histogram_series_with_their_family():
    own = ""
    peer = ("# TYPE repro_http_request_seconds histogram\n"
            'repro_http_request_seconds_bucket{le="1"} 4\n'
            "repro_http_request_seconds_sum 2.5\n"
            "repro_http_request_seconds_count 4\n")
    text = federate_metrics(own, [("n1", peer)])
    assert text.count("# TYPE") == 1
    assert ('repro_http_request_seconds_bucket'
            '{runner="n1",le="1"} 4') in text
    assert 'repro_http_request_seconds_sum{runner="n1"} 2.5' in text


def test_federation_escapes_label_values():
    peer = 'weird_metric 1\n'
    text = federate_metrics("", [('node"with\\quirks', peer)])
    assert r'weird_metric{runner="node\"with\\quirks"} 1' in text


def test_federated_output_parses_as_prometheus_text():
    from repro.obs.console import metric_sum, parse_prometheus

    text = federate_metrics(OWN, [("http://n1", PEER),
                                  ("http://n2", PEER)])
    samples = parse_prometheus(text)
    assert metric_sum(samples, "repro_server_jobs_inflight") == 6.0
    assert metric_sum(samples, "repro_server_jobs_inflight",
                      runner="http://n1") == 3.0
    assert metric_sum(samples, "repro_fleet_runners_healthy") == 2.0
