"""The `repro obs` console: parsing, rendering, fetch loops."""

import io
import json

import pytest

from repro.obs import console
from repro.obs.console import (
    label_values, metric_sum, parse_prometheus, render_top,
    run_top, run_trace, spans_from_chrome,
)

TEXT = """\
# HELP repro_server_jobs_inflight Jobs in flight.
# TYPE repro_server_jobs_inflight gauge
repro_server_jobs_inflight{runner="http://n1:1"} 2
repro_server_jobs_inflight{runner="http://n2:2"} 1
repro_profile_cache_total{runner="http://n1:1",tier="memory"} 5
repro_profile_cache_total{runner="http://n1:1",tier="miss"} 3
repro_fleet_reroutes_total{reason="node_loss"} 1
plain_counter 7
"""

SUMMARY = {
    "role": "router",
    "version": "1.2.3",
    "traces": {"count": 4, "dropped": 0},
    "fleet": {"healthy": 2, "total": 2, "placements": 4,
              "inflight": 3},
    "runners": [
        {"url": "http://n1:1", "state": "healthy"},
        {"url": "http://n2:2", "state": "draining"},
    ],
}


# ----------------------------------------------------------------------
# Prometheus text parsing
# ----------------------------------------------------------------------

def test_parse_prometheus_reads_labels_and_values():
    samples = parse_prometheus(TEXT)
    assert ("plain_counter", {}, 7.0) in samples
    assert ("repro_server_jobs_inflight",
            {"runner": "http://n1:1"}, 2.0) in samples


def test_parse_prometheus_skips_comments_and_junk():
    samples = parse_prometheus("# HELP x y\nbroken_line nan_nope_ok\n"
                               "fine 1\n")
    assert samples == [("fine", {}, 1.0)]


def test_parse_prometheus_unescapes_label_values():
    [(_, labels, _)] = parse_prometheus(
        r'm{path="C:\\tmp",msg="say \"hi\""} 1')
    assert labels == {"path": "C:\\tmp", "msg": 'say "hi"'}


def test_metric_sum_filters_by_label_subset():
    samples = parse_prometheus(TEXT)
    assert metric_sum(samples, "repro_server_jobs_inflight") == 3.0
    assert metric_sum(samples, "repro_server_jobs_inflight",
                      runner="http://n2:2") == 1.0
    assert metric_sum(samples, "repro_profile_cache_total",
                      runner="http://n1:1", tier="memory") == 5.0
    assert metric_sum(samples, "absent_metric") == 0.0


def test_label_values_lists_distinct_sorted():
    samples = parse_prometheus(TEXT)
    assert label_values(samples, "repro_server_jobs_inflight",
                        "runner") == ["http://n1:1", "http://n2:2"]


# ----------------------------------------------------------------------
# Dashboard rendering (pure)
# ----------------------------------------------------------------------

def test_render_top_shows_fleet_runners_and_totals():
    frame = render_top(SUMMARY, parse_prometheus(TEXT))
    assert "router v1.2.3" in frame and "traces 4" in frame
    assert "runners 2/2 healthy" in frame
    assert "placements 4" in frame and "inflight 3" in frame
    lines = frame.splitlines()
    n1 = next(l for l in lines if l.startswith("http://n1:1"))
    assert "healthy" in n1
    fields = n1.split()
    assert "2" in fields            # inflight
    assert "5" in fields and "3" in fields  # hit:mem / miss
    n2 = next(l for l in lines if l.startswith("http://n2:2"))
    assert "draining" in n2
    assert "reroutes 1" in frame


def test_render_top_collapses_to_local_row_without_fleet():
    summary = {"role": "runner", "version": "1.2.3"}
    frame = render_top(summary, parse_prometheus("plain 1\n"))
    assert "(local)" in frame


# ----------------------------------------------------------------------
# Chrome-event round trip
# ----------------------------------------------------------------------

def test_spans_from_chrome_rebuilds_spans():
    from repro import obs

    collector = obs.add_sink(obs.SpanCollector())
    try:
        with obs.span("outer", runner="http://n1"):
            with obs.span("inner"):
                pass
    finally:
        obs.remove_sink(collector)
    trace = obs.chrome_trace(collector.snapshot())
    spans = spans_from_chrome(trace)
    by_name = {s.name: s for s in spans}
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].attrs["runner"] == "http://n1"
    assert by_name["inner"].t0 >= by_name["outer"].t0
    assert by_name["inner"].end <= by_name["outer"].end + 1e-6


# ----------------------------------------------------------------------
# Fetch loops (monkeypatched transport)
# ----------------------------------------------------------------------

@pytest.fixture
def fake_endpoints(monkeypatch):
    def fetch_text(server, path, timeout_s=10.0):
        assert server == "http://router:9"
        if path == "/metrics":
            return TEXT
        if path == "/v1/obs/summary":
            return json.dumps(SUMMARY)
        raise AssertionError(f"unexpected path {path}")

    monkeypatch.setattr(console, "fetch_text", fetch_text)


def test_run_top_once_renders_a_single_frame(fake_endpoints):
    out = io.StringIO()
    assert run_top("http://router:9", once=True, stream=out) == 0
    frame = out.getvalue()
    assert "repro fleet console" in frame
    assert "\x1b[" not in frame        # --once never clears the screen


def test_run_top_reports_unreachable_servers():
    out = io.StringIO()
    assert run_top("http://127.0.0.1:1", once=True, stream=out) == 1


def test_run_trace_writes_json_and_renders_timeline(tmp_path,
                                                    monkeypatch):
    from repro import obs

    collector = obs.add_sink(obs.SpanCollector())
    try:
        with obs.span("fleet.job"):
            with obs.span("service.job", runner="http://n1"):
                pass
    finally:
        obs.remove_sink(collector)
    trace = obs.chrome_trace(collector.snapshot())
    monkeypatch.setattr(console, "fetch_json",
                        lambda server, path, timeout_s=10.0: trace)
    out_path = tmp_path / "trace.json"
    out = io.StringIO()
    assert run_trace("http://router:9", "abc123",
                     out_path=str(out_path), timeline=True,
                     stream=out) == 0
    written = json.loads(out_path.read_text())
    assert len(written["traceEvents"]) == 2
    rendered = out.getvalue()
    assert "2 spans" in rendered and "http://n1" in rendered
    assert "fleet.job" in rendered


def test_run_trace_maps_404_to_an_error_exit(monkeypatch):
    import urllib.error

    def missing(server, path, timeout_s=10.0):
        raise urllib.error.HTTPError(server + path, 404, "nope", {},
                                     io.BytesIO(b"{}"))

    monkeypatch.setattr(console, "fetch_json", missing)
    assert run_trace("http://router:9", "missing") == 1
