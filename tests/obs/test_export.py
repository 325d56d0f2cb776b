"""Exporters: JSONL sink, Chrome trace events, ASCII timeline."""

import json

from repro import obs


def _tree(collector):
    """root -> child -> leaf, plus one event on child."""
    with obs.span("root", app="kmeans"):
        with obs.span("child") as child:
            child.event("mark", k="v")
            with obs.span("leaf"):
                pass
    return collector.snapshot()


class TestJsonl:
    def test_sink_streams_one_line_per_span(self, tmp_path, collector):
        path = str(tmp_path / "sub" / "trace.jsonl")
        sink = obs.add_sink(obs.JsonlSink(path))
        try:
            _tree(collector)
        finally:
            obs.remove_sink(sink)
            sink.close()
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3
        assert all(json.loads(ln)["type"] == "span" for ln in lines)
        spans = obs.read_jsonl(path)
        assert {s.name for s in spans} == {"root", "child", "leaf"}

    def test_read_jsonl_round_trips_links(self, tmp_path, collector):
        path = str(tmp_path / "t.jsonl")
        sink = obs.add_sink(obs.JsonlSink(path))
        try:
            _tree(collector)
        finally:
            obs.remove_sink(sink)
            sink.close()
        by_name = {s.name: s for s in obs.read_jsonl(path)}
        assert by_name["child"].parent_id == by_name["root"].span_id
        assert by_name["leaf"].parent_id == by_name["child"].span_id


class TestChromeTrace:
    def test_events_well_formed(self, collector):
        spans = _tree(collector)
        data = obs.chrome_trace(spans)
        xs = [e for e in data["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in data["traceEvents"] if e["ph"] == "i"]
        assert len(xs) == 3
        assert len(instants) == 1
        assert instants[0]["name"] == "mark"
        assert min(e["ts"] for e in xs) == 0.0   # rebased to the start
        assert all(e["dur"] >= 0 for e in xs)
        assert all(e["args"]["span_id"] for e in xs)
        by_name = {e["name"]: e for e in xs}
        assert (by_name["child"]["args"]["parent_id"]
                == by_name["root"]["args"]["span_id"])

    def test_write_is_valid_json(self, tmp_path, collector):
        spans = _tree(collector)
        path = str(tmp_path / "trace.json")
        obs.write_chrome_trace(spans, path)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        assert len(data["traceEvents"]) == 4

    def test_accepts_dicts(self, collector):
        dicts = [s.to_dict() for s in _tree(collector)]
        data = obs.chrome_trace(dicts)
        assert len(data["traceEvents"]) == 4


class TestDepthAndTimeline:
    def test_span_depth(self, collector):
        spans = _tree(collector)
        assert obs.span_depth(spans) == 3
        assert obs.span_depth([]) == 0

    def test_ascii_timeline_lists_every_span(self, collector):
        spans = _tree(collector)
        text = obs.ascii_timeline(spans)
        for name in ("root", "child", "leaf"):
            assert name in text
        # child indented one level under root
        lines = {ln.split("] ", 1)[1].split(" (")[0].rstrip(): ln
                 for ln in text.splitlines() if "] " in ln}
        assert lines["  child"].index("child") \
            > lines["root"].index("root")

    def test_ascii_timeline_truncates(self, collector):
        with obs.span("root"):
            for i in range(10):
                with obs.span(f"s{i}"):
                    pass
        text = obs.ascii_timeline(collector.snapshot(), max_spans=4)
        assert "more spans" in text
