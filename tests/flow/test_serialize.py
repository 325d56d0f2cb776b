"""FlowResult serialization round-trip tests.

serialize -> deserialize -> the same designs, speedups and decision
trace; this guards the disk format `repro.service.cache` persists.
(`tests/test_serialize_and_dump.py` covers the outbound dict shape;
this file covers the return trip.)
"""

import json

import pytest

from repro.apps.registry import get_app
from repro.codegen.design import Design
from repro.flow.engine import FlowEngine
from repro.flow.psa import PSADecision
from repro.flow.serialize import (
    DesignRecord, FlowResultRecord, _jsonable, design_from_dict,
    design_to_dict, dump_result, load_result, result_from_dict,
    result_to_dict,
)

APPS = ("rush_larsen", "nbody", "bezier", "adpredictor", "kmeans")


@pytest.fixture(scope="module")
def round_tripped(kmeans_uninformed):
    data = result_to_dict(kmeans_uninformed, include_sources=True)
    # force through actual JSON so nothing non-serializable sneaks by
    return kmeans_uninformed, result_from_dict(json.loads(json.dumps(data)))


class TestResultRoundTrip:
    def test_same_designs(self, round_tripped):
        original, record = round_tripped
        assert isinstance(record, FlowResultRecord)
        assert [d.label for d in record.designs] \
            == [d.label for d in original.designs]
        for ours, want in zip(record.designs, original.designs):
            assert ours.kind == want.kind
            assert ours.device == want.device
            assert ours.synthesizable == want.synthesizable
            assert ours.failure_reason == want.failure_reason
            assert ours.metadata["device_label"] \
                == want.metadata["device_label"]

    def test_same_speedups_and_times(self, round_tripped):
        original, record = round_tripped
        for ours, want in zip(record.designs, original.designs):
            assert ours.speedup == want.speedup
            assert ours.predicted_time_s == want.predicted_time_s
        assert record.reference_time_s == original.reference_time_s
        assert record.auto_selected.speedup \
            == original.auto_selected.speedup

    def test_same_loc_metrics(self, round_tripped):
        original, record = round_tripped
        for ours, want in zip(record.designs, original.designs):
            assert ours.loc == want.loc
            assert ours.reference_loc == want.reference_loc
            assert ours.loc_delta == want.loc_delta
            assert ours.loc_delta_pct == want.loc_delta_pct

    def test_same_decision_trace(self, round_tripped):
        original, record = round_tripped
        assert record.trace == original.trace
        assert record.explain() == original.explain()
        decision = record.decisions["psa:A"]
        assert isinstance(decision, PSADecision)
        assert decision.selected == original.facts["psa:A"].selected
        assert decision.reasons == original.facts["psa:A"].reasons
        assert record.selected_target == original.selected_target

    def test_sources_render(self, round_tripped):
        original, record = round_tripped
        omp = record.design("omp")
        assert omp.render() == original.design("omp").render()

    def test_reserialization_is_identical(self, round_tripped):
        """record -> dict == original -> dict (cache rewrites safely)."""
        original, record = round_tripped
        assert result_to_dict(record, include_sources=True) \
            == result_to_dict(original, include_sources=True)

    def test_record_api_matches_flowresult(self, round_tripped):
        original, record = round_tripped
        assert record.app.display_name == original.app.display_name
        assert len(record.synthesizable_designs) \
            == len(original.synthesizable_designs)
        assert record.design("no-such-label") is None


class TestDesignRecord:
    def test_design_round_trip(self, kmeans_uninformed):
        design = kmeans_uninformed.designs[0]
        data = design_to_dict(design, include_source=True)
        record = design_from_dict(data)
        assert isinstance(record, DesignRecord)
        assert record.label == design.label
        assert design_to_dict(record, include_source=True) == data

    def test_render_without_source_raises(self, kmeans_uninformed):
        record = design_from_dict(
            design_to_dict(kmeans_uninformed.designs[0]))
        with pytest.raises(ValueError, match="without sources"):
            record.render()

    def test_buffer_lookup(self, kmeans_uninformed):
        record = design_from_dict(
            design_to_dict(kmeans_uninformed.designs[0]))
        assert record.buffer("points").direction in ("in", "inout")
        with pytest.raises(KeyError):
            record.buffer("nope")


class TestFileRoundTrip:
    def test_dump_then_load(self, tmp_path, kmeans_informed):
        path = str(tmp_path / "result.json")
        dump_result(kmeans_informed, path, include_sources=True)
        record = load_result(path)
        assert record.app_name == "kmeans"
        assert record.mode == "informed"
        assert record.selected_target == kmeans_informed.selected_target
        assert record.auto_selected.speedup \
            == kmeans_informed.auto_selected.speedup


@pytest.fixture(scope="module")
def small_flows():
    """Every app in both modes at a small scale (~1 s in all)."""
    engine = FlowEngine()
    return {(app, mode): engine.run(get_app(app), mode, scale=0.25)
            for app in APPS for mode in ("informed", "uninformed")}


def _per_property(design, include_source):
    """The design dict read property by property: ``loc``,
    ``loc_delta_pct`` and the source each render the design."""
    out = {
        "label": design.label,
        "app": design.app_name,
        "kind": design.kind,
        "device": design.device,
        "kernel": design.kernel_name,
        "synthesizable": design.synthesizable,
        "failure_reason": design.failure_reason,
        "predicted_time_s": design.predicted_time_s,
        "speedup": design.speedup,
        "loc": design.loc,
        "reference_loc": design.reference_loc,
        "loc_delta_pct": design.loc_delta_pct,
        "metadata": _jsonable(design.metadata),
        "buffers": [{"name": b.name, "nbytes": b.nbytes,
                     "direction": b.direction} for b in design.buffers],
    }
    if include_source:
        out["source"] = design.render()
    return out


class TestOneRenderPerDesign:
    @pytest.mark.parametrize("include_sources", [False, True])
    def test_each_design_renders_once(self, monkeypatch, small_flows,
                                      include_sources):
        rendered = []
        real = Design.render

        def counting(design):
            rendered.append(design.label)
            return real(design)

        monkeypatch.setattr(Design, "render", counting)
        for result in small_flows.values():
            rendered.clear()
            result_to_dict(result, include_sources=include_sources)
            assert sorted(rendered) == sorted(
                d.label for d in result.designs)

    @pytest.mark.parametrize("include_sources", [False, True])
    def test_same_dict_as_reading_each_property(self, small_flows,
                                                include_sources):
        for (app, mode), result in small_flows.items():
            designs = result_to_dict(result, include_sources)["designs"]
            expected = [_per_property(d, include_sources)
                        for d in result.designs]
            assert designs == expected, (app, mode)
            # key for key, in the same order (the JSON text depends on it)
            assert json.dumps(designs) == json.dumps(expected), (app, mode)
