"""Top-level CLI and report-writer tests."""

import os

import pytest

from repro.__main__ import build_parser, main as cli_main
from repro.evalharness.report import build_report, write_report


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("nbody", "kmeans", "adpredictor", "rush_larsen",
                     "bezier"):
            assert name in out

    def test_run_informed_with_export(self, tmp_path, capsys):
        export = str(tmp_path / "designs")
        assert cli_main(["run", "kmeans", "--mode", "informed",
                         "--export-dir", export, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "informed selection: omp" in out
        assert "[PSA] branch A" in out
        files = os.listdir(export)
        assert files == ["kmeans_omp.cpp"]
        text = open(os.path.join(export, files[0])).read()
        assert "#pragma omp parallel for" in text

    def test_run_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_eval_table2(self, capsys):
        assert cli_main(["eval", "table2"]) == 0
        assert "This Work" in capsys.readouterr().out


class TestReport:
    def test_build_report_contains_all_sections(self, runner):
        text = build_report(runner)
        for heading in ("Fig. 5", "Table I", "Fig. 6", "Energy",
                        "Table II", "Decision traces"):
            assert heading in text
        # per-app traces present
        assert "K-Means (informed)" in text
        assert "branch A" in text

    def test_write_report(self, tmp_path, runner):
        path = str(tmp_path / "report.md")
        write_report(path, runner)
        assert os.path.exists(path)
        assert open(path).read().startswith("# PSA-flow reproduction")


def test_cli_run_json_output(tmp_path, capsys):
    import json

    path = str(tmp_path / "out.json")
    assert cli_main(["run", "kmeans", "--json", path]) == 0
    data = json.loads(open(path).read())
    assert data["selected_target"] == "omp"
    assert data["designs"][0]["speedup"] > 1


def test_cli_batch_telemetry_report_and_json(tmp_path, capsys,
                                            monkeypatch):
    import json

    from repro.config import ENV_VARS

    # the CLI writes its resolved config (--cache-dir included) into
    # os.environ; setenv records each variable so teardown restores it
    # and later flows do not hit this cache
    for _field, var in ENV_VARS:
        monkeypatch.setenv(var, "")
        monkeypatch.delenv(var)
    cache = str(tmp_path / "cache")
    path = str(tmp_path / "batch.json")
    argv = ["batch", "--apps", "kmeans", "--modes", "informed",
            "--pool", "thread", "--cache-dir", cache]
    assert cli_main(argv + ["--telemetry", "--json", path]) == 0
    out = capsys.readouterr().out
    assert "misses 1 | runs 1" in out
    assert "disk cache: 0 hits / 1 misses / 1 writes" in out
    assert "phase breakdown (wall):" in out
    assert "kmeans/informed" in out.split("slowest jobs")[1]
    data = json.loads(open(path).read())
    assert [(j["app"], j["source"], j["ok"]) for j in data["jobs"]] \
        == [("kmeans", "run", True)]
    assert data["cache"]["writes"] == 1
    phases = data["phases"]
    assert phases["total"] > 0
    assert sum(secs for row, secs in phases.items() if row != "total") \
        == pytest.approx(phases["total"], rel=1e-9)

    assert cli_main(argv + ["--telemetry"]) == 0
    out = capsys.readouterr().out
    assert "cache hits 1 (disk 1, memory 0) | misses 0 | runs 0" in out
    assert "phase breakdown" not in out       # nothing ran
