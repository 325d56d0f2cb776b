"""repro.api: the unified facade, its shims, and the shared CLI flags."""

import warnings

import pytest

from repro import api
from repro.__main__ import build_parser
from repro.apps.registry import PAPER_ORDER
from repro.config import ReproConfig
from repro.flow.engine import FlowResult
from repro.flow.serialize import result_to_dict
from repro.service import DesignService


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------

def test_list_apps_paper_order_first():
    names = [app["name"] for app in api.list_apps()]
    assert names[:len(PAPER_ORDER)] == list(PAPER_ORDER)
    assert all({"name", "display_name", "reference_loc",
                "summary"} <= set(app) for app in api.list_apps())


def test_list_modes():
    assert set(api.list_modes()) == {"informed", "uninformed"}


# ----------------------------------------------------------------------
# run_flow / open_service / submit / gather
# ----------------------------------------------------------------------

def test_run_flow_default_config_runs_on_engine(kmeans_informed):
    result = api.run_flow("kmeans", "informed")
    assert isinstance(result, FlowResult)
    assert result_to_dict(result) == result_to_dict(kmeans_informed)


def test_run_flow_through_service_matches_engine(tmp_path,
                                                 kmeans_informed):
    cfg = ReproConfig(cache_dir=str(tmp_path / "cache"))
    via_service = api.run_flow("kmeans", "informed", config=cfg)
    assert result_to_dict(via_service) == result_to_dict(kmeans_informed)
    # and the cache now serves it: a fresh service reads, not runs
    with api.open_service(cfg) as service:
        submission = api.submit(service, "kmeans", "informed")
        assert submission.source == "cache-disk"


def test_open_service_overrides_beat_config(tmp_path):
    cfg = ReproConfig(workers=1)
    with api.open_service(cfg, cache_dir=str(tmp_path)) as service:
        assert service.cache is not None


def test_submit_accepts_jobs_and_names():
    with api.open_service() as service:
        by_name = api.submit(service, "kmeans", "informed")
        by_job = api.submit(service, service.job_for("kmeans", "informed"))
        assert by_name.job.key() == by_job.job.key()
        results = api.gather([by_name, by_job])
        assert result_to_dict(results[0]) == result_to_dict(results[1])


def test_gather_return_exceptions():
    class Boom:
        def result(self, timeout=None):
            raise RuntimeError("boom")

    class Fine:
        def result(self, timeout=None):
            return 42

    with pytest.raises(RuntimeError):
        api.gather([Boom()])
    out = api.gather([Fine(), Boom()], return_exceptions=True)
    assert out[0] == 42 and isinstance(out[1], RuntimeError)


# ----------------------------------------------------------------------
# The process-wide shared runner
# ----------------------------------------------------------------------

def test_shared_runner_is_process_wide():
    sentinel = object()
    previous = api.set_shared_runner(sentinel)
    try:
        assert api.shared_runner() is sentinel
    finally:
        api.set_shared_runner(previous)


def test_experiment_modules_import_cleanly():
    # the experiment modules import without deprecation warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.evalharness import energy, fig5, fig6, report, table1
        assert all((energy, fig5, fig6, report, table1))


# ----------------------------------------------------------------------
# Uniform CLI flags: one vocabulary across every flow subcommand
# ----------------------------------------------------------------------

SHARED = ["--cache-dir", "/x", "--workers", "3",
          "--retries", "2", "--trace-out", "/t.json",
          "--metrics-out", "/m.prom"]


@pytest.mark.parametrize("argv", [
    ["run", "kmeans"] + SHARED,
    ["eval", "fig5"] + SHARED,
    ["batch", "--all"] + SHARED,
    ["serve"] + SHARED,
    ["config"] + SHARED,
])
def test_every_flow_subcommand_takes_the_shared_flags(argv):
    args = build_parser().parse_args(argv)
    assert args.cache_dir == "/x"
    assert args.workers == 3
    assert args.retries == 2
    assert args.trace_out == "/t.json"
    assert args.metrics_out == "/m.prom"


@pytest.mark.parametrize("flag", [["--exec", "interp"],
                                  ["--dse", "point"]])
def test_reference_paths_are_not_cli_flags(flag, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "kmeans"] + flag)
    assert "unrecognized arguments" in capsys.readouterr().err


def test_batch_jobs_is_an_alias_for_workers():
    args = build_parser().parse_args(["batch", "--all", "--jobs", "4"])
    assert args.workers == 4


def test_eval_and_batch_take_server_url():
    args = build_parser().parse_args(
        ["eval", "fig5", "--server", "http://h:1"])
    assert args.server == "http://h:1"
    args = build_parser().parse_args(
        ["batch", "--all", "--server", "http://h:1"])
    assert args.server == "http://h:1"
