"""ReproConfig: parsing, precedence, apply, and the CLI subcommand."""

import json

import pytest

from repro.__main__ import main
from repro.config import ConfigError, ENV_VARS, ReproConfig


# ----------------------------------------------------------------------
# from_env
# ----------------------------------------------------------------------

def test_defaults():
    cfg = ReproConfig.from_env(environ={})
    assert cfg == ReproConfig()
    assert cfg.workers == 1
    assert cfg.cache_dir is None


def test_from_env_reads_every_var():
    cfg = ReproConfig.from_env(environ={
        "REPRO_CACHE_DIR": "/tmp/c", "REPRO_WORKERS": "4",
        "REPRO_TRACE_DIR": "/tmp/t",
        "REPRO_FAULTS": "seed=7,rate=0.5,sites=cache.write",
    })
    assert cfg.cache_dir == "/tmp/c" and cfg.workers == 4
    assert cfg.trace_dir == "/tmp/t"
    assert cfg.faults == "seed=7,rate=0.5,sites=cache.write"


def test_bool_parsing_only_zero_disables(monkeypatch):
    # REPRO_PROFILE_CACHE is read where profiles are collected, not by
    # ReproConfig; only "0" turns sharing off there
    from repro.analysis.profile import (
        clear_profile_cache, collect_profile, profile_cache_stats,
    )
    from repro.lang.interpreter import Workload
    from repro.meta.ast_api import Ast

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)   # memory only
    ast = Ast("int main() { return 3; }")
    for raw, shared in [("0", False), ("1", True), ("false", True),
                        ("", True), ("no", True)]:
        monkeypatch.setenv("REPRO_PROFILE_CACHE", raw)
        clear_profile_cache()
        collect_profile(ast, Workload())
        collect_profile(ast, Workload())
        assert profile_cache_stats().executions == (1 if shared else 2), \
            raw
    clear_profile_cache()


def test_unknown_exec_mode_falls_back_like_the_engine(monkeypatch):
    from repro.lang.engine import execution_mode

    monkeypatch.setenv("REPRO_EXEC", "quantum")
    assert execution_mode() == "compiled"
    assert "exec_mode" not in ReproConfig().to_dict()


def test_bad_values_raise_config_error():
    with pytest.raises(ConfigError):
        ReproConfig.from_env(environ={"REPRO_WORKERS": "many"})
    with pytest.raises(ConfigError):
        ReproConfig.from_env(environ={"REPRO_WORKERS": "0"})
    with pytest.raises(ConfigError):
        ReproConfig.from_env(environ={"REPRO_OBS_BUFFER": "-1"})
    with pytest.raises(ConfigError):
        ReproConfig(workers=0)
    with pytest.raises(TypeError):
        ReproConfig(exec_mode="interp")     # a reference switch, no knob


# ----------------------------------------------------------------------
# precedence: env < cli < kwarg
# ----------------------------------------------------------------------

def test_resolve_precedence_chain():
    env = {"REPRO_WORKERS": "2", "REPRO_CACHE_DIR": "/env",
           "REPRO_TRACE_DIR": "/trace"}
    cfg = ReproConfig.resolve(environ=env,
                              cli={"workers": 4, "cache_dir": "/cli"},
                              workers=8)
    assert cfg.workers == 8            # kwarg beats cli beats env
    assert cfg.cache_dir == "/cli"     # cli beats env
    assert cfg.trace_dir == "/trace"   # env survives when nobody overrides


def test_resolve_none_means_not_given():
    env = {"REPRO_WORKERS": "3"}
    cfg = ReproConfig.resolve(environ=env,
                              cli={"workers": None, "cache_dir": None},
                              workers=None)
    assert cfg.workers == 3 and cfg.cache_dir is None


def test_resolve_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config field"):
        ReproConfig.resolve(environ={}, cli={"worker_count": 3})


def test_replace_filters_none():
    cfg = ReproConfig(workers=5)
    assert cfg.replace(workers=None) is cfg
    assert cfg.replace(workers=2).workers == 2


# ----------------------------------------------------------------------
# apply / env round trip
# ----------------------------------------------------------------------

def test_apply_round_trips_through_environ():
    cfg = ReproConfig(cache_dir="/tmp/c", workers=3, durable=True)
    env = {"REPRO_TRACE_DIR": "/stale",     # must be cleared by apply
           "REPRO_EXEC": "interp"}          # not ours: left alone
    cfg.apply(environ=env)
    assert "REPRO_TRACE_DIR" not in env     # unset field removes the var
    assert env["REPRO_WORKERS"] == "3" and env["REPRO_DURABLE"] == "1"
    assert env["REPRO_EXEC"] == "interp"
    assert ReproConfig.from_env(environ=env) == cfg


def test_env_dict_names_every_documented_var():
    values = ReproConfig(cache_dir="/c", trace_dir="/t", faults="x:1",
                         fleet_runners="http://a:1",
                         journal_dir="/j",
                         fleet_standby_of="http://p:3").env_dict()
    assert set(values) == {var for _, var in ENV_VARS}


# ----------------------------------------------------------------------
# REPRO_FLEET_* family
# ----------------------------------------------------------------------

def test_fleet_vars_parse_from_env():
    cfg = ReproConfig.from_env(environ={
        "REPRO_FLEET_RUNNERS":
            "http://10.0.0.1:8001, http://10.0.0.2:8002/,",
        "REPRO_FLEET_PROBE_INTERVAL": "0.5",
        "REPRO_FLEET_STANDBY_OF": "http://10.0.0.3:8000/",
    })
    # whitespace trimmed, trailing slash and empty items dropped
    assert cfg.runner_list() == ["http://10.0.0.1:8001",
                                 "http://10.0.0.2:8002"]
    assert cfg.fleet_probe_interval_s == 0.5
    assert cfg.fleet_standby_of == "http://10.0.0.3:8000"


def test_fleet_defaults_are_single_node():
    cfg = ReproConfig()
    assert cfg.runner_list() == [] and cfg.fleet_standby_of is None
    assert cfg.fleet_probe_interval_s == 2.0


def test_fleet_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        ReproConfig(fleet_probe_interval_s=0.0)
    with pytest.raises(ConfigError):
        ReproConfig.from_env(
            environ={"REPRO_FLEET_PROBE_INTERVAL": "lots"})
    with pytest.raises(ConfigError):
        ReproConfig.from_env(environ={"REPRO_FLEET_PROBE_INTERVAL": "-1"})


def test_fleet_precedence_env_cli_kwarg():
    env = {"REPRO_FLEET_RUNNERS": "http://env:1",
           "REPRO_FLEET_STANDBY_OF": "http://env:2",
           "REPRO_FLEET_PROBE_INTERVAL": "2"}
    cfg = ReproConfig.resolve(
        environ=env,
        cli={"fleet_runners": "http://cli:1,http://cli:2",
             "fleet_probe_interval_s": 6.0},
        fleet_probe_interval_s=8.0)
    assert cfg.runner_list() == ["http://cli:1", "http://cli:2"]
    assert cfg.fleet_standby_of == "http://env:2"   # env survives
    assert cfg.fleet_probe_interval_s == 8.0        # kwarg beats cli


def test_fleet_vars_round_trip_through_apply():
    cfg = ReproConfig(fleet_runners="http://a:1,http://b:2",
                      fleet_standby_of="http://c:3",
                      fleet_probe_interval_s=1.5)
    env = {}
    cfg.apply(environ=env)
    assert env["REPRO_FLEET_RUNNERS"] == "http://a:1,http://b:2"
    assert env["REPRO_FLEET_PROBE_INTERVAL"] == "1.5"
    assert ReproConfig.from_env(environ=env) == cfg


def test_config_subcommand_surfaces_fleet_flags(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FLEET_STANDBY_OF", "http://env-primary:9")
    assert main(["config", "--runners", "http://a:1,http://b:2",
                 "--probe-interval", "5"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["fleet_runners"] == "http://a:1,http://b:2"
    assert resolved["fleet_probe_interval_s"] == 5.0
    assert resolved["fleet_standby_of"] == "http://env-primary:9"


def test_config_help_lists_only_live_fleet_flags(capsys):
    with pytest.raises(SystemExit):
        main(["config", "--help"])
    text = capsys.readouterr().out
    assert "--runners" in text and "--probe-interval" in text
    assert "--peers" not in text and "--steal-threshold" not in text


# ----------------------------------------------------------------------
# python -m repro config
# ----------------------------------------------------------------------

def test_config_subcommand_prints_resolved_json(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "7")
    monkeypatch.setenv("REPRO_EXEC", "interp")
    assert main(["config"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["workers"] == 7
    # the reference-process switch is not part of the configuration
    assert "interp" not in json.dumps(resolved)
    assert len(resolved) == len(ENV_VARS) == 10


def test_config_subcommand_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "7")
    assert main(["config", "--workers", "2", "--cache-dir", "/x"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["workers"] == 2 and resolved["cache_dir"] == "/x"


def test_config_subcommand_reports_bad_env(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "banana")
    assert main(["config"]) == 2
    assert "config error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# no hidden knobs
# ----------------------------------------------------------------------

#: environment variables read outside ReproConfig on purpose
NOT_KNOBS = {
    "REPRO_EXEC",            # reference process: tree-walking interpreter
    "REPRO_PROFILE_CACHE",   # reference process: no profile sharing
    "REPRO_SERVER",          # client: address of a remote server
}


def test_every_env_var_under_src_is_a_config_knob():
    import pathlib
    import re

    import repro

    known = {var for _, var in ENV_VARS} | NOT_KNOBS
    stray = {}
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in re.finditer(r"REPRO_[A-Z_]*[A-Z](_\*)?", text):
            name = match.group(0)
            if name.endswith("_*"):       # a documented family
                ok = any(var.startswith(name[:-1]) for var in known)
            else:
                ok = name in known
            if not ok:
                stray.setdefault(name, str(path.relative_to(root)))
    assert not stray, f"REPRO_* variables outside ReproConfig: {stray}"
