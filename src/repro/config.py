"""One typed home for every ``REPRO_*`` runtime knob.

Four PRs grew eight environment variables, each parsed ad hoc at its
point of use.  :class:`ReproConfig` consolidates them into a single
frozen value object with one parsing rule set, an explicit precedence
chain, and a JSON rendering the ``python -m repro config`` subcommand
prints so an operator can see exactly what a process would run with.
The fleet tier adds the ``REPRO_FLEET_*`` family -- runner list,
probe interval, standby target -- consumed by ``python -m repro
router``.

Precedence (weakest to strongest)::

    environment  <  CLI flag  <  explicit keyword argument

built with::

    cfg = ReproConfig.resolve(cli={"workers": args.workers},
                              cache_dir=explicit_dir)

``resolve`` starts from :meth:`from_env`, overlays the non-``None``
CLI values, then the non-``None`` keyword arguments.  Fields that
nobody set keep their documented defaults.

The knobs (and the env var each consolidates):

=================  ======================  ==============================
field              env var                 meaning
=================  ======================  ==============================
``cache_dir``      ``REPRO_CACHE_DIR``     persistent result-cache root
``workers``        ``REPRO_WORKERS``       service worker-pool size
``trace_dir``      ``REPRO_TRACE_DIR``     per-process JSONL span sink
``faults``         ``REPRO_FAULTS``        fault-injection plan spec
``fleet_runners``  ``REPRO_FLEET_RUNNERS`` router: runner URLs (comma)
``fleet_probe_interval_s`` ``REPRO_FLEET_PROBE_INTERVAL``   runner
                                           health-probe period (s)
``obs_buffer``     ``REPRO_OBS_BUFFER``    span ring-buffer capacity for
                                           the fleet collector (0 = off)
``durable``        ``REPRO_DURABLE``       fsync cache/journal writes
``journal_dir``    ``REPRO_JOURNAL_DIR``   router write-ahead journal
                                           root (enables recovery)
``fleet_standby_of``  ``REPRO_FLEET_STANDBY_OF``  primary router URL a
                                           warm standby tails
=================  ======================  ==============================

Some subsystems read their env var lazily at call time (the profile
cache root, the fault plan, durable writes);
:meth:`apply` writes the config back into an environ mapping so those
readers -- and pool worker *processes*, which inherit the environment
-- observe the same resolved values.

The reference paths are not knobs.  A reference *process* (reference
digests, the interpreter CI tier, the perf baseline) selects them with
``REPRO_EXEC=interp`` and ``REPRO_PROFILE_CACHE=0``, each read at its
one point of use (:func:`repro.lang.engine.execution_mode`,
:func:`repro.analysis.profile.collect_profile`); tests reach the
per-factor unroll DSE loop by patching ``repro.flow.dse.LOWERING``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, MutableMapping, Optional

#: (field, env var) in documentation order
ENV_VARS = (
    ("cache_dir", "REPRO_CACHE_DIR"),
    ("workers", "REPRO_WORKERS"),
    ("trace_dir", "REPRO_TRACE_DIR"),
    ("faults", "REPRO_FAULTS"),
    ("fleet_runners", "REPRO_FLEET_RUNNERS"),
    ("fleet_probe_interval_s", "REPRO_FLEET_PROBE_INTERVAL"),
    ("obs_buffer", "REPRO_OBS_BUFFER"),
    ("durable", "REPRO_DURABLE"),
    ("journal_dir", "REPRO_JOURNAL_DIR"),
    ("fleet_standby_of", "REPRO_FLEET_STANDBY_OF"),
)


def _split_urls(raw: Optional[str]) -> list:
    """A comma-separated URL list field, parsed (order-preserving)."""
    if not raw:
        return []
    return [part.strip().rstrip("/") for part in raw.split(",")
            if part.strip()]


class ConfigError(ValueError):
    """A knob value failed to parse or validate."""


def _parse_int(name: str, raw: str, minimum: int) -> int:
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {raw!r}") \
            from None
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _parse_float(name: str, raw: str, minimum: float) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {raw!r}") \
            from None
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class ReproConfig:
    """Resolved runtime configuration (immutable value object)."""

    cache_dir: Optional[str] = None
    workers: int = 1
    trace_dir: Optional[str] = None
    faults: Optional[str] = None
    #: comma-separated runner base URLs `python -m repro router` shards
    #: jobs across
    fleet_runners: Optional[str] = None
    #: router health-probe period in seconds
    fleet_probe_interval_s: float = 2.0
    #: span ring-buffer capacity a server keeps for the fleet collector
    #: (``/v1/obs/spans``); 0 disables collection entirely
    obs_buffer: int = 0
    #: fsync cache and journal writes so a SIGKILL/power-loss never
    #: leaves a half-visible entry (opt-in: slower, crash-consistent)
    durable: bool = False
    #: directory the router's write-ahead journal (and lease file)
    #: lives in; unset disables journaling and crash recovery
    journal_dir: Optional[str] = None
    #: primary router base URL this process warm-stands-by for (tails
    #: the journal, takes over behind the lease on primary death)
    fleet_standby_of: Optional[str] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not self.fleet_probe_interval_s > 0:
            raise ConfigError(
                f"fleet_probe_interval_s must be > 0, "
                f"got {self.fleet_probe_interval_s}")
        if self.obs_buffer < 0:
            raise ConfigError(
                f"obs_buffer must be >= 0, got {self.obs_buffer}")

    # ------------------------------------------------------------------
    def runner_list(self) -> list:
        """``fleet_runners`` parsed into a URL list."""
        return _split_urls(self.fleet_runners)

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> "ReproConfig":
        """The configuration the environment alone selects."""
        env = os.environ if environ is None else environ
        kwargs: Dict[str, Any] = {}
        raw = env.get("REPRO_CACHE_DIR")
        if raw:
            kwargs["cache_dir"] = raw
        raw = env.get("REPRO_WORKERS")
        if raw is not None and raw.strip():
            kwargs["workers"] = _parse_int("REPRO_WORKERS", raw, 1)
        raw = env.get("REPRO_TRACE_DIR")
        if raw:
            kwargs["trace_dir"] = raw
        raw = env.get("REPRO_FAULTS")
        if raw:
            kwargs["faults"] = raw
        raw = env.get("REPRO_FLEET_RUNNERS")
        if raw:
            kwargs["fleet_runners"] = raw
        raw = env.get("REPRO_FLEET_PROBE_INTERVAL")
        if raw is not None and raw.strip():
            kwargs["fleet_probe_interval_s"] = _parse_float(
                "REPRO_FLEET_PROBE_INTERVAL", raw, 0.0)
        raw = env.get("REPRO_OBS_BUFFER")
        if raw is not None and raw.strip():
            kwargs["obs_buffer"] = _parse_int("REPRO_OBS_BUFFER", raw, 0)
        raw = env.get("REPRO_DURABLE")
        if raw is not None and raw.strip():
            # opt-in: only an explicit "1" enables
            kwargs["durable"] = raw.strip() == "1"
        raw = env.get("REPRO_JOURNAL_DIR")
        if raw:
            kwargs["journal_dir"] = raw
        raw = env.get("REPRO_FLEET_STANDBY_OF")
        if raw:
            kwargs["fleet_standby_of"] = raw.strip().rstrip("/")
        return cls(**kwargs)

    @classmethod
    def resolve(cls, environ: Optional[Mapping[str, str]] = None,
                cli: Optional[Mapping[str, Any]] = None,
                **kwargs: Any) -> "ReproConfig":
        """Layer env < CLI flags < explicit kwargs into one config.

        ``None`` values in ``cli`` / ``kwargs`` mean "not given" and
        never override a weaker layer.
        """
        cfg = cls.from_env(environ)
        for layer in (cli or {}, kwargs):
            overrides = {k: v for k, v in layer.items() if v is not None}
            if overrides:
                unknown = set(overrides) - {f.name for f in
                                            dataclasses.fields(cls)}
                if unknown:
                    raise ConfigError(
                        f"unknown config field(s): {sorted(unknown)}")
                cfg = dataclasses.replace(cfg, **overrides)
        return cfg

    def replace(self, **overrides: Any) -> "ReproConfig":
        """A copy with the non-``None`` overrides applied."""
        overrides = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **overrides) if overrides else self

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def env_dict(self) -> Dict[str, str]:
        """The config as the ``REPRO_*`` mapping that reproduces it."""
        out: Dict[str, str] = {}
        for field_name, var in ENV_VARS:
            value = getattr(self, field_name)
            if isinstance(value, bool):
                out[var] = "1" if value else "0"
            elif value is not None:
                out[var] = str(value)
        return out

    def apply(self, environ: Optional[MutableMapping[str, str]] = None
              ) -> "ReproConfig":
        """Write the config into ``environ`` (default ``os.environ``).

        Lazy env readers (execution engine, profile cache)
        and inherited-environment pool workers then see the resolved
        values.  Unset optional fields *remove* their variable, so an
        explicit ``cache_dir=None`` really disables the cache.
        """
        env = os.environ if environ is None else environ
        values = self.env_dict()
        for _field, var in ENV_VARS:
            if var in values:
                env[var] = values[var]
            else:
                env.pop(var, None)
        return self
