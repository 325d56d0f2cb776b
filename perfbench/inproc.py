"""Per-layer metrics of the in-process flow layers (meta, lang, analysis,
transforms, codegen, dse, toolchains, platforms, flow, evalharness)."""

from __future__ import annotations

from typing import Dict

from common import delta, in_process_counters
from spans import LayerTotals


class CounterWindow:
    """Program counters read before and after a traced stretch."""

    def __init__(self):
        from repro.analysis.profile import profile_cache_stats

        self._stats = profile_cache_stats()
        self.before = in_process_counters()
        self.lookups0 = self._stats.lookups
        self.hits0 = self._stats.hits

    def close(self) -> Dict[str, float]:
        after = in_process_counters()
        return {
            "fallbacks": delta(self.before, after,
                               "repro_exec_fallback_total"),
            "dse_points": delta(self.before, after,
                                "repro_dse_points_total"),
            "profile_lookups": self._stats.lookups - self.lookups0,
            "profile_hits": self._stats.hits - self.hits0,
        }


def layer_metrics(totals: LayerTotals, counters: Dict[str, float]
                  ) -> Dict[str, float]:
    """Self time per job (ms) and counts per job for every flow layer.

    ``totals.jobs`` is the number of traced jobs: flows for
    ``fresh_flows``, ``eval all`` processes for ``paper_eval``.
    """
    jobs = max(totals.jobs, 1)
    lookups = counters.get("profile_lookups", 0.0)
    return {
        "meta.parse_ms": totals.per_job_ms("meta.parse"),
        "meta.parse_calls": totals.calls_per_job("meta.parse"),
        "lang.exec_ms": totals.per_job_ms("lang.exec"),
        "lang.exec_calls": totals.calls_per_job("lang.exec"),
        "lang.fallbacks": counters.get("fallbacks", 0.0),
        "analysis.self_ms": totals.per_job_ms("analysis"),
        "analysis.profile_lookups": lookups / jobs,
        "analysis.profile_hit_ratio": (
            counters.get("profile_hits", 0.0) / lookups if lookups else 0.0),
        "transforms.self_ms": totals.per_job_ms("transforms"),
        "codegen.self_ms": totals.per_job_ms("codegen"),
        "dse.self_ms": totals.per_job_ms("dse"),
        "dse.points": counters.get("dse_points", 0.0) / jobs,
        "toolchains.compile_ms": totals.per_job_ms("toolchains.compile"),
        "platforms.eval_ms": totals.per_job_ms("platforms.eval"),
        "flow.self_ms": totals.per_job_ms("flow"),
        "evalharness.self_ms": totals.per_job_ms("evalharness"),
        "bench.attribution_error": totals.max_error,
    }
