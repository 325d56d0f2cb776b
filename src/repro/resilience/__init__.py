"""repro.resilience -- deterministic fault injection for chaos runs.

:mod:`repro.resilience.faults` holds a process-global seeded
:class:`FaultPlan` with named injection sites threaded through the
result cache, scheduler payloads, execution engines, profile cache,
fleet wire and router journal; off by default, configured via API or
``$REPRO_FAULTS``, deterministic per (seed, site, invocation index) so
chaos runs replay.  What absorbs the faults lives with the code that
hits them: pool rebuilds, the interpreter fallback, cache quarantine
and skipped cache writes, fleet re-routing and client retries.

Quick chaos run (a fresh cache dir, so the storm reaches the cache and
profile-disk sites)::

    REPRO_FAULTS="seed=7,rate=0.05" REPRO_CACHE_DIR="$(mktemp -d)" \\
        python -m repro eval fig5 --trace-out chaos.json
"""

from repro.resilience.faults import (
    FaultPlan, InjectedFault, KNOWN_SITES, WIRE_MODES, active_plan,
    clear_plan, configure_from_env, current_plan, inject, inject_wire,
    install_plan,
)

__all__ = [
    "FaultPlan", "InjectedFault", "KNOWN_SITES", "WIRE_MODES",
    "active_plan", "clear_plan", "configure_from_env", "current_plan",
    "inject", "inject_wire", "install_plan",
]
