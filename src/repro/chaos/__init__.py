"""Deterministic chaos harness for the simulated grid stack.

The paper's establishment machinery exists because wide-area links,
middleboxes and relays *fail*; this package makes those failures a
first-class, reproducible test input.  A :class:`FaultPlan` (parsed from
a one-line spec such as ``relay_crash@2:for=8;link_down@12:site=A,for=0.4``)
is armed against a :class:`~repro.core.scenarios.GridScenario` by the
:class:`FaultScheduler`; :func:`run_chaos` drives a workload under the
plan and checks end-to-end invariants — exactly-once in-order delivery,
no leaked sockets or timers, obs counters consistent with the bytes
moved.  A failure is reported as the replayable ``(scenario, seed,
plan)`` triple, and the report JSON is byte-identical across reruns.
"""

from .faults import (
    Blackhole,
    ConnKill,
    ConntrackFlush,
    Fault,
    FaultPlan,
    FaultPlanError,
    FaultScheduler,
    LatencySpike,
    LinkDown,
    LossBurst,
    NatExpiry,
    PeerDrop,
    ProxyRestart,
    RelayCrash,
    Stall,
    Truncate,
    require_backend,
)
from .invariants import ChannelAudit, check_invariants, obs_consistency_violations
from .registry import (
    ScenarioDef,
    get_scenario,
    live_scenario,
    scenario,
    scenario_names,
)
from .runner import ChaosReport, Workload, run_chaos

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultPlanError",
    "FaultScheduler",
    "require_backend",
    "LinkDown",
    "LossBurst",
    "RelayCrash",
    "PeerDrop",
    "ConntrackFlush",
    "NatExpiry",
    "ProxyRestart",
    "ConnKill",
    "Stall",
    "Blackhole",
    "LatencySpike",
    "Truncate",
    "ChannelAudit",
    "check_invariants",
    "obs_consistency_violations",
    "ChaosReport",
    "Workload",
    "run_chaos",
    "run_live_chaos",
    "scenario",
    "live_scenario",
    "ScenarioDef",
    "get_scenario",
    "scenario_names",
]


def run_live_chaos(*args, **kwargs):
    """Lazy alias for :func:`repro.chaos.live.run_live_chaos`.

    Imported on first call so ``repro.chaos`` stays importable without
    pulling the asyncio livenet stack in (the sim harness has no need
    for it).
    """
    from .live import run_live_chaos as _run

    return _run(*args, **kwargs)
