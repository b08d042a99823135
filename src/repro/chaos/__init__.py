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
    "scenario",
    "ScenarioDef",
    "get_scenario",
    "scenario_names",
]

