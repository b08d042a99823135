"""Sim and live are one machine: their traces have the same structure.

Every scenario whose one builder runs on both backends
(``backends=("sim", "live")``) runs seed 7 with an empty fault plan, with
and without sessions, once on each; the two assembled traces' signatures
(:mod:`repro.obs.tracediff`) must not differ.  The signature's
``untraced`` field is left out: it counts the records that joined no
trace, and that follows how long a run lasts, not its structure
(``mesh_failover`` reads 2 671 on the simulator, which runs to its
deadline, and 14 live).

Marked ``live_chaos``; ``make diff-gate`` runs this module alone.
"""

import json

import pytest

from repro.chaos import run_chaos
from repro.chaos.registry import get_scenario, scenario_names
from repro.obs.assemble import assemble
from repro.obs.tracediff import diff, signature

pytestmark = [pytest.mark.livenet, pytest.mark.live_chaos]

TWINS = [
    name for name in scenario_names()
    if {"sim", "live"} <= set(get_scenario(name).backends)
]


def _signature(scenario: str, backend: str, sessions: bool, path) -> dict:
    report = run_chaos(
        scenario=scenario, seed=7, sessions=sessions, backend=backend,
        until=30.0 if backend == "live" else 900.0, trace_path=str(path),
    )
    assert report.ok, (backend, report.violations)
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    found = signature(assemble(records))
    del found["untraced"]
    return found


def test_every_twin_scenario_is_checked():
    assert {"wan_transfer", "wan_transfer_routed", "mesh_failover",
            "mux_fanin", "mux_starvation"} <= set(TWINS)


@pytest.mark.parametrize("sessions", [False, True], ids=["plain", "sessions"])
@pytest.mark.parametrize("scenario", TWINS)
def test_sim_and_live_traces_agree(scenario, sessions, tmp_path):
    sim = _signature(scenario, "sim", sessions, tmp_path / "sim.jsonl")
    live = _signature(scenario, "live", sessions, tmp_path / "live.jsonl")
    assert diff(sim, live) == []
