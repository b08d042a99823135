"""A structural budget for the flow tier's footprint (docs/SIMNET.md).

What bounds the size of grid the flow tier can ask about is memory, and a
third of a fleet run's wall time used to be the cyclic collector walking
objects the run never frees.  Neither shows on a stopwatch on a shared
host; both show, exactly, in numbers that do not depend on it.  One
``fleet_fanin`` at 5 000 endpoints across a hub partition holds five:

* ``rate_resolves`` -- the same simulation (exact);
* gc-tracked objects per endpoint when the invariant suite starts, which
  is what every full collection walks;
* ``tracemalloc`` bytes per endpoint at that point, and at the peak inside
  the invariant suite, which is where the process peaks;
* containers (lists, and the one table that indexes them) the rate solver
  holds per resolve.

Each bound is what was measured when it was set plus ~15 %.  The failure
message names every number that moved.
"""

import gc
import tracemalloc

from repro.chaos import run_chaos, runner
from repro.simnet import flow

ENDPOINTS = 5_000
PLAN = "link_down@12:site=hub,for=5"

BUDGET = {
    # the wave and size-class structure, not the endpoint count, decides how
    # often rates are re-solved: 62 here and at 100 000 endpoints
    "rate_resolves": 62,
    # measured 7.4: a host, a link, two pipes and 3.2 instruments (the parent
    # too -- the diet kept every object the ledger needs and made each small)
    "tracked objects per endpoint": 8.5,
    # measured 1 302 and 1 420; the parent 2 357 and 3 013 (a dict and three
    # tuples per instrument, three name strings per link, five tables keyed
    # by fresh tuples in the mux ledger check)
    "bytes per endpoint": 1_500,
    "peak bytes per endpoint": 1_650,
    # measured 159.7: one list per pipe under an active flow, in the solves
    # where a pipe saturates; the parent 371.2, two per pipe in every solve
    "lists per resolve": 185,
}


def _measure(monkeypatch) -> dict:
    """One run; the numbers the module docstring lists, by budget name."""
    monkeypatch.setenv("REPRO_FLEET_ENDPOINTS", str(ENDPOINTS))
    monkeypatch.setenv("REPRO_FLEET_WAVES", "10")
    seen = {}

    check = runner.check_invariants

    def check_measured(*args, **kwargs):
        gc.collect()
        seen["tracked"] = len(gc.get_objects()) - tracked_before
        seen["bytes"] = tracemalloc.get_traced_memory()[0] - bytes_before
        tracemalloc.reset_peak()
        try:
            return check(*args, **kwargs)
        finally:
            seen["peak_bytes"] = tracemalloc.get_traced_memory()[1] - bytes_before

    monkeypatch.setattr(runner, "check_invariants", check_measured)

    # The solver's lists die with its frame, so they are counted while it
    # holds them: with collection off, gc.get_count()[0] is the containers
    # allocated and not yet freed, and a solve fixes its last rate after it
    # has built all it builds.
    solve, fix = flow.FlowNetwork._solve, flow._fix
    held = []

    def solve_measured(net):
        gc.disable()
        try:
            before = gc.get_count()[0]
            seen["held"] = before
            solve(net)
            held.append(seen["held"] - before)
        finally:
            gc.enable()

    def fix_measured(*args):
        seen["held"] = max(seen["held"], gc.get_count()[0])
        fix(*args)

    monkeypatch.setattr(flow.FlowNetwork, "_solve", solve_measured)
    monkeypatch.setattr(flow, "_fix", fix_measured)

    gc.collect()
    tracked_before = len(gc.get_objects())
    tracemalloc.start()
    try:
        bytes_before = tracemalloc.get_traced_memory()[0]
        report = run_chaos(
            "fleet_fanin", seed=3, plan=PLAN, sessions=True, until=600.0
        )
    finally:
        tracemalloc.stop()
    assert report.ok, report.violations
    assert report.stats["flows_completed"] == ENDPOINTS
    return {
        "rate_resolves": report.stats["rate_resolves"],
        "tracked objects per endpoint": seen["tracked"] / ENDPOINTS,
        "bytes per endpoint": seen["bytes"] / ENDPOINTS,
        "peak bytes per endpoint": seen["peak_bytes"] / ENDPOINTS,
        "lists per resolve": sum(held) / len(held),
    }


def test_flow_tier_footprint(monkeypatch):
    got = _measure(monkeypatch)
    assert got.pop("rate_resolves") == BUDGET["rate_resolves"]
    over = {
        name: f"{value:.1f} > {BUDGET[name]}"
        for name, value in got.items()
        if value > BUDGET[name]
    }
    assert not over, over
