"""A structural budget for the flow tier's footprint (docs/SIMNET.md).

What bounds the size of grid the flow tier can ask about is memory, and a
third of a fleet run's wall time used to be the cyclic collector walking
objects the run never frees.  Neither shows on a stopwatch on a shared
host; both show, exactly, in numbers that do not depend on it.  One
``fleet_fanin`` at 5 000 endpoints in 10 waves across a hub partition
holds five:

* ``rate_resolves`` -- the same simulation (exact);
* gc-tracked objects per endpoint when the invariant suite starts, which
  is what every full collection walks;
* ``tracemalloc`` bytes per endpoint at that point, and at the peak inside
  the invariant suite, which is where the process peaks;
* containers (lists, and the one table that indexes them) the rate solver
  holds per resolve.

In 10 waves the endpoint uplinks are the bottleneck of nearly every
solve.  The same 5 000 endpoints in 2 waves saturate the hub instead, as
100 000 endpoints do, so the solver's containers are held to a second
budget there.

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
    # measured 0.22: what the run still holds, the topology being rows in
    # the network's columns and a partition heal one span; 0.32 while
    # the heal recorded a span per stalled endpoint (budget 0.37), 4.32
    # with a host, a link and two pipes per endpoint as objects (budget
    # 5.0), 4.42 while each endpoint a partition stalls had its own
    # reconnect counter, 7.4 while the fleet wrote three mux ledger
    # counters per endpoint
    "tracked objects per endpoint": 0.25,
    # measured 407 and 407; 474 and 475 with a span per stalled endpoint
    # (budget 544 and 546), 497 and 498 while the last solve's leftover
    # capacity stayed a float per pipe (budget 573 and 574), 661 and 663
    # with the topology as objects (budget 761 and 762), 678 and 680 with
    # the per-endpoint reconnect counters, 1 298 and 1 416 with the mux
    # ledger, whose check built a labels dict per counter read at the peak
    "bytes per endpoint": 468,
    "peak bytes per endpoint": 469,
    # measured 152.6: one list per saturated pipe, and here the endpoint
    # uplinks saturate; 153.8 while the solver's comprehensions made cells
    # of its locals, 159.7 with one per pipe under an active flow
    "lists per resolve": 177,
}

#: the same endpoints in two waves: the hub is the one saturated pipe
HUB_BOUND_BUDGET = {
    "rate_resolves": 14,
    # measured 84.9 (86.1 with the solver's cells); 855.1 while every
    # saturated round built a list for each pipe under an active flow, not
    # only for the saturated ones
    "lists per resolve": 99,
}


def _measure(monkeypatch, waves: int) -> dict:
    """One run; the numbers the module docstring lists, by budget name."""
    monkeypatch.setenv("REPRO_FLEET_ENDPOINTS", str(ENDPOINTS))
    monkeypatch.setenv("REPRO_FLEET_WAVES", str(waves))
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


def _check(got: dict, budget: dict) -> None:
    """``rate_resolves`` exactly, every other budgeted number at most its
    bound; the message names each number over."""
    assert got["rate_resolves"] == budget["rate_resolves"]
    over = {
        name: f"{got[name]:.1f} > {bound}"
        for name, bound in budget.items()
        if name != "rate_resolves" and got[name] > bound
    }
    assert not over, over


def test_flow_tier_footprint(monkeypatch):
    _check(_measure(monkeypatch, waves=10), BUDGET)


def test_hub_bound_solver_footprint(monkeypatch):
    _check(_measure(monkeypatch, waves=2), HUB_BOUND_BUDGET)
