"""Simulator workloads: fixed work per round, wall seconds per scenario set.

``sim_packet`` runs the packet tier (``simnet.engine``/``tcp``/``link``
under the sim bindings of session, relay, mux and IPL) and ``sim_fleet``
the flow tier (``simnet.flow`` under ``chaos.fleet``); neither touches a
socket.  Each scenario call is one timed segment, scaled by the host
speed sampled inside it.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Callable, NamedTuple

import paperlinks
from repro.chaos import run_chaos
from repro.core.utilization import StackSpec
from repro.workloads import payload_with_ratio

from harness import HostSpeed

__all__ = [
    "Step", "Outcome", "ROUND_S", "packet_steps", "fleet_steps", "run_rounds",
]

FIG_MESSAGE = 256 * 1024
FIG_TOTAL = 2_000_000
FIG_STACKS = {
    "tcp": StackSpec.tcp(),
    "parallel4": StackSpec.parallel(4),
    "compress_parallel4": StackSpec.parallel(4).with_compression(),
}
FIG_LINKS = {
    "fig9": paperlinks.AMSTERDAM_RENNES,
    "fig10": paperlinks.DELFT_SOPHIA,
}
#: the links' loss processes stay on the seed their bands were
#: calibrated with; ``--seed`` picks the payload bytes they carry
_LINK_SEED = 9

#: nominal seconds per round on the sizing host.  The round count comes
#: from these, not from a stopwatch, so that a run does the same work --
#: and peaks at the same memory -- whichever speed the host is at
ROUND_S = {"sim_packet": 7.0, "sim_fleet": 5.0}

FLEET_ENDPOINTS = 100_000
FLEET_WAVES = 10
FLEET_PLAN = "link_down@12:site=hub,for=5"


class Outcome(NamedTuple):
    """What one scenario call delivered, and what it got wrong."""

    payload_bytes: int
    facts: dict  # exact, seed-determined numbers for the per-layer report
    failures: list


class Step(NamedTuple):
    name: str
    layer: str  # the module whose work dominates this scenario
    run: Callable[[], Outcome]


def _fig_step(fig: str, stack: str, payload: bytes, total: int) -> Step:
    link, spec = FIG_LINKS[fig], FIG_STACKS[stack]

    def run() -> Outcome:
        scenario = paperlinks.build_paper_wan(link, seed=_LINK_SEED)
        res = scenario.measure_stack_throughput(
            "src", "dst", spec, payload, total, message_size=FIG_MESSAGE
        )
        packets = sum(
            direction.stats.tx_packets
            for duplex in scenario.backend.links
            for direction in (duplex.a_to_b, duplex.b_to_a)
        )
        failures = []
        if res["received"] != res["sent"]:
            failures.append(
                f"{fig}.{stack}: received {res['received']} of {res['sent']} bytes"
            )
        return Outcome(
            res["received"],
            {
                "MBps_sim": res["throughput"],
                "sim_seconds": res["seconds"],
                "packets": packets,
            },
            failures,
        )

    return Step(f"{fig}.{stack}", "simnet.tcp", run)


def _chaos_step(name: str, layer: str, seed: int, **kwargs) -> Step:
    scenario = kwargs.pop("scenario", name)

    def run() -> Outcome:
        report = run_chaos(scenario=scenario, seed=seed, **kwargs)
        failures = [] if report.ok else [f"{name}: {report.violations[:3]}"]
        return Outcome(
            sum(c["received_bytes"] for c in report.channels),
            dict(report.stats),
            failures,
        )

    return Step(name, layer, run)


def packet_steps(seed: int, quick: bool = False) -> list:
    payload = payload_with_ratio(1 << 20, paperlinks.PAYLOAD_RATIO, seed=seed)
    steps = [
        _fig_step(fig, stack, payload, FIG_TOTAL // 2 if quick else FIG_TOTAL)
        for fig in FIG_LINKS
        for stack in FIG_STACKS
    ]
    steps += [
        # the WAN drops for longer than TCP rides out, so both stages
        # resume their sessions and replay
        _chaos_step(
            "wan_transfer", "core.session", seed,
            sessions=True, plan="link_down@3:site=B,for=30",
        ),
        _chaos_step("wan_transfer_routed", "core.relay", seed),
    ]
    if not quick:
        steps += [
            _chaos_step("mux_fanin", "mux.endpoint", seed),
            _chaos_step("ipl_fanin", "ipl.runtime", seed),
        ]
    return steps


def session_off_step(seed: int) -> Step:
    """``wan_transfer`` without sessions: what the session layer adds."""
    return _chaos_step(
        "wan_transfer.plain", "core.session", seed,
        scenario="wan_transfer", sessions=False,
    )


def fleet_steps(seed: int, quick: bool = False) -> list:
    endpoints = 4_000 if quick else FLEET_ENDPOINTS
    # the scenario reads its size from the environment of its process
    os.environ["REPRO_FLEET_ENDPOINTS"] = str(endpoints)
    os.environ["REPRO_FLEET_WAVES"] = str(FLEET_WAVES)
    step = _chaos_step(
        "fleet_fanin", "simnet.flow", seed,
        plan=FLEET_PLAN, sessions=True, until=600.0,
    )

    def run() -> Outcome:
        outcome = step.run()
        done = outcome.facts["flows_completed"]
        if done != endpoints:
            outcome.failures.append(
                f"fleet_fanin: {done}/{endpoints} flows completed"
            )
        # fleet audits are per wave, not per flow: count what the relay
        # carried, which the invariant suite has reconciled
        return outcome._replace(
            payload_bytes=outcome.facts["relay_forwarded_bytes"]
        )

    return [step._replace(run=run)]


def check_fig_bands(facts: dict) -> list:
    """The ordering bands of ``benchmarks/test_fig9_*``/``test_fig10_*``.

    Restricted to the three stacks run here, at one message size.
    """
    failures = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(f"fig band broken: {what}")

    def mbps(fig: str) -> tuple:
        return tuple(facts[f"{fig}.{stack}"]["MBps_sim"] for stack in FIG_STACKS)

    capacity = paperlinks.AMSTERDAM_RENNES["capacity"] / 1e6
    plain, streams, both = mbps("fig9")
    expect(0.3 * capacity < plain < 0.75 * capacity, "fig9 plain TCP vs capacity")
    expect(streams > 1.25 * plain, "fig9 4 streams vs plain")
    expect(both > 1.2 * capacity, "fig9 compression beats capacity")
    expect(both > streams, "fig9 compression+streams vs streams")
    capacity = paperlinks.DELFT_SOPHIA["capacity"] / 1e6
    plain, streams, both = mbps("fig10")
    expect(plain < 0.3 * capacity, "fig10 plain TCP is window-capped")
    expect(streams > 2.2 * plain, "fig10 4 streams vs plain")
    expect(both > plain, "fig10 compression+streams vs plain")
    return failures


class Round(NamedTuple):
    samples: dict  # step name -> Sample of wall seconds
    outcomes: dict  # step name -> Outcome


def run_rounds(steps: list, rounds: int, tally, host: HostSpeed, span=None) -> list:
    """``rounds`` whole passes over ``steps``.

    ``span(layer, name)`` (the tracer's) wraps each scenario call.
    """
    done = []
    for _ in range(rounds):
        samples, outcomes = {}, {}
        for step in steps:
            # the last scenario's garbage is not this one's to collect, nor
            # should when it goes decide the process's peak memory
            gc.collect()
            start = time.perf_counter()
            if span is None:
                outcome = step.run()
            else:
                with span(step.layer, step.name):
                    outcome = step.run()
            end = time.perf_counter()
            samples[step.name] = host.sample(end - start, start, end)
            outcomes[step.name] = outcome
            if outcome.failures:
                for failure in outcome.failures:
                    tally.fail(failure)
            else:
                tally.ok()
        done.append(Round(samples, outcomes))
    return done
