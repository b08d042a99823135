"""Tracing overhead on the LAN bandwidth workload (acceptance for PR 4).

The flight recorder is *always on* — every node keeps a bounded ring of
lifecycle notes whether or not anyone asked for a trace — so its cost
must be invisible: the acceptance bar is <5% wall-clock overhead on the
lan_block bandwidth transfer versus the recorder disabled outright.  The
opt-in full tracer is measured alongside for the trajectory record (it
may cost more; it is off by default).

Simulated throughput is identical in all modes by construction (the
instrumentation does not touch simulated time), so the comparison is
host wall-clock per mode, min-of-N to shed scheduler noise.
"""

import time

from conftest import once
from repro import obs
from repro.core.scenarios import GridScenario
from repro.core.utilization import StackSpec

LAN_CAPACITY = 12.5e6  # 100 Mbit/s
TOTAL = 6_000_000
REPEATS = 3


class _FlightOff:
    """Stand-in ring that swallows notes (the 'recorder disabled' mode)."""

    node = "off"
    dropped = 0

    def note(self, name, ctx=None, **attrs):
        pass

    def records(self):
        return []


def _transfer(mode: str) -> dict:
    sc = GridScenario(seed=6)
    for name in ("a", "b"):
        sc.add_site(
            name, "open", access_bandwidth=LAN_CAPACITY, access_delay=2.5e-5
        )
    sc.add_node("a", "src")
    sc.add_node("b", "dst")
    if mode == "off":
        for node in sc.nodes.values():
            node.flight = _FlightOff()
        sc.relay.flight = _FlightOff()
    if mode == "tracing":
        obs.enable_tracing()
    try:
        t0 = time.perf_counter()
        result = sc.measure_stack_throughput(
            "src", "dst", StackSpec.tcp(), b"m" * 65536, TOTAL
        )
        wall = time.perf_counter() - t0
    finally:
        if mode == "tracing":
            obs.disable_tracing()
    return {"wall": wall, "throughput": result["throughput"]}


def _run():
    out = {}
    # interleave the modes across repeats so drift hits them evenly
    for mode in ("off", "flight", "tracing"):
        out[mode] = {"wall": float("inf"), "throughput": 0.0}
    for _ in range(REPEATS):
        for mode in out:
            sample = _transfer(mode)
            out[mode]["wall"] = min(out[mode]["wall"], sample["wall"])
            out[mode]["throughput"] = sample["throughput"]
    return out


def test_flight_recorder_overhead_under_5_percent(benchmark, report, bench_json):
    modes = once(benchmark, _run)

    base = modes["off"]["wall"]
    flight_pct = 100.0 * (modes["flight"]["wall"] - base) / base
    tracing_pct = 100.0 * (modes["tracing"]["wall"] - base) / base

    lines = [
        "Tracing overhead — lan_block transfer, wall-clock (min of "
        f"{REPEATS})",
        "",
        f"recorder disabled   : {base * 1000:8.1f} ms  "
        f"({modes['off']['throughput']:.2f} MB/s simulated)",
        f"flight recorder on  : {modes['flight']['wall'] * 1000:8.1f} ms  "
        f"({flight_pct:+.1f}%)",
        f"full tracing on     : {modes['tracing']['wall'] * 1000:8.1f} ms  "
        f"({tracing_pct:+.1f}%)",
    ]
    report("obs_overhead", "\n".join(lines))
    bench_json(
        "tracing_overhead",
        clock="wall",
        baseline_wall_ms=round(base * 1000, 2),
        flight_wall_ms=round(modes["flight"]["wall"] * 1000, 2),
        tracing_wall_ms=round(modes["tracing"]["wall"] * 1000, 2),
        flight_overhead_pct=round(flight_pct, 2),
        tracing_overhead_pct=round(tracing_pct, 2),
    )
    # the transfer those wall times bracket, in simulated MB/s
    bench_json(
        "tracing_overhead_sim",
        clock="sim",
        lan_throughput_mb_per_s=round(modes["flight"]["throughput"], 3),
    )

    # simulated results are mode-independent — the instrumentation must
    # never perturb the experiment it observes
    assert modes["flight"]["throughput"] == modes["off"]["throughput"]
    assert modes["tracing"]["throughput"] == modes["off"]["throughput"]
    # the acceptance bar: the always-on ring is free to first order
    assert flight_pct < 5.0, f"flight recorder costs {flight_pct:.1f}%"
