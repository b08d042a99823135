"""What the benchmark declares: workloads, metrics, units, clock domains.

``BENCHMARK.json`` at the repo root carries the same names, units,
directions and bounds (its schema has no room for the clock domain or the
meaning); ``test_perf.py`` holds the two together.

Clock domains: ``wall`` — host time, reported at the reference host speed
(``harness``); ``sim`` — simulated seconds, repeats exactly for a seed;
``count`` — an exact count or a ratio of counts; ``host`` — a fact about
the process (memory).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "OPERATION",
    "LIVE_LAYERS",
    "PUMP_LAYERS",
    "RUNGS",
]

WORKLOADS = {
    "bulk_plain": (
        "1 MiB messages over tcp_block on one direct socket: only per-block "
        "Python taxes work; must not move for crypto, mux, session or relay"
    ),
    "bulk_secure": (
        "64 KiB messages over tls|tcp_block: security.chacha20/record do "
        "nearly all the work; where the TLS cliff and handshake cost show"
    ),
    "bulk_routed": (
        "1 MiB messages over relay > session > mux > tcp_block: relay, "
        "session and mux carry most of the per-byte cost"
    ),
    "rpc_routed": (
        "256 B request/echo on two mux channels of the routed stack: "
        "per-message costs dominate, so batching or delayed flushes show"
    ),
    "sim_packet": (
        "packet tier: Fig. 9/10 transfers and four chaos scenarios; all "
        "work is simnet.engine/tcp/link and the sim bindings, none is live"
    ),
    "sim_fleet": (
        "flow tier: fleet_fanin at 100k endpoints across a partition; all "
        "work is simnet.flow and chaos.fleet, none is packet tier"
    ),
}

#: the operation whose latency ``latency_ms`` reports, per workload
OPERATION = {
    "bulk_plain": "one 1 MiB message: median spacing of verified deliveries",
    "bulk_secure": "establish incl. TLS handshake (median of 3)",
    "bulk_routed": (
        "establish: relay-registered + session HELLO_OK + mux channel "
        "accepted (median of 11)"
    ),
    "rpc_routed": "256 B request/echo round trip, p50 pooled over both channels",
    "sim_packet": "one scenario set: 6 Fig. 9/10 transfers + 4 chaos runs",
    "sim_fleet": "one fleet_fanin scenario",
}


class Metric(NamedTuple):
    name: str
    unit: str
    clock: str  # wall | sim | count | host
    better: str  # higher | lower
    bound: float = 0.0  # end-to-end only: share of the parent's median
    meaning: str = ""


END_TO_END = [
    Metric(
        "goodput_MBps", "MB/s", "wall", "higher", 0.20,
        "payload bytes delivered and compared equal (live) or audited by "
        "the chaos invariants (sim: simulated bytes the simulator carried) "
        "per second of host time; MB = 1e6 bytes",
    ),
    Metric(
        "latency_ms", "ms", "wall", "lower", 0.20,
        "median time of the workload's operation, named beside each value",
    ),
    Metric(
        "setup_s", "s", "wall", "lower", 0.25,
        "imports + payload generation + CA/identity issue + relay/listener "
        "start: everything before the first round",
    ),
    Metric(
        "peak_rss_MB", "MB", "host", "lower", 0.20,
        "ru_maxrss of the process, which ran only this workload",
    ),
]

LIVE_LAYERS = [
    "livenet.drivers.channel",
    "livenet.drivers.tcp_block",
    "livenet.transport",
    "livenet.drivers.tls",
    "livenet.mux",
    "livenet.session",
    "livenet.relay",
]
#: layers that do part of their work in tasks of their own
PUMP_LAYERS = ["livenet.mux", "livenet.session", "livenet.relay"]
RUNGS = [
    "tcp_block", "compress", "parallel2", "session",
    "mux", "tls", "relay", "routed_full",
]
FIG_SERIES = [
    f"{fig}.{stack}"
    for fig in ("fig9", "fig10")
    for stack in ("tcp", "parallel4", "compress_parallel4")
]


def _per_layer() -> list:
    out = []
    for layer in LIVE_LAYERS + ["bench", "bench.event_loop"]:
        out.append(Metric(f"{layer}.self_share", "ratio", "wall", "lower"))
    for layer in LIVE_LAYERS:
        out += [
            Metric(f"{layer}.self_ns_per_byte", "ns/B", "wall", "lower"),
            Metric(f"{layer}.self_us_per_msg", "us", "wall", "lower"),
            Metric(f"{layer}.calls", "count", "count", "lower"),
            Metric(f"{layer}.bytes_in", "count", "count", "lower"),
            Metric(f"{layer}.bytes_out", "count", "count", "lower"),
        ]
    for layer in PUMP_LAYERS:
        out.append(Metric(f"{layer}.pump_calls", "count", "count", "lower"))
    out += [
        Metric("security.record.seal_MBps", "MB/s", "wall", "higher"),
        Metric("security.record.open_MBps", "MB/s", "wall", "higher"),
        Metric("security.chacha20.xor_MBps", "MB/s", "wall", "higher"),
        Metric("security.handshake.pair_ms", "ms", "wall", "lower"),
        Metric("obs.metrics.counter_inc_ns", "ns", "wall", "lower"),
        Metric("obs.event_ns", "ns", "wall", "lower"),
        Metric("mux.frames.encode_data_ns", "ns", "wall", "lower"),
        Metric("mux.frames.decode_data_ns", "ns", "wall", "lower"),
        Metric("util.framing.frame_ns", "ns", "wall", "lower"),
    ]
    for rung in RUNGS:
        out += [
            Metric(f"waterfall.{rung}.MBps", "MB/s", "wall", "higher"),
            Metric(f"waterfall.{rung}.rtt_us", "us", "wall", "lower"),
        ]
    out += [
        Metric("simnet.engine.sim_s_per_wall_s", "ratio", "wall", "higher"),
        Metric("simnet.link.packets_per_wall_s", "1/s", "wall", "higher"),
        Metric("simnet.link.packets", "count", "count", "lower"),
        Metric("simnet.tcp.fig_wall_s", "s", "wall", "lower"),
        Metric("core.session.scenario_wall_s", "s", "wall", "lower"),
        Metric("core.relay.scenario_wall_s", "s", "wall", "lower"),
        Metric("mux.endpoint.scenario_wall_s", "s", "wall", "lower"),
        Metric("ipl.runtime.scenario_wall_s", "s", "wall", "lower"),
        Metric("core.relay.forwarded_bytes", "count", "count", "lower"),
        Metric("core.session.replayed_bytes", "count", "count", "lower"),
        Metric("simnet.flow.scenario_wall_s", "s", "wall", "lower"),
        Metric("simnet.flow.rate_resolves", "count", "count", "lower"),
        Metric("simnet.flow.flows_per_wall_s", "1/s", "wall", "higher"),
        Metric("chaos.fleet.endpoints", "count", "count", "higher"),
    ]
    for series in FIG_SERIES:
        out.append(Metric(f"sim.{series}.MBps_sim", "MB/s", "sim", "higher"))
    out += [
        Metric("bench.rtt_p99_us", "us", "wall", "lower"),
        Metric("bench.host_speed_ms.min", "ms", "wall", "lower"),
        Metric("bench.host_speed_ms.median", "ms", "wall", "lower"),
        Metric("bench.host_speed_ms.max", "ms", "wall", "lower"),
        Metric("bench.rounds_slow", "count", "count", "lower"),
        Metric("bench.round_iqr_share", "ratio", "wall", "lower"),
        Metric("bench.trace_overhead_pct", "%", "wall", "lower"),
        Metric("bench.failed_ops_share", "ratio", "count", "lower"),
    ]
    return out


PER_LAYER = _per_layer()
