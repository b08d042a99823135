#!/usr/bin/env python3
"""§8 realized: automated selection of communication methods.

"This combination will allow the automated selection of the proper
communication methods for given WAN settings.  Also, parameter adaptation,
like selection of the optimal number of parallel TCP streams or the
dynamic enabling or disabling of compression will then become possible."

For two very different WANs, a path monitor probes the link (NWS-style)
and returns what it measured as the tuner's ``LinkSignals``; the WAN's
loss, the hosts' compression rate and the payload's ratio are added to
them, `select_spec` writes the ``TunePlanner``'s plan as a driver stack,
and the transfer runs with it — compared against naive plain TCP.  The
probe results are read back from the observability registry (the monitor
publishes them as ``path.*`` gauges) rather than recomputed here.

Run:  python examples/auto_selection.py [--trace out.jsonl]

With ``--trace``, metrics and trace events (establishment attempts,
driver byte counters, message-size histograms) are exported as JSON
lines; summarize them with ``python -m repro.obs.report out.jsonl``.
"""

import argparse
from dataclasses import replace

from repro import StackSpec, obs
from repro.core import PathMonitor, select_spec
from repro.core.scenarios import GridScenario
from repro.simnet.cpu import CpuModel
from repro.workloads import payload_with_ratio

WANS = [
    ("slow lossy WAN (1.6 MB/s, 30 ms)", 1.6e6, 0.015, 0.0025, 3.6e6),
    ("fat WAN (9 MB/s, 43 ms)", 9e6, 0.0215, 0.0005, 5.2e6),
]
TOTAL = 6_000_000


def run_wan(label, capacity, owd, loss, compress_rate):
    def build():
        sc = GridScenario(seed=37)
        queue = max(65536, int(capacity * 2 * owd))
        for i, name in enumerate(("left", "right")):
            sc.add_site(
                name, "firewall", access_delay=owd / 2,
                access_bandwidth=capacity,
                access_loss=loss if i == 0 else 0.0, queue_bytes=queue,
            )
        src = sc.add_node("left", "src")
        dst = sc.add_node("right", "dst")
        for node in (src, dst):
            CpuModel(
                sc.sim, rates={"compress": compress_rate, "decompress": 25e6}
            ).attach(node.host)
        return sc, src, dst

    # Phase 1: probe and select.
    sc, src, dst = build()
    chosen = {}

    async def prober():
        await src.start()
        while not dst.relay_client.connected:
            await sc.runtime.sleep(0.05)
        service = await src.open_service_link("dst")
        monitor = PathMonitor(src)
        signals = await monitor.estimate(service, dst.info)
        await monitor.finish(service)
        chosen["spec"] = select_spec(replace(
            signals, loss_rate=loss, compress_rate=compress_rate,
            payload_ratio=3.5,
        ))

    async def server():
        await dst.start()
        _p, service = await dst.accept_service_link()
        await PathMonitor(dst).serve(service)

    sc.spawn(prober(), "prober")
    sc.spawn(server(), "server")
    sc.run(until=600)
    spec = chosen["spec"]

    # The monitor published its measurements as path.* gauges.
    reg = obs.get_registry()
    rtt = reg.gauge("path.rtt_seconds", peer="dst").value
    single = reg.gauge("path.single_stream_bps", peer="dst").value
    cap = reg.gauge("path.capacity_bps", peer="dst").value

    # Phase 2: transfer with the selected spec vs naive plain TCP.
    payload = payload_with_ratio(1 << 20, 3.5, seed=4)
    results = {}
    for name, use_spec in (
        ("naive plain TCP", StackSpec.tcp()),
        (f"selected  ({spec})", spec),
    ):
        sc2, _src, _dst = build()
        r = sc2.measure_stack_throughput(
            "src", "dst", use_spec, payload, TOTAL, message_size=65536
        )
        results[name] = r["throughput"]

    print(f"== {label} ==")
    print(
        f"   probe: rtt {rtt * 1000:.0f} ms, single stream "
        f"{single / 1e6:.2f} MB/s, capacity estimate "
        f"{cap / 1e6:.2f} MB/s"
    )
    for name, mbps in results.items():
        print(f"   {name:28s} {mbps:6.2f} MB/s")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace", metavar="PATH",
        help="export metrics + trace events as JSON lines to PATH",
    )
    args = parser.parse_args()
    if args.trace:
        obs.enable_tracing()
    for wan in WANS:
        run_wan(*wan)
    if args.trace:
        obs.export_jsonl(args.trace)
        print(f"observability export written to {args.trace}")
        print(f"summarize with: python -m repro.obs.report {args.trace}")


if __name__ == "__main__":
    main()
