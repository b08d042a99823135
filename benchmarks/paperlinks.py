"""Calibrated models of the paper's two measurement WANs (§6).

* **Amsterdam–Rennes** — "high-latency, low-bandwidth": capacity 1.6 MB/s,
  typical latency 30 ms, enough loss that plain TCP reaches ~56% of
  capacity.  Hosts' zlib-1 compression rate is calibrated so compression
  saturates near the paper's 3.25 MB/s.
* **Delft–Sophia** — "high-latency, high-bandwidth": capacity 9 MB/s,
  latency 43 ms; plain TCP is receive-window limited (~19% of capacity).
  Faster hosts: compression tops out near 5 MB/s.

Calibration constants are *hardware parameters* (2004-era CPUs differ per
site pair), documented in EXPERIMENTS.md.  The workload payload is
synthetic data whose measured zlib-1 ratio ≈ 3.5, matching the ratio
implied by the paper's slow-link compression numbers.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.monitor import PathMonitor
from repro.core.scenarios import GridScenario
from repro.core.utilization.spec import StackSpec
from repro.simnet.cpu import CpuModel
from repro.tune import LinkSignals
from repro.workloads import payload_with_ratio

__all__ = [
    "AMSTERDAM_RENNES",
    "DELFT_SOPHIA",
    "build_paper_wan",
    "measure",
    "probe_signals",
    "PAYLOAD_RATIO",
]

PAYLOAD_RATIO = 3.6

AMSTERDAM_RENNES = {
    "name": "amsterdam-rennes",
    "capacity": 1.6e6,
    "one_way_delay": 0.015,
    "loss": 0.0025,
    "cpu_rates": {"compress": 3.6e6, "decompress": 20e6, "serialize": 30e6},
}

DELFT_SOPHIA = {
    "name": "delft-sophia",
    "capacity": 9e6,
    "one_way_delay": 0.0215,
    "loss": 0.0005,
    "cpu_rates": {"compress": 5.2e6, "decompress": 30e6, "serialize": 11e6},
}


def build_paper_wan(link: dict, seed: int = 9) -> GridScenario:
    """Two firewalled sites joined by the given WAN; returns the scenario
    with nodes ``src`` and ``dst`` (CPU models attached)."""
    scenario = GridScenario(seed=seed)
    capacity = link["capacity"]
    owd = link["one_way_delay"]
    for index, site in enumerate(("left", "right")):
        scenario.add_site(
            site,
            "firewall",
            access_delay=owd / 2,
            access_bandwidth=capacity,
            access_loss=link["loss"] if index == 0 else 0.0,
            queue_bytes=int(capacity * 2 * owd),
        )
    src = scenario.add_node("left", "src")
    dst = scenario.add_node("right", "dst")
    for node in (src, dst):
        CpuModel(scenario.sim, rates=link["cpu_rates"]).attach(node.host)
    return scenario


def probe_signals(link: dict) -> LinkSignals:
    """Probe the path the way a deployment would — the
    :class:`~repro.core.monitor.PathMonitor` — and add what a deployment
    knows besides: the link's loss, the hosts' compression rate and the
    workload's payload ratio.  No knob is set by hand."""
    scenario = build_paper_wan(link, seed=41)
    src = scenario.nodes["src"]
    dst = scenario.nodes["dst"]
    out = {}

    async def initiator():
        await src.start()
        while not dst.relay_client.connected:
            await scenario.sim.timeout(0.05)
        service = await src.open_service_link("dst")
        monitor = PathMonitor(src)
        out["signals"] = await monitor.estimate(service, dst.info)
        await monitor.finish(service)

    async def responder():
        await dst.start()
        _peer, service = await dst.accept_service_link()
        await PathMonitor(dst).serve(service)

    scenario.sim.process(initiator())
    scenario.sim.process(responder())
    scenario.run(until=600)
    return replace(
        out["signals"],
        loss_rate=link["loss"],
        compress_rate=link["cpu_rates"]["compress"],
        payload_ratio=PAYLOAD_RATIO,
    )


def measure(
    link: dict,
    spec: StackSpec,
    message_size: int,
    total_bytes: int,
    seed: int = 9,
) -> float:
    """Throughput (MB/s) of one driver stack on one paper link."""
    scenario = build_paper_wan(link, seed=seed)
    payload = payload_with_ratio(1 << 20, PAYLOAD_RATIO, seed=5)
    result = scenario.measure_stack_throughput(
        "src", "dst", spec, payload, total_bytes, message_size=message_size
    )
    return result["throughput"]


def format_series(title: str, columns: list, rows: list) -> str:
    """Render a figure table: rows of (x, {series: value})."""
    out = [title, ""]
    header = f"{'msg size':>10s}" + "".join(f"{c:>22s}" for c in columns)
    out.append(header)
    for x, values in rows:
        line = f"{x:>10d}" + "".join(f"{values[c]:>22.2f}" for c in columns)
        out.append(line)
    return "\n".join(out)
