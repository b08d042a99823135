#!/usr/bin/env python3
"""GridFTP-style striped file transfer between two grid sites.

The paper motivates parallel streams by GridFTP ("probably the best-known
tool implementing this approach", §1).  This example moves a synthetic
dataset between firewalled sites on a Delft–Sophia-class WAN, comparing
stream counts and showing the auto-tuner picking the right one.

Run:  python examples/striped_file_transfer.py
"""

import hashlib

from repro.tune.planner import recommend_streams
from repro.core.factory import BrokeredConnectionFactory
from repro.core.scenarios import GridScenario
from repro.core.utilization.spec import StackSpec
from repro.workloads import scientific_mesh

CAPACITY = 9e6
ONE_WAY = 0.0215
FILE_SIZE = 12_000_000


def transfer(nstreams: int, dataset: bytes) -> tuple[float, str]:
    scenario = GridScenario(seed=31)
    for name in ("delft", "sophia"):
        scenario.add_site(
            name,
            "firewall",
            access_delay=ONE_WAY / 2,
            access_bandwidth=CAPACITY,
            queue_bytes=int(CAPACITY * 2 * ONE_WAY),
        )
    src = scenario.add_node("delft", "src")
    dst = scenario.add_node("sophia", "dst")
    out = {}

    def sender():
        yield from src.start()
        while not dst.relay_client.connected:
            yield scenario.sim.timeout(0.05)
        service = yield from src.open_service_link("dst")
        factory = BrokeredConnectionFactory(src)
        spec = StackSpec.parallel(nstreams) if nstreams > 1 else StackSpec.tcp()
        channel = yield from factory.connect(service, dst.info, spec=spec)
        t0 = scenario.sim.now
        yield from channel.write(dataset)
        yield from channel.flush()
        channel.close()
        out["t0"] = t0

    def receiver():
        yield from dst.start()
        _peer, service = yield from dst.accept_service_link()
        factory = BrokeredConnectionFactory(dst)
        channel = yield from factory.accept(service)
        received = bytearray()
        while len(received) < FILE_SIZE:
            data = yield from channel.read(1 << 20)
            if not data:
                break
            received.extend(data)
        out["seconds"] = scenario.sim.now - out["t0"]
        out["digest"] = hashlib.sha256(received).hexdigest()[:12]

    scenario.sim.process(sender())
    scenario.sim.process(receiver())
    scenario.run(until=600)
    return out["seconds"], out["digest"]


def main() -> None:
    dataset = scientific_mesh(FILE_SIZE, seed=9)
    want = hashlib.sha256(dataset).hexdigest()[:12]
    print(
        f"dataset: {FILE_SIZE / 1e6:.0f} MB mesh snapshot, sha256 {want}\n"
        f"WAN: {CAPACITY / 1e6:.0f} MB/s, {2 * ONE_WAY * 1000:.0f} ms RTT, "
        f"both sites firewalled (links spliced)\n"
    )
    print(f"{'streams':>8s} {'seconds':>9s} {'MB/s':>7s} {'integrity':>10s}")
    for nstreams in (1, 2, 4, 8):
        seconds, digest = transfer(nstreams, dataset)
        ok = "ok" if digest == want else "CORRUPT"
        print(
            f"{nstreams:8d} {seconds:9.2f} {FILE_SIZE / seconds / 1e6:7.2f} "
            f"{ok:>10s}"
        )
    recommended = recommend_streams(CAPACITY, 2 * ONE_WAY)
    print(f"\nauto-tuner recommendation for this path: {recommended} streams")


if __name__ == "__main__":
    main()
