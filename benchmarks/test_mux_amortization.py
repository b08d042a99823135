"""Mux tentpole: N channels over one link vs N separately-brokered links.

The point of the mux subsystem is amortization — brokered establishment
(service-link negotiation, rendezvous, NAT probing, fall-back attempts)
is paid once per peer pair instead of once per conversation.  This
benchmark opens 8 logical conversations between an open site and a
broken-NAT site — the paper's most expensive cell: splicing is predicted
feasible, the attempt fails behaviourally, and brokering falls back to
the gateway SOCKS proxy — first as 8 independently-established
``tcp_block`` links, then as 8 channels over one shared
``tcp_block|mux`` carrier, and compares the setup-amortized aggregate
throughput (total payload bytes over the full wall time from the first
connect to the last delivered byte).

The ISSUE's acceptance bar: the muxed variant must be at least 2x.
"""

import random
from typing import Generator

from conftest import once
from repro.core.factory import BrokeredConnectionFactory
from repro.core.scenarios import GridScenario
from repro.core.utilization.spec import StackSpec

N_CHANNELS = 8
CHANNEL_BYTES = 128 * 1024
_CHUNK = 32 * 1024

PAYLOADS = [
    random.Random(f"mux-amortization:{i}").randbytes(CHANNEL_BYTES)
    for i in range(N_CHANNELS)
]


def _run_case(spec_str: str) -> dict:
    sc = GridScenario(seed=29)
    sc.add_site("A", "open", access_bandwidth=2_500_000.0, access_delay=0.01)
    sc.add_site(
        "B", "broken_nat", access_bandwidth=2_500_000.0, access_delay=0.01
    )
    node_a = sc.add_node("A", "a")
    node_b = sc.add_node("B", "b")
    sim = sc.sim
    spec = StackSpec.parse(spec_str)
    res: dict = {"received": 0, "done": 0}

    def send_one(channel, i) -> Generator:
        payload = PAYLOADS[i]
        yield from channel.write(i.to_bytes(4, "big"))
        for off in range(0, len(payload), _CHUNK):
            yield from channel.write(payload[off : off + _CHUNK])
        yield from channel.flush()
        channel.close()

    def read_one(channel) -> Generator:
        idx = int.from_bytes((yield from channel.read_exactly(4)), "big")
        got = yield from channel.read_exactly(len(PAYLOADS[idx]))
        assert got == PAYLOADS[idx]
        channel.close()
        res["received"] += len(got)
        res["done"] += 1
        if res["done"] == N_CHANNELS:
            res["t_end"] = sim.now

    def run_a() -> Generator:
        yield from node_a.start()
        yield from node_b.relay_client.wait_connected(timeout=60)
        factory = BrokeredConnectionFactory(node_a)
        res["t0"] = sim.now
        channels = []
        # one control conversation serves all 8 negotiations in BOTH
        # variants, so the comparison isolates data-link establishment
        service = yield from node_a.open_service_link("b")
        for _ in range(N_CHANNELS):
            channel = yield from factory.connect(service, node_b.info, spec=spec)
            channels.append(channel)
        service.close()
        res["setup"] = sim.now - res["t0"]
        for i, channel in enumerate(channels):
            sim.process(send_one(channel, i), name=f"bench-send-{i}")

    def run_b() -> Generator:
        yield from node_b.start()
        factory = BrokeredConnectionFactory(node_b)
        _peer, service = yield from node_b.accept_service_link()
        for i in range(N_CHANNELS):
            channel = yield from factory.accept(service)
            sim.process(read_one(channel), name=f"bench-read-{i}")
        service.close()

    sim.process(run_a(), name="bench-a")
    sim.process(run_b(), name="bench-b")
    sc.run(until=600)
    assert res["done"] == N_CHANNELS, f"only {res['done']}/{N_CHANNELS} done"
    total = res["t_end"] - res["t0"]
    return {
        "setup_s": res["setup"],
        "total_s": total,
        "bytes": res["received"],
        "mbps": res["received"] / total / 1e6,
    }


def _run() -> dict:
    return {
        "separate": _run_case("tcp_block"),
        "muxed": _run_case("tcp_block|mux"),
    }


def test_mux_setup_amortization(benchmark, report, bench_json):
    cases = once(benchmark, _run)
    sep, mux = cases["separate"], cases["muxed"]
    speedup = mux["mbps"] / sep["mbps"]

    lines = [
        "mux amortization — 8 conversations, open site -> broken-NAT site",
        "",
        f"{'variant':>28s} {'setup':>9s} {'total':>9s} {'aggregate':>12s}",
    ]
    for label, c in (("8 links (tcp_block)", sep),
                     ("1 link, 8 channels (mux)", mux)):
        lines.append(
            f"{label:>28s} {c['setup_s']*1000:8.1f}ms {c['total_s']*1000:8.1f}ms"
            f" {c['mbps']:9.2f}MB/s"
        )
    lines.append("")
    lines.append(f"setup-amortized speedup: {speedup:.2f}x (bar: >= 2.0x)")
    report("mux_amortization", "\n".join(lines))
    bench_json(
        "mux_amortization",
        clock="sim",
        channels=N_CHANNELS,
        channel_bytes=CHANNEL_BYTES,
        separate_setup_s=round(sep["setup_s"], 4),
        muxed_setup_s=round(mux["setup_s"], 4),
        separate_mbps=round(sep["mbps"], 3),
        muxed_mbps=round(mux["mbps"], 3),
        speedup=round(speedup, 3),
    )

    # establishment is paid once, not 8 times
    assert mux["setup_s"] < sep["setup_s"] / 2
    # the ISSUE's acceptance bar
    assert speedup >= 2.0, f"speedup {speedup:.2f}x below the 2x bar"
