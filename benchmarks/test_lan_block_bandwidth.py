"""§4.1: user-space aggregation on a 100 Mbit/s Ethernet LAN.

"Buffering in user space in combination with an explicit flush allows
disabling TCP_DELAY, and ensures a high bandwidth (around 11.8 MB/s on a
100 Mbit/s Ethernet LAN) in combination with a minimal latency."

Compared against the naive strategy the paper warns about: one driver
block per small application send.
"""

from conftest import once
from repro.core.links import TcpLink
from repro.core.utilization import BlockChannel, TcpBlockDriver
from repro.simnet import connect, listen, mb_per_s
from repro.simnet.testing import wan_pair

SMALL_SEND = 1024  # parallel applications send many small packets (§4.1)
TOTAL = 8_000_000
LAN_CAPACITY = 12.5e6  # 100 Mbit/s


def _lan_transfer(block_size: int, flush_each_send: bool):
    # A LAN: full capacity, 50 us one-way.
    inet, a, b = wan_pair(capacity=LAN_CAPACITY, one_way_delay=5e-5, seed=6)
    sim = inet.sim
    res = {}

    async def server():
        listener = listen(b, 5000)
        sock = await listener.accept()
        channel = BlockChannel(TcpBlockDriver(TcpLink(sock, "client_server")), block_size)
        got = 0
        t0 = None
        while got < TOTAL:
            data = await channel.read(1 << 20)
            if not data:
                break
            if t0 is None:
                t0 = sim.now
            got += len(data)
        res["mbps"] = mb_per_s(got, sim.now - t0)

    async def client():
        sock = await connect(a, (b.ip, 5000))
        channel = BlockChannel(TcpBlockDriver(TcpLink(sock, "client_server")), block_size)
        sent = 0
        chunk = b"m" * SMALL_SEND
        while sent < TOTAL:
            await channel.write(chunk)
            if flush_each_send:
                await channel.flush()
            sent += len(chunk)
        await channel.flush()

    sim.process(server())
    sim.process(client())
    sim.run(until=sim.now + 300)
    return res["mbps"]


def _latency():
    """One small message round trip on the LAN (the 'minimal latency')."""
    inet, a, b = wan_pair(capacity=LAN_CAPACITY, one_way_delay=5e-5, seed=6)
    sim = inet.sim
    res = {}

    async def server():
        listener = listen(b, 5000)
        sock = await listener.accept()
        channel = BlockChannel(TcpBlockDriver(TcpLink(sock, "client_server")), 65536)
        msg = await channel.recv_message()
        await channel.send_message(msg)

    async def client():
        sock = await connect(a, (b.ip, 5000))
        channel = BlockChannel(TcpBlockDriver(TcpLink(sock, "client_server")), 65536)
        t0 = sim.now
        await channel.send_message(b"ping-pong-64-bytes".ljust(64))
        await channel.recv_message()
        res["rtt"] = sim.now - t0

    sim.process(server())
    sim.process(client())
    sim.run(until=sim.now + 10)
    return res["rtt"]


def _nagle_latency(nodelay: bool) -> float:
    """Two-part small request latency — Nagle's write-write-read penalty
    ("TCP_DELAY ... adds significantly to the latency", §4.1)."""
    from repro.simnet import TcpConfig

    inet, a, b = wan_pair(capacity=LAN_CAPACITY, one_way_delay=5e-5, seed=6)
    sim = inet.sim
    cfg = TcpConfig(nodelay=nodelay, delayed_ack=0.0 if nodelay else 0.04)
    res = {}

    async def server():
        b.tcp.config = cfg
        listener = listen(b, 5000)
        sock = await listener.accept()
        rtts = []
        for _ in range(5):
            await sock.recv_exactly(8)
            await sock.send_all(b"resp")

    async def client():
        sock = await connect(a, (b.ip, 5000), config=cfg)
        samples = []
        for _ in range(5):
            t0 = sim.now
            await sock.send_all(b"head")
            await sock.send_all(b"body")
            await sock.recv_exactly(4)
            samples.append(sim.now - t0)
        res["latency"] = sum(samples) / len(samples)

    sim.process(server())
    sim.process(client())
    sim.run(until=sim.now + 30)
    return res["latency"]


def _run():
    aggregated = _lan_transfer(block_size=65536, flush_each_send=False)
    per_send = _lan_transfer(block_size=65536, flush_each_send=True)
    rtt = _latency()
    nodelay_lat = _nagle_latency(nodelay=True)
    nagle_lat = _nagle_latency(nodelay=False)
    return aggregated, per_send, rtt, nodelay_lat, nagle_lat


def test_lan_aggregation_bandwidth(benchmark, report, bench_json):
    aggregated, per_send, rtt, nodelay_lat, nagle_lat = once(benchmark, _run)
    bench_json(
        "lan_block",
        clock="sim",
        aggregated_mb_per_s=round(aggregated, 3),
        per_send_mb_per_s=round(per_send, 3),
        rtt_us=round(rtt * 1e6, 1),
        nodelay_latency_us=round(nodelay_lat * 1e6, 1),
        nagle_latency_us=round(nagle_lat * 1e6, 1),
    )

    lines = [
        "§4.1 — TCP_Block aggregation on a 100 Mbit/s LAN",
        "",
        f"aggregated blocks + explicit flush : {aggregated:6.2f} MB/s "
        f"(paper: ~11.8 MB/s)",
        f"one block per {SMALL_SEND}-byte send       : {per_send:6.2f} MB/s",
        f"small-message round-trip latency   : {rtt * 1e6:6.0f} us",
        "",
        "two-part request latency (write-write-read):",
        f"  TCP_NODELAY (library default)    : {nodelay_lat * 1e6:6.0f} us",
        f"  Nagle + delayed ACKs (TCP_DELAY) : {nagle_lat * 1e6:6.0f} us",
    ]
    report("lan_block_bandwidth", "\n".join(lines))

    # Near the paper's 11.8 MB/s (94% of the 12.5 MB/s raw rate).
    assert aggregated > 10.5
    # Aggregation beats per-send flushing (framing + per-packet overhead).
    assert aggregated > per_send
    # Minimal latency: well under a millisecond on the LAN.
    assert rtt < 0.002
    # §4.1: TCP's own aggregation "adds significantly to the latency".
    assert nagle_lat > 5 * nodelay_lat
