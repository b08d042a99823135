"""§3.4: the relay is a bottleneck and adds latency.

"Because the data of several nodes are routed through a unique relay, the
relay itself is likely to be a bottleneck, lowering the achievable
bandwidth.  Since the relay adds a receipt/send on the route between the
sender and the receiver, the use of a relay is also likely to raise the
communication latency."
"""

from conftest import once
from repro.core.scenarios import GridScenario
from repro.simnet import mb_per_s

PAIRS = 3
PER_PAIR = 2_000_000
#: the relay runs on a site gateway with a modest uplink (§3.3) — all
#: routed traffic crosses it twice (in and out)
RELAY_UPLINK = 6e6


def _scenario():
    sc = GridScenario(seed=12, relay_bandwidth=RELAY_UPLINK, relay_delay=0.004)
    for i in range(PAIRS):
        sc.add_site(f"L{i}", "open", access_bandwidth=8e6, access_delay=0.005)
        sc.add_site(f"R{i}", "open", access_bandwidth=8e6, access_delay=0.005)
        sc.add_node(f"L{i}", f"src{i}")
        sc.add_node(f"R{i}", f"dst{i}")
    return sc


def _throughputs(methods):
    sc = _scenario()
    res = {}

    def sender(i):
        node = sc.nodes[f"src{i}"]
        peer = sc.nodes[f"dst{i}"]
        yield from node.start()
        while not peer.relay_client.connected:
            yield sc.sim.timeout(0.05)
        service = yield from node.open_service_link(f"dst{i}")
        link = yield from node.broker.initiate(service, peer.info, methods)
        payload = b"r" * 32768
        sent = 0
        while sent < PER_PAIR:
            yield from link.send_all(payload)
            sent += len(payload)
        link.close()

    def receiver(i):
        node = sc.nodes[f"dst{i}"]
        yield from node.start()
        _peer, service = yield from node.accept_service_link()
        link = yield from node.broker.respond(service)
        got = 0
        t0 = None
        while got < PER_PAIR:
            data = yield from link.recv(65536)
            if not data:
                break
            if t0 is None:
                t0 = sc.sim.now
            got += len(data)
        res[i] = mb_per_s(got, sc.sim.now - t0)

    for i in range(PAIRS):
        sc.sim.process(sender(i))
        sc.sim.process(receiver(i))
    sc.run(until=2000)
    return sum(res.values())


def _latency(methods):
    sc = _scenario()
    res = {}

    def sender():
        node = sc.nodes["src0"]
        peer = sc.nodes["dst0"]
        yield from node.start()
        while not peer.relay_client.connected:
            yield sc.sim.timeout(0.05)
        service = yield from node.open_service_link("dst0")
        link = yield from node.broker.initiate(service, peer.info, methods)
        # measure steady-state round trips
        rtts = []
        for _ in range(5):
            t0 = sc.sim.now
            yield from link.send_all(b"x" * 64)
            yield from link.recv_exactly(64)
            rtts.append(sc.sim.now - t0)
        res["rtt"] = min(rtts)

    def receiver():
        node = sc.nodes["dst0"]
        yield from node.start()
        _peer, service = yield from node.accept_service_link()
        link = yield from node.broker.respond(service)
        for _ in range(5):
            data = yield from link.recv_exactly(64)
            yield from link.send_all(data)

    sc.sim.process(sender())
    sc.sim.process(receiver())
    sc.run(until=120)
    return res["rtt"]


def _run():
    direct_bw = _throughputs(["client_server"])
    routed_bw = _throughputs(["routed"])
    direct_rtt = _latency(["client_server"])
    routed_rtt = _latency(["routed"])
    return direct_bw, routed_bw, direct_rtt, routed_rtt


def test_relay_is_a_bottleneck(benchmark, report):
    direct_bw, routed_bw, direct_rtt, routed_rtt = once(benchmark, _run)

    lines = [
        "§3.4 — relay bottleneck "
        f"({PAIRS} concurrent pairs, 8 MB/s site links, "
        f"{RELAY_UPLINK / 1e6:.0f} MB/s relay uplink)",
        "",
        f"aggregate bandwidth, direct links : {direct_bw:7.2f} MB/s",
        f"aggregate bandwidth, via relay    : {routed_bw:7.2f} MB/s",
        f"message round-trip, direct        : {direct_rtt * 1000:7.2f} ms",
        f"message round-trip, via relay     : {routed_rtt * 1000:7.2f} ms",
    ]
    report("relay_bottleneck", "\n".join(lines))

    # Bandwidth collapses through the single relay.
    assert routed_bw < 0.6 * direct_bw
    # Latency rises: the relay adds a receipt/send on the path.
    assert routed_rtt > 1.3 * direct_rtt
