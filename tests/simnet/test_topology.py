"""Topology: routing, forwarding, sites, the Internet builder."""

import pytest

from repro.simnet import (
    ConeNAT,
    Internet,
    Network,
    StatefulFirewall,
    connect,
    listen,
)
from repro.simnet.packet import Segment, is_private
from repro.simnet.testing import drive, echo_server


def test_connected_route_and_lookup():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, "192.168.0.1", "192.168.0.2", 24)
    assert a.route("192.168.0.2") is a.interfaces[0]
    assert a.route("8.8.8.8") is None


def test_longest_prefix_wins():
    net = Network()
    r = net.add_router("r")
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(r, a, "10.0.0.1", "10.0.0.2", 24)
    net.connect(r, b, "10.0.1.1", "10.0.1.2", 24)
    r.add_route("10.0.0.0", 8, r.interfaces[1])  # broad route via b's side
    # /24 beats /8
    assert r.route("10.0.0.99") is r.interfaces[0]
    assert r.route("10.9.9.9") is r.interfaces[1]


def test_default_route():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, "10.0.0.1", "10.0.0.2", 30)
    a.default_route(a.interfaces[0])
    assert a.route("203.0.113.9") is a.interfaces[0]


def test_loopback_delivery():
    inet = Internet()
    host = inet.add_public_host("h")
    result = {}

    def proc():
        inet.sim.process(echo_server(host, 7000))
        sock = yield from connect(host, (host.ip, 7000))
        yield from sock.send_all(b"self-talk")
        result["echo"] = yield from sock.recv_exactly(9)
        sock.close()

    drive(inet.sim, proc())
    assert result["echo"] == b"self-talk"


def test_ttl_prevents_forwarding_loops():
    net = Network()
    r1 = net.add_router("r1")
    r2 = net.add_router("r2")
    net.connect(r1, r2, "10.0.0.1", "10.0.0.2", 30)
    # Both route the victim prefix at each other: a loop.
    r1.add_route("203.0.113.0", 24, r1.interfaces[0])
    r2.add_route("203.0.113.0", 24, r2.interfaces[0])
    drops = []
    net.tracers.append(lambda e: drops.append(e) if e["kind"] == "drop" else None)
    seg = Segment(src=("10.0.0.1", 1), dst=("203.0.113.5", 2))
    r1.send_segment(seg)
    net.run()
    assert any(e["reason"] == "ttl" for e in drops)


def test_no_route_drops():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, "10.0.0.1", "10.0.0.2", 30)
    drops = []
    net.tracers.append(lambda e: drops.append(e) if e["kind"] == "drop" else None)
    a.send_segment(Segment(src=(a.ip, 1), dst=("203.0.113.1", 2)))
    net.run()
    assert any(e["reason"] == "no-route" for e in drops)


def test_non_forwarding_host_drops_transit():
    net = Network()
    a = net.add_host("a")  # not a router
    b = net.add_host("b")
    net.connect(a, b, "10.0.0.1", "10.0.0.2", 30)
    drops = []
    net.tracers.append(lambda e: drops.append(e) if e["kind"] == "drop" else None)
    b.send_segment(Segment(src=(b.ip, 1), dst=("203.0.113.1", 2)))
    b.default_route(b.interfaces[0])
    b.send_segment(Segment(src=(b.ip, 1), dst=("203.0.113.1", 2)))
    net.run()
    assert any(e["reason"] == "not-for-me" for e in drops)


# -- what the data path remembers between packets must track its sources ----


def _three_hosts():
    """``r`` forwards between ``a`` (10.0.0.0/24) and ``b`` (10.0.1.0/24)."""
    net = Network()
    r = net.add_router("r")
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(r, a, "10.0.0.1", "10.0.0.2", 24)
    net.connect(r, b, "10.0.1.1", "10.0.1.2", 24)
    a.default_route(a.interfaces[0])
    b.default_route(b.interfaces[0])
    return net, r, a, b


def test_more_specific_route_added_after_traffic_wins_on_the_next_packet():
    net, r, a, b = _three_hosts()
    r.add_route("203.0.113.0", 24, r.interfaces[0])  # victim prefix: via a
    seen = []
    net.tracers.append(
        lambda e: seen.append((e["host"].name, e["reason"]))
        if e["kind"] == "drop" else None
    )

    def probe():
        b.send_segment(Segment(src=(b.ip, 1), dst=("203.0.113.5", 2)))
        net.run()

    probe()
    probe()  # the second one rides whatever the first left behind
    assert seen == [("a", "not-for-me")] * 2
    r.add_route("203.0.113.5", 32, r.interfaces[1])  # now: back out via b
    probe()
    assert seen[2:] == [("b", "not-for-me")]
    assert r.route("203.0.113.5") is r.interfaces[1]
    assert r.route("203.0.113.6") is r.interfaces[0]


def test_route_miss_is_not_remembered_past_add_route():
    net, r, a, b = _three_hosts()
    assert r.route("203.0.113.5") is None
    r.default_route(r.interfaces[1])
    assert r.route("203.0.113.5") is r.interfaces[1]


def test_interface_added_later_is_local_at_once():
    net, r, a, b = _three_hosts()
    delivered = []
    b._deliver_local = delivered.append
    stray = Segment(src=(a.ip, 1), dst=("10.0.2.2", 2))
    a.send_segment(stray)
    net.run()
    assert delivered == []  # r has no route to 10.0.2.0/24 yet
    c = net.add_host("c")
    net.connect(b, c, "10.0.2.2", "10.0.2.3", 24)
    assert "10.0.2.2" in b.local_ips
    r.add_route("10.0.2.0", 24, r.interfaces[1])
    a.send_segment(stray)
    net.run()
    assert delivered == [stray]


def test_tracer_appended_mid_run_sees_the_next_events():
    net, r, a, b = _three_hosts()
    to_b = dict(src=(a.ip, 1), dst=(b.ip, 2), rst=True)
    a.send_segment(Segment(**to_b))  # flows with nobody listening, unanswered
    net.run()
    kinds = []
    tracer = lambda e: kinds.append((e["kind"], e["host"].name))  # noqa: E731
    sim = net.sim
    # in flight on a->r when the tracer arrives: r and b must report it
    a.interfaces[0].transmitter.delay = 2.0
    a.send_segment(Segment(**to_b))
    sim.call_later(1.0, net.tracers.append, tracer)
    sim.call_later(3.0, a.send_segment, Segment(**{**to_b, "dst": (a.ip, 2)}))
    sim.call_later(3.0, a.send_segment, Segment(src=(a.ip, 1), dst=("203.0.113.1", 2)))
    net.run()
    assert kinds == [
        ("rx", "r"), ("tx", "r"), ("rx", "b"),
        ("lo", "a"),
        ("tx", "a"), ("rx", "r"), ("drop", "r"),
    ]


def test_duplicate_host_name_rejected():
    net = Network()
    net.add_host("x")
    with pytest.raises(ValueError):
        net.add_host("x")


class TestInternetBuilder:
    def test_public_hosts_can_talk_both_ways(self):
        inet = Internet()
        a = inet.add_public_host("a")
        b = inet.add_public_host("b")
        result = {}

        def proc():
            inet.sim.process(echo_server(b, 5000))
            sock = yield from connect(a, (b.ip, 5000))
            yield from sock.send_all(b"ping")
            result["r"] = yield from sock.recv_exactly(4)
            sock.close()

        drive(inet.sim, proc())
        assert result["r"] == b"ping"

    def test_open_site_nodes_have_public_addresses(self):
        inet = Internet()
        site = inet.add_site("open")
        node = site.add_node()
        assert not is_private(node.ip)

    def test_nat_site_nodes_have_private_addresses(self):
        inet = Internet()
        site = inet.add_site("natted", nat=ConeNAT())
        node = site.add_node()
        assert is_private(node.ip)

    def test_two_nodes_same_site_communicate(self):
        inet = Internet()
        site = inet.add_site("s")
        n1, n2 = site.add_node(), site.add_node()
        result = {}

        def proc():
            inet.sim.process(echo_server(n2, 6000))
            sock = yield from connect(n1, (n2.ip, 6000))
            yield from sock.send_all(b"lan")
            result["r"] = yield from sock.recv_exactly(3)

        drive(inet.sim, proc())
        assert result["r"] == b"lan"

    def test_cross_site_open_to_open(self):
        inet = Internet()
        s1, s2 = inet.add_site("x"), inet.add_site("y")
        n1, n2 = s1.add_node(), s2.add_node()
        result = {}

        def proc():
            inet.sim.process(echo_server(n2, 6000))
            sock = yield from connect(n1, (n2.ip, 6000))
            yield from sock.send_all(b"wan")
            result["r"] = yield from sock.recv_exactly(3)

        drive(inet.sim, proc())
        assert result["r"] == b"wan"

    def test_gateway_reachable_from_inside_and_outside(self):
        inet = Internet()
        site = inet.add_site("fw", firewall=StatefulFirewall())
        node = site.add_node()
        outside = inet.add_public_host("out")
        result = {}

        def proc():
            inet.sim.process(echo_server(site.gateway, 1234))
            inet.sim.process(echo_server(site.gateway, 1235))
            s1 = yield from connect(node, (site.gateway.ip, 1234))
            yield from s1.send_all(b"in")
            result["in"] = yield from s1.recv_exactly(2)
            s2 = yield from connect(outside, (site.gateway.ip, 1235))
            yield from s2.send_all(b"out")
            result["out"] = yield from s2.recv_exactly(3)

        drive(inet.sim, proc())
        assert result == {"in": b"in", "out": b"out"}

    def test_private_addresses_not_routable_from_outside(self):
        inet = Internet()
        site = inet.add_site("natted", nat=ConeNAT())
        node = site.add_node()
        outside = inet.add_public_host("out")
        drops = []
        inet.net.tracers.append(
            lambda e: drops.append(e) if e["kind"] == "drop" else None
        )
        seg = Segment(src=(outside.ip, 1), dst=(node.ip, 2))
        outside.send_segment(seg)
        inet.net.run()
        assert any(e["reason"] == "no-route" for e in drops)
