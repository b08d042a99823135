"""Failure injection: crashes, tampering, loss bursts, middlebox amnesia."""

import pytest

from repro.core.factory import BrokeredConnectionFactory, TlsConfig
from repro.core.scenarios import GridScenario
from repro.core.utilization import DriverError
from repro.core.utilization.spec import StackSpec
from repro.security import CertificateAuthority, Identity
from repro.simnet import ConnectionReset, connect, listen
from repro.simnet.packet import Segment
from repro.simnet.testing import two_public_hosts, wan_pair
from repro.simnet.topology import PacketFilter


class TestRelayCrash:
    def test_routed_link_sees_eof_when_relay_dies(self):
        sc = GridScenario(seed=61)
        sc.add_site("A", "firewall")
        sc.add_site("B", "firewall")
        a = sc.add_node("A", "a")
        b = sc.add_node("B", "b")
        res = {}

        async def sender():
            await a.start()
            while not b.relay_client.connected:
                await sc.sim.timeout(0.05)
            link = await a.relay_client.open_link("b", payload=b"service")
            await link.send_all(b"before-crash")
            await sc.sim.timeout(1.0)
            sc.relay.stop()  # the relay machine dies
            await sc.sim.timeout(5.0)
            try:
                await link.send_all(b"after-crash")
                data = await link.recv(10)
                res["after"] = data
            except Exception as exc:
                res["after"] = type(exc).__name__

        async def receiver():
            await b.start()
            link = await b.dispatcher.accept_service()
            res["got"] = await link.recv_exactly(12)
            data = await link.recv(10)
            res["eof"] = data

        sc.sim.process(sender())
        sc.sim.process(receiver())
        sc.run(until=120)
        assert res["got"] == b"before-crash"
        assert res["eof"] == b""  # EOF propagated to the receiver
        # The sender's link is dead one way or another.
        assert res["after"] in (b"", "RelayError", "ConnectionReset", "EOFError")


class _BitFlipper(PacketFilter):
    """Flips one bit in the Nth inbound data segment (in-flight tampering).

    Stays dormant until ``armed`` so the (self-protecting) handshake runs
    untouched and the tampering hits application records.
    """

    def __init__(self, target_index: int = 3, min_payload: int = 64):
        self.target_index = target_index
        self.min_payload = min_payload
        self.seen = 0
        self.flipped = False
        self.armed = False

    def ingress(self, segment: Segment):
        if (
            self.armed
            and segment.payload
            and len(segment.payload) >= self.min_payload
        ):
            self.seen += 1
            if self.seen == self.target_index and not self.flipped:
                tampered = bytearray(segment.payload)
                tampered[10] ^= 0x40
                segment.payload = bytes(tampered)
                self.flipped = True
        return segment


class TestTampering:
    def test_tls_detects_in_flight_modification(self):
        sc = GridScenario(seed=62)
        sc.add_site("A", "firewall")
        sc.add_site("B", "firewall")
        src = sc.add_node("A", "src")
        dst = sc.add_node("B", "dst")
        flipper = _BitFlipper()
        sc.sites["B"].wan_iface.filters.append(flipper)

        ca = CertificateAuthority("root")
        ka, cert_a = ca.issue_identity("src")
        kb, cert_b = ca.issue_identity("dst")
        tls_a = TlsConfig([ca.certificate], Identity(ka, [cert_a]))
        tls_b = TlsConfig([ca.certificate], Identity(kb, [cert_b]))
        res = {}

        async def sender():
            await src.start()
            while not dst.relay_client.connected:
                await sc.sim.timeout(0.05)
            service = await src.open_service_link("dst")
            factory = BrokeredConnectionFactory(src, tls_a)
            channel = await factory.connect(service, dst.info, spec=StackSpec.parse("tls|tcp_block"))
            flipper.armed = True  # handshake done; tamper with data records
            for i in range(20):
                await channel.send_message(b"record-%03d" % i * 50)

        async def receiver():
            await dst.start()
            _p, service = await dst.accept_service_link()
            factory = BrokeredConnectionFactory(dst, tls_b)
            channel = await factory.accept(service)
            count = 0
            try:
                while True:
                    await channel.recv_message()
                    count += 1
            except DriverError as exc:
                res["error"] = str(exc)
            res["delivered"] = count

        sc.sim.process(sender())
        sc.sim.process(receiver())
        sc.run(until=240)
        assert flipper.flipped
        assert "authentication failed" in res["error"]
        assert res["delivered"] < 20  # the tampered record never delivers


class TestLossBurst:
    def test_transfer_survives_temporary_blackout(self):
        inet, a, b = wan_pair(capacity=2e6, one_way_delay=0.01, seed=63)
        sim = inet.sim
        res = {}
        # Find the WAN transmitters to sabotage.
        wan_link = inet.sites["left"].wan_link

        def saboteur():
            yield sim.timeout(2.0)
            wan_link.a_to_b.retune(loss=0.95)
            wan_link.b_to_a.retune(loss=0.95)
            yield sim.timeout(3.0)
            wan_link.a_to_b.retune(loss=0.0)
            wan_link.b_to_a.retune(loss=0.0)

        async def server():
            listener = listen(b, 5000)
            sock = await listener.accept()
            got = 0
            while got < 4_000_000:
                data = await sock.recv(65536)
                if not data:
                    break
                got += len(data)
            res["got"] = got

        async def client():
            sock = await connect(a, (b.ip, 5000))
            await sock.send_all(b"z" * 4_000_000)
            res["retx"] = sock.tcp.retransmits

        sim.process(server())
        sim.process(client())
        sim.process(saboteur())
        sim.run(until=600)
        assert res["got"] == 4_000_000
        assert res["retx"] > 0


class TestPeerFailure:
    def test_receiver_abort_resets_sender(self):
        inet, a, b = two_public_hosts(seed=64)
        res = {}

        async def server():
            listener = listen(b, 5000)
            sock = await listener.accept()
            await sock.recv(1024)
            sock.abort()  # process crash

        async def client():
            sock = await connect(a, (b.ip, 5000))
            try:
                # Keep pushing until the reset surfaces.
                for _ in range(1000):
                    await sock.send_all(b"w" * 8192)
                    await inet.sim.timeout(0.01)
                res["outcome"] = "never-failed"
            except ConnectionReset:
                res["outcome"] = "reset"

        inet.sim.process(server())
        inet.sim.process(client())
        inet.sim.run(until=60)
        assert res["outcome"] == "reset"


class TestMiddleboxAmnesia:
    def test_firewall_conntrack_expiry_stalls_idle_connection(self):
        """An idle spliced connection dies when the firewall forgets it."""
        from repro.simnet.firewall import StatefulFirewall

        sc = GridScenario(seed=65)
        sc.add_site("A", "open")
        # Short conntrack timeout on site B.
        sc.add_site("B", "firewall")
        fw: StatefulFirewall = sc.sites["B"].firewall
        fw.conntrack_timeout = 30.0
        a = sc.sites["A"].add_node("a-node")
        b = sc.sites["B"].add_node("b-node")
        res = {}

        from repro.simnet.sockets import connect_simultaneous

        async def side_b():
            sock = await connect_simultaneous(b, (a.ip, 7000), 7001)
            res["first"] = await sock.recv_exactly(5)
            res["second"] = await sock.recv(5)  # expected never to arrive

        async def side_a():
            sock = await connect_simultaneous(a, (b.ip, 7001), 7000)
            await sock.send_all(b"early")
            # Idle far beyond the conntrack timeout; the entry expires.
            await sc.sim.timeout(120.0)
            await sock.send_all(b"later")
            await sc.sim.timeout(30.0)
            res["sender_retx"] = sock.tcp.retransmits
            sock.abort()

        sc.sim.process(side_b())
        sc.sim.process(side_a())
        sc.run(until=300)
        assert res["first"] == b"early"
        assert res.get("second") in (None, b"")  # never delivered
        assert res["sender_retx"] > 0  # the sender kept trying