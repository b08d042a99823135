"""GridNode's direct API and the Link abstraction's contract."""

import pytest

from repro.core import CLIENT_SERVER, SPLICING
from repro.core.factory import BrokeredConnectionFactory
from repro.core.links import Link, TcpLink
from repro.core.scenarios import GridScenario
from repro.core.utilization.spec import StackSpec
from repro.simnet import connect, listen
from repro.simnet.testing import drive, two_public_hosts


class TestLinkContract:
    def _tcp_link_pair(self):
        inet, a, b = two_public_hosts(seed=5)
        out = {}

        def srv():
            listener = listen(b, 5000)
            sock = yield from listener.accept()
            out["b"] = TcpLink(sock, CLIENT_SERVER)

        def cli():
            sock = yield from connect(a, (b.ip, 5000))
            out["a"] = TcpLink(sock, CLIENT_SERVER)

        inet.sim.process(srv())
        inet.sim.process(cli())
        inet.sim.run(until=inet.sim.now + 10)
        return inet, out["a"], out["b"]

    def test_metadata(self):
        _inet, la, _lb = self._tcp_link_pair()
        assert la.method == CLIENT_SERVER
        assert la.native_tcp is True
        assert la.relayed is False
        assert la.sim is not None
        assert la.laddr[0] != la.raddr[0]

    def test_recv_exactly_raises_on_early_eof(self):
        inet, la, lb = self._tcp_link_pair()
        out = {}

        def sender():
            yield from la.send_all(b"abc")
            la.close()

        def receiver():
            try:
                yield from lb.recv_exactly(10)
            except EOFError as exc:
                out["error"] = str(exc)

        inet.sim.process(sender())
        inet.sim.process(receiver())
        inet.sim.run(until=inet.sim.now + 10)
        assert "7/10 bytes missing" in out["error"]

    def test_base_class_is_abstract(self):
        link = Link()
        with pytest.raises(NotImplementedError):
            link.close()
        with pytest.raises(NotImplementedError):
            link.sim


class TestGridNodeApi:
    def _pair(self):
        sc = GridScenario(seed=85)
        sc.add_site("A", "firewall")
        sc.add_site("B", "firewall")
        return sc, sc.add_node("A", "a"), sc.add_node("B", "b")

    def test_service_link_carries_peer_identity(self):
        sc, a, b = self._pair()
        out = {}

        def initiator():
            yield from a.start()
            while not b.relay_client.connected:
                yield sc.sim.timeout(0.05)
            link = yield from a.open_service_link("b")
            yield from link.send_all(b"hi")

        def responder():
            yield from b.start()
            peer, link = yield from b.accept_service_link()
            out["peer"] = peer
            out["data"] = yield from link.recv_exactly(2)

        sc.sim.process(initiator())
        sc.sim.process(responder())
        sc.run(until=60)
        assert out == {"peer": "a", "data": b"hi"}

    def test_data_links_record_method_and_verify(self):
        sc, a, b = self._pair()
        out = {}

        def initiator():
            yield from a.start()
            while not b.relay_client.connected:
                yield sc.sim.timeout(0.05)
            service = yield from a.open_service_link("b")
            link = yield from a.broker.initiate(service, b.info)
            out["method"] = link.method
            link.close()

        def responder():
            yield from b.start()
            _peer, service = yield from b.accept_service_link()
            link = yield from b.broker.respond(service)
            out["responder_method"] = link.method

        sc.sim.process(initiator())
        sc.sim.process(responder())
        sc.run(until=120)
        assert out["method"] == SPLICING
        assert out["responder_method"] == SPLICING

    def test_stop_disconnects_relay(self):
        sc, a, b = self._pair()

        def proc():
            yield from a.start()
            assert a.relay_client.connected
            a.stop()

        drive(sc.sim, proc())
        sc.run(until=sc.sim.now + 10)
        assert not a.relay_client.connected

    def test_node_id_property(self):
        sc, a, _b = self._pair()
        assert a.node_id == "a"


class TestSessionIds:
    def test_same_prefix_initiators_each_resume_their_own_session(self):
        """``worker-1`` and ``worker-2`` share their first six bytes; each
        holds a session to ``bob``, each has its data link killed, and each
        resumes its own session there."""
        spec = StackSpec.parse("tcp_block|session")
        sc = GridScenario(seed=5)
        for site in ("B", "W1", "W2"):
            sc.add_site(site, "open")
        bob = sc.add_node("B", "bob")
        workers = [sc.add_node("W1", "worker-1"), sc.add_node("W2", "worker-2")]
        got, sessions = {}, []

        def work(node):
            yield from node.start()
            yield from bob.relay_client.wait_connected(timeout=60)
            service = yield from node.open_service_link("bob")
            channel = yield from BrokeredConnectionFactory(node).connect(
                service, bob.info, spec=spec)
            session = channel.driver.link
            sessions.append(session)
            name = node.node_id.encode()
            yield from channel.send_message(name + b" before")
            yield sc.sim.timeout(5.0)  # both sessions are up before either breaks
            session.raw.abort()
            yield from channel.send_message(name + b" after")

        def serve():
            yield from bob.start()
            factory = BrokeredConnectionFactory(bob)
            for _ in workers:
                _peer, service = yield from bob.accept_service_link()
                channel = yield from factory.accept(service)
                sc.sim.process(drain(channel))

        def drain(channel):
            first = yield from channel.recv_message()
            got[first] = yield from channel.recv_message()

        sc.sim.process(serve())
        for node in workers:
            sc.sim.process(work(node))
        sc.run(until=120)
        assert got == {
            b"worker-1 before": b"worker-1 after",
            b"worker-2 before": b"worker-2 after",
        }
        assert [s.reconnects for s in sessions] == [1, 1]
        assert len({s.sid for s in sessions}) == 2
