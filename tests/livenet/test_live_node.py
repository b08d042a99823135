"""LiveNode establishment: one port, purpose-tagged links, the shared factory.

Every direct link into a live node enters through its one advertised port
and names its purpose first (``service``, ``data:<nonce>``); the node's
dispatcher routes it by the same rule as a relay-routed link.  A data
link is negotiated by the shared broker: client/server meets its
negotiation at the dispatcher's ``await_data`` — no listener is opened per
link — and the link goes through the relay when ``methods`` asks for
``routed`` or when client/server fails.
"""

import asyncio
import contextlib
import dataclasses
import socket

import pytest

from repro import obs
from repro.chaos.invariants import obs_consistency_violations
from repro.core.dispatch import data_tag
from repro.core.factory import BrokeredConnectionFactory
from repro.core.wire import recv_frame, send_frame
from repro.ipl.runtime import REQ_PORT_CONNECT
from repro.livenet import live_connect, transport
from repro.livenet.relay import LiveRelayServer
from repro.livenet.runtime import LiveNode
from repro.util.framing import ByteWriter

pytestmark = pytest.mark.livenet


@contextlib.asynccontextmanager
async def pair():
    """A relay and two started LiveNodes registered with it."""
    relay = await LiveRelayServer().start()
    alice = LiveNode("alice", relay.addr, "127.0.0.1")
    bob = LiveNode("bob", relay.addr, "127.0.0.1")
    try:
        await alice.start()
        await bob.start()
        yield relay, alice, bob
    finally:
        alice.stop()
        bob.stop()
        relay.stop()


@contextlib.asynccontextmanager
async def responder_with(*names):
    """A relay, a started LiveNode ``bob`` and started initiators ``names``."""
    relay = await LiveRelayServer().start()
    bob = LiveNode("bob", relay.addr, "127.0.0.1")
    initiators = [LiveNode(name, relay.addr, "127.0.0.1") for name in names]
    try:
        for node in (bob, *initiators):
            await node.start()
        yield bob, initiators
    finally:
        for node in (bob, *initiators):
            node.stop()
        relay.stop()


async def _dropped(sock) -> bool:
    """True once the peer has closed ``sock`` (EOF or reset)."""
    try:
        return await asyncio.wait_for(sock.recv(1), timeout=5.0) == b""
    except ConnectionError:
        return True


def _tasks(prefix: str) -> list:
    return [
        t.get_name() for t in asyncio.all_tasks()
        if not t.done() and t.get_name().startswith(prefix)
    ]


async def _transfer(alice, bob, methods=None, retrying=False) -> bytes:
    """One message alice -> bob over a factory-made channel."""
    initiator = BrokeredConnectionFactory(alice)
    responder = BrokeredConnectionFactory(bob)

    async def serve():
        if retrying:
            channel = await responder.accept_retrying()
        else:
            _peer, service = await bob.accept_service_link()
            channel = await responder.accept(service)
            service.close()
        data = await channel.read_exactly(5)
        channel.close()
        return data

    server = asyncio.ensure_future(serve())
    if retrying:
        channel = await initiator.connect_retrying(
            "bob", bob.info, methods=methods)
    else:
        service = await alice.open_service_link("bob", bob.info)
        channel = await initiator.connect(service, bob.info, methods=methods)
        service.close()
    await channel.write(b"hello")
    await channel.flush()
    channel.close()
    return await asyncio.wait_for(server, timeout=10.0)


class TestFactoryOnLiveNode:
    def test_connect_retrying_delivers_a_message(self, live_run):
        async def main():
            async with pair() as (_relay, alice, bob):
                return await _transfer(alice, bob, retrying=True)

        assert live_run(main()) == b"hello"

    def test_data_link_opens_no_listener(self, live_run, monkeypatch):
        calls = []
        listen = transport.live_listen

        async def counting_listen(*args, **kwargs):
            calls.append(args)
            return await listen(*args, **kwargs)

        async def main():
            async with pair() as (_relay, alice, bob):
                import repro.livenet.runtime as runtime

                monkeypatch.setattr(runtime, "live_listen", counting_listen)
                return await _transfer(alice, bob)

        assert live_run(main()) == b"hello"
        assert calls == []

    def test_routed_methods_cross_the_relay(self, live_run):
        async def main():
            async with pair() as (relay, alice, bob):
                before = relay.forwarded_messages
                await _transfer(alice, bob)
                direct = relay.forwarded_messages - before
                before = relay.forwarded_messages
                await _transfer(alice, bob, methods=["routed"])
                routed = relay.forwarded_messages - before
                return direct, routed

        direct, routed = live_run(main())
        assert direct == 0
        assert routed > 0


def _refusing_port() -> int:
    """A loopback port nothing listens on: a connect to it is refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestFallback:
    """The live broker walks Figure 4 as the simulator's does."""

    @staticmethod
    def _negotiate(live_run, methods=None, refuse=False):
        """One message alice -> bob, with alice's view of bob's port
        refusing when ``refuse``; returns ``(message, recorder, registry)``."""
        registry, recorder = obs.MetricsRegistry(), obs.TraceRecorder()
        previous = obs.set_registry(registry), obs.set_tracer(recorder)

        async def main():
            async with pair() as (_relay, alice, bob):
                info = bob.info
                if refuse:
                    info = dataclasses.replace(info, open_ports=(_refusing_port(),))

                async def serve():
                    _peer, service = await bob.accept_service_link()
                    channel = await BrokeredConnectionFactory(bob).accept(service)
                    data = await channel.read_exactly(5)
                    channel.close()
                    return data

                server = asyncio.ensure_future(serve())
                service = await alice.open_service_link("bob", info)
                channel = await BrokeredConnectionFactory(alice).connect(
                    service, info, methods=methods)
                await channel.write(b"hello")
                await channel.flush()
                channel.close()
                return await asyncio.wait_for(server, timeout=10.0)

        try:
            return live_run(main()), recorder, registry
        finally:
            obs.set_registry(previous[0])
            obs.set_tracer(previous[1])

    def test_refused_port_falls_back_to_routed(self, live_run):
        got, recorder, registry = self._negotiate(live_run, refuse=True)
        assert got == b"hello"
        fallbacks = recorder.events("establish.fallback")
        assert [e["attrs"]["method"] for e in fallbacks] == ["client_server"]
        outcomes = sorted(
            (s["attrs"]["role"], s["attrs"]["method"], s["attrs"]["outcome"])
            for s in recorder.spans("establish.attempt")
        )
        assert outcomes == [
            ("initiator", "client_server", "failed"),
            ("initiator", "routed", "ok"),
            ("responder", "client_server", "failed"),
            ("responder", "routed", "ok"),
        ]
        assert obs_consistency_violations(registry, recorder) == []

    def test_a_method_the_node_does_not_carry_out_is_refused(self, live_run):
        got, recorder, _registry = self._negotiate(
            live_run, methods=["socks_proxy", "routed"])
        assert got == b"hello"
        fallbacks = recorder.events("establish.fallback")
        assert [(e["attrs"]["method"], e["attrs"]["reason"])
                for e in fallbacks] == [(
            "socks_proxy",
            "nak: BrokerError: socks_proxy is not carried out on this node",
        )]


#: a port-connect request sent where the purpose tag belongs
_BARE_REQUEST = ByteWriter().u8(REQ_PORT_CONNECT).lp_str("in").lp_str("eve").getvalue()


class TestPurposeTag:
    @pytest.mark.parametrize(
        "tag", [None, b"nonsense", pytest.param(_BARE_REQUEST, id="bare-request")]
    )
    def test_untagged_link_is_closed_within_the_deadline(self, live_run, tag):
        async def main():
            async with pair() as (_relay, _alice, bob):
                bob.tag_deadline = 0.3
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                sock = await live_connect(bob.listener.addr)
                if tag is not None:
                    await send_frame(sock, tag)
                dropped = await _dropped(sock)
                elapsed = loop.time() - t0
                sock.close()
                await asyncio.sleep(0.05)
                return dropped, elapsed, _tasks("livenode-bob-tag")

        dropped, elapsed, left = live_run(main())
        assert dropped
        assert elapsed < 2.0
        assert left == []


class TestDataNonce:
    def test_same_prefix_initiators_each_get_their_own_link(self, live_run):
        """``worker-1`` and ``worker-2`` share their first six bytes: a
        nonce built from a prefix of the name would be the same for both."""

        async def main():
            async with responder_with("worker-1", "worker-2") as (bob, workers):
                async def serve():
                    _peer, service = await bob.accept_service_link()
                    channel = await BrokeredConnectionFactory(bob).accept(service)
                    said = await recv_frame(service)
                    got = await channel.read_exactly(len(said))
                    service.close()
                    channel.close()
                    return said, got

                async def send(worker):
                    service = await worker.open_service_link("bob", bob.info)
                    channel = await BrokeredConnectionFactory(worker).connect(
                        service, bob.info)
                    name = worker.node_id.encode()
                    await channel.write(name)
                    await channel.flush()
                    await send_frame(service, name)
                    channel.close()

                servers = [asyncio.ensure_future(serve()) for _ in workers]
                await asyncio.gather(*(send(w) for w in workers))
                return await asyncio.wait_for(asyncio.gather(*servers), 10.0)

        pairs = live_run(main())
        assert sorted(said for said, _ in pairs) == [b"worker-1", b"worker-2"]
        assert all(said == got for said, got in pairs)


class TestEarlyData:
    """Data links that no negotiation claims are held boundedly."""

    @staticmethod
    async def _unclaimed(bob, count: int, first: int = 0) -> list:
        socks = []
        for nonce in range(first, first + count):
            sock = await live_connect(bob.listener.addr)
            await send_frame(sock, data_tag(nonce))
            socks.append(sock)
        await asyncio.sleep(0.1)  # let bob's listener route them
        return socks

    def test_links_over_the_cap_are_closed_oldest_first(self, live_run):
        async def main():
            async with responder_with() as (bob, _):
                bob.dispatcher.early_max = 4
                socks = await self._unclaimed(bob, 6)
                dropped = [await _dropped(s) for s in socks[:2]]
                held = len(bob.dispatcher._early_data)
                bob.stop()
                after_stop = [await _dropped(s) for s in socks[2:]]
                for s in socks:
                    s.close()
                return dropped, held, after_stop

        dropped, held, after_stop = live_run(main())
        assert dropped == [True, True]
        assert held == 4
        assert after_stop == [True] * 4

    def test_links_past_their_age_are_closed(self, live_run):
        async def main():
            async with responder_with() as (bob, _):
                bob.dispatcher.early_ttl = 0.2
                (old,) = await self._unclaimed(bob, 1)
                await asyncio.sleep(0.3)
                (new,) = await self._unclaimed(bob, 1, first=1)
                dropped = await _dropped(old)
                held = list(bob.dispatcher._early_data)
                old.close()
                new.close()
                return dropped, held

        dropped, held = live_run(main())
        assert dropped
        assert held == [data_tag(1)]
