"""The IPL's port contract, collectives and service-link hygiene on LiveIbis.

``LiveIbis`` is the simulator's ``Ibis`` over a node on real sockets, so
what the ports promise there — metrics and events per message, one
message at a time, closed ports on leave, a dead channel recorded and not
fatal — holds here too; so do the collectives, the ``tls`` layer and the
tasks a node must not leave behind.
"""

import asyncio
import struct

import pytest

from repro import obs
from repro.core.dispatch import SERVICE_TAG
from repro.core.factory import TlsConfig
from repro.core.utilization.spec import StackSpec
from repro.core.wire import WireError, recv_frame, send_frame
from repro.ipl.collectives import CollectiveGroup
from repro.ipl.ports import PortClosed
from repro.ipl.runtime import REQ_PORT_CONNECT, RESP_ERR, IbisError
from repro.livenet import LiveRelayClient, live_connect
from repro.obs import TraceRecorder
from repro.obs.metrics import MetricsRegistry
from repro.security import CertificateAuthority, Identity
from repro.util.framing import ByteReader, ByteWriter

from .test_live_runtime import grid

pytestmark = pytest.mark.livenet

CA = CertificateAuthority("live-ipl-root")
_KEY, _CERT = CA.issue_identity("live-ipl-node")
TLS = TlsConfig([CA.certificate], Identity(_KEY, [_CERT]))


async def _send(port, value) -> None:
    message = port.new_message()
    message.write_int(value)
    await message.finish()


class TestPortContract:
    def test_messages_are_counted_and_traced_both_ways(self, live_run):
        registry, recorder = MetricsRegistry(), TraceRecorder()
        previous = obs.set_registry(registry), obs.set_tracer(recorder)

        async def main():
            async with grid("alice", "bob") as (_reg, _rel, alice, bob):
                inbox = await bob.create_receive_port("in")
                out = alice.create_send_port("out")
                await out.connect("in")
                for value in (1, 2):
                    await _send(out, value)
                return [(await inbox.receive()).read_int() for _ in range(2)]

        try:
            assert live_run(main()) == [1, 2]
        finally:
            obs.set_registry(previous[0])
            obs.set_tracer(previous[1])
        tx = registry.counter("ipl.messages_total", port="out", direction="tx")
        rx = registry.counter("ipl.messages_total", port="in", direction="rx")
        assert (tx.value, rx.value) == (2, 2)
        events = [r for r in recorder.events() if r["name"] == "ipl.message"]
        assert sorted(e["attrs"]["direction"] for e in events) == [
            "rx", "rx", "tx", "tx"]
        assert {e["node"] for e in events} == {"alice", "bob"}

    def test_one_message_at_a_time(self, live_run):
        async def main():
            async with grid("alice", "bob") as (_reg, _rel, alice, bob):
                inbox = await bob.create_receive_port("in")
                out = alice.create_send_port("out")
                await out.connect("in")
                first = out.new_message()
                with pytest.raises(PortClosed, match="not finished"):
                    out.new_message()
                first.write_int(5)
                await first.finish()
                await _send(out, 6)  # the port is free again
                return [(await inbox.receive()).read_int() for _ in range(2)]

        assert live_run(main()) == [5, 6]

    def test_a_cancelled_receive_does_not_swallow_the_next_message(self, live_run):
        async def main():
            async with grid("alice", "bob") as (_reg, _rel, alice, bob):
                inbox = await bob.create_receive_port("in")
                out = alice.create_send_port("out")
                await out.connect("in")
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(inbox.receive(), 0.01)
                await _send(out, 3)
                got = await asyncio.wait_for(inbox.receive(), 5.0)
                return got.read_int(), inbox.channel_errors

        assert live_run(main()) == (3, [])

    def test_duplicate_send_port_name_raises(self, live_run):
        async def main():
            async with grid("alice") as (_reg, _rel, alice):
                alice.create_send_port("out")
                with pytest.raises(IbisError, match="already exists"):
                    alice.create_send_port("out")

        live_run(main())

    def test_leave_closes_send_ports(self, live_run):
        async def main():
            async with grid("alice", "bob") as (_reg, _rel, alice, bob):
                await bob.create_receive_port("in")
                out = alice.create_send_port("out")
                await out.connect("in")
                await alice.leave()
                assert out.closed and not out.channels
                with pytest.raises(PortClosed):
                    out.new_message()

        live_run(main())

    def test_a_channel_dying_mid_message_is_recorded_not_fatal(self, live_run):
        async def main():
            async with grid("sink", "s1", "s2") as (_reg, _rel, sink, s1, s2):
                inbox = await sink.create_receive_port("in")
                bad, good = s1.create_send_port("out"), s2.create_send_port("out")
                await bad.connect("in")
                await good.connect("in")
                # A message header announcing 1000 bytes, then a frame
                # length no receiver accepts: the channel dies mid-message.
                channel = bad.channels["in"]
                await channel.driver.send_block(struct.pack("!BI", 0, 1000))
                await channel.driver.link.send_all(b"\xff\xff\xff\xff")
                await _send(good, 42)
                got = await inbox.receive()
                while not inbox.channel_errors:
                    await asyncio.sleep(0.001)
                return got.origin, got.read_int(), inbox.channel_errors, inbox.closed

        origin, value, errors, closed = live_run(main())
        assert (origin, value) == ("s2", 42)
        assert [(o, type(e)) for o, e in errors] == [("s1", WireError)]
        assert not closed


class TestLiveTls:
    @pytest.mark.parametrize(
        "spec",
        [StackSpec.tcp().with_tls(), StackSpec.tcp().with_mux().with_tls()],
        ids=["tls", "tls-over-mux"],
    )
    def test_port_connect_runs_the_handshake(self, live_run, spec):
        async def main():
            async with grid("alice", "bob", tls_config=TLS) as (_r, _l, alice, bob):
                inbox = await bob.create_receive_port("in")
                out = alice.create_send_port("out")
                await out.connect("in", spec)
                await _send(out, 7)
                tls = out.channels["in"].driver
                return (await inbox.receive()).read_int(), tls.peer_subject

        assert live_run(main()) == (7, "live-ipl-node")


def _kill_under_write(sock, after: int) -> None:
    """``sock`` is aborted under the write that takes it past ``after``
    bytes: the data socket dies mid-message."""
    send_all, sent = sock.send_all, 0

    async def killing_send_all(data):
        nonlocal sent
        sent += len(data)
        if sent > after:
            sock.send_all = send_all
            sock.abort()
        await send_all(data)

    sock.send_all = killing_send_all


class TestLiveSession:
    @pytest.mark.parametrize(
        "spec",
        [StackSpec.tcp().with_session(), StackSpec.tcp().with_session().with_mux()],
        ids=["session", "session-under-mux"],
    )
    def test_a_data_socket_killed_mid_message_resumes_exactly_once(
        self, live_run, spec
    ):
        """The data socket under a session port dies inside a 1 MiB
        message: the session redials over a ``sessres:<sid>`` service link
        and the node's data-request exchange, replays, and every message
        arrives once, in order; leaving stops every task."""
        payload = bytes(range(256)) * 4096
        registry, recorder = MetricsRegistry(), TraceRecorder()
        previous = obs.set_registry(registry), obs.set_tracer(recorder)

        async def main():
            before = asyncio.all_tasks()
            async with grid("alice", "bob") as (reg, relay, alice, bob):
                inbox = await bob.create_receive_port("in")
                out = alice.create_send_port("out")
                await out.connect("in", spec)
                (session,) = alice.node.sessions
                endpoint = alice.factory.shared_endpoint("bob")
                carrier = session.raw if endpoint is None else endpoint.link
                await _send(out, 1)
                _kill_under_write(carrier, after=256 << 10)
                message = out.new_message()
                message.write_bytes(payload)
                await message.finish()
                await _send(out, 2)
                got = [(await inbox.receive()).read_int()]
                got.append((await inbox.receive()).read_bytes() == payload)
                got.append((await inbox.receive()).read_int())
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(inbox.receive(), 0.2)
                resumed = session.reconnects, session.raw is not carrier
                for node in (alice, bob):
                    await node.leave()
                reg.close()
                relay.close()
            await asyncio.sleep(0.1)
            left = sorted(
                t.get_name() for t in asyncio.all_tasks() - before
                if t is not asyncio.current_task() and not t.done()
            )
            return got, resumed, left

        try:
            got, resumed, left = live_run(main())
        finally:
            obs.set_registry(previous[0])
            obs.set_tracer(previous[1])
        assert got == [1, True, 2]
        assert resumed == (1, True)
        assert left == []
        spans = recorder.spans("session.resume")
        assert [(s["node"], s["attrs"]["outcome"]) for s in spans] == [
            ("alice", "ok")]


def test_allreduce_and_barrier_across_three_live_nodes(live_run):
    members = ["a", "b", "c"]
    clusters = {"a": "c1", "b": "c1", "c": "c2"}

    async def member(ibis, value):
        group = CollectiveGroup(ibis, "g", members, clusters)
        await group.setup()
        total = await group.allreduce(value, lambda x, y: x + y)
        await group.barrier()
        return total

    async def main():
        async with grid(*members) as (_reg, _rel, *nodes):
            return await asyncio.gather(
                *(member(node, i + 1) for i, node in enumerate(nodes))
            )

    assert live_run(main()) == [6, 6, 6]


class TestServiceLinkHygiene:
    def test_a_routed_link_that_is_not_a_service_link_is_closed(self, live_run):
        async def main():
            async with grid("bob") as (_reg, relay, _bob):
                prober = LiveRelayClient("prober", relay.addr)
                await prober.connect()
                try:
                    link = await prober.open_link("bob", payload=b"data")
                    return await asyncio.wait_for(link.recv(1), 5.0)
                except EOFError:
                    return b""
                finally:
                    prober.close()

        assert live_run(main()) == b""

    @pytest.mark.parametrize("port", ["nonexistent", None], ids=["no-port", "bad-kind"])
    def test_a_rejected_request_closes_its_service_link(self, live_run, port):
        async def main():
            async with grid("bob") as (_reg, _rel, bob):
                service = await live_connect(
                    (bob.info.local_ip, bob.info.open_ports[0])
                )
                try:
                    await send_frame(service, SERVICE_TAG)
                    kind = REQ_PORT_CONNECT if port else 9
                    request = ByteWriter().u8(kind).lp_str(port or "").lp_str("eve")
                    await send_frame(service, request.getvalue())
                    reply = ByteReader(await recv_frame(service))
                    answer = reply.u8(), reply.lp_str()
                    with pytest.raises(EOFError):
                        await asyncio.wait_for(recv_frame(service), 5.0)
                    return answer
                finally:
                    service.close()

        status, reason = live_run(main())
        assert status == RESP_ERR
        assert reason == ("no port 'nonexistent'" if port else "bad request")

    def test_leave_leaves_no_task_running(self, live_run):
        async def main():
            before = asyncio.all_tasks()
            async with grid("alice", "bob") as (registry, relay, alice, bob):
                inbox = await bob.create_receive_port("in")
                muxed = await bob.create_receive_port("muxed")
                out = alice.create_send_port("out")
                await out.connect("in")
                await out.connect("muxed", StackSpec.tcp().with_mux())
                await _send(out, 1)
                await inbox.receive()
                await muxed.receive()
                # a routed service link too: the relay fallback is served
                link = await alice.node.relay_client.open_link("bob", payload=b"service")
                link.close()
                for node in (alice, bob):
                    await node.leave()
                registry.close()
                relay.close()
            await asyncio.sleep(0.1)
            return sorted(
                t.get_name() for t in asyncio.all_tasks() - before
                if t is not asyncio.current_task() and not t.done()
            )

        assert live_run(main()) == []
