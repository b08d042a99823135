"""LiveIbis: the full runtime over real loopback sockets."""

import array
import asyncio
import contextlib

import pytest

from repro.core.utilization.spec import StackSpec
from repro.livenet.registry import LiveRegistryServer
from repro.livenet.relay import LiveRelayServer
from repro.livenet.runtime import LiveIbis

from .conftest import registry_client

pytestmark = pytest.mark.livenet


@contextlib.asynccontextmanager
async def grid(*names, **ibis_kwargs):
    """Registry + relay + one started LiveIbis per name, torn down on exit."""
    registry = await LiveRegistryServer().start()
    relay = await LiveRelayServer().start()
    nodes = []
    try:
        for name in names:
            node = LiveIbis(name, registry.addr, relay.addr, **ibis_kwargs)
            await node.start()
            nodes.append(node)
        yield (registry, relay, *nodes)
    finally:
        for node in nodes:
            with contextlib.suppress(Exception):
                await node.leave()
        registry.close()
        relay.close()


class TestLiveRegistry:
    def test_register_lookup_elect(self, live_run):
        async def main():
            from repro.core.addressing import EndpointInfo

            async with grid() as (registry, _relay):
                client = await registry_client(registry.addr).connect()
                try:
                    await client.register("n1", EndpointInfo("n1", "127.0.0.1"))
                    info = await client.lookup_node("n1")
                    winner = await client.elect("boss", "n1")
                    names = await client.list_nodes()
                finally:
                    client.close()
                return info.node_id, winner, names

        node_id, winner, names = live_run(main())
        assert node_id == "n1"
        assert winner == "n1"
        assert names == ["n1"]


    def test_close_ends_the_connections_it_serves(self, live_run):
        async def main():
            registry = await LiveRegistryServer().start()
            client = await registry_client(registry.addr).connect()
            try:
                await client.list_nodes()  # the connection is being served
                registry.close()
                await asyncio.sleep(0.1)
                return [
                    t.get_coro().__qualname__ for t in asyncio.all_tasks()
                    if not t.done()
                    and t.get_coro().__qualname__.startswith("LiveRegistryServer")
                ]
            finally:
                client.close()

        assert live_run(main()) == []


class TestLiveIbis:
    def test_typed_message_end_to_end(self, live_run):
        async def main():
            async with grid("alice", "bob") as (_reg, _rel, alice, bob):
                inbox = await bob.create_receive_port("bob-in")
                out = alice.create_send_port("alice-out")
                await out.connect("bob-in")
                message = out.new_message()
                message.write_string("live!").write_int(7)
                message.write_array(array.array("d", [2.5]))
                await message.finish()
                got = await inbox.receive()
                return (
                    got.origin,
                    got.read_string(),
                    got.read_int(),
                    list(got.read_array()),
                )

        assert live_run(main()) == ("alice", "live!", 7, [2.5])

    def test_compressed_parallel_stack(self, live_run):
        async def main():
            async with grid("alice", "bob") as (_reg, _rel, alice, bob):
                inbox = await bob.create_receive_port("bulk-in")
                out = alice.create_send_port("out")
                await out.connect(
                    "bulk-in", spec=StackSpec.parse("compress|parallel:3")
                )
                payload = b"live-grid-data " * 10_000
                message = out.new_message()
                message.write_bytes(payload)
                await message.finish()
                got = await inbox.receive()
                return got.read_bytes() == payload

        assert live_run(main())

    def test_rebalancing_parallel_stack(self, live_run):
        """``parallel:rebalance=1`` builds on live since the striping
        drivers are the simulator's own, on the asyncio runtime."""
        async def main():
            async with grid("alice", "bob") as (_reg, _rel, alice, bob):
                inbox = await bob.create_receive_port("bulk-in")
                out = alice.create_send_port("out")
                await out.connect(
                    "bulk-in", spec=StackSpec.parse("parallel:3:rebalance=1")
                )
                payloads = [bytes([i]) * 70_000 for i in range(4)]
                for payload in payloads:
                    message = out.new_message()
                    message.write_bytes(payload)
                    await message.finish()
                return [(await inbox.receive()).read_bytes() for _ in payloads] == payloads

        assert live_run(main())

    def test_fan_in_from_two_senders(self, live_run):
        async def main():
            async with grid("sink", "s1", "s2") as (_reg, _rel, sink, s1, s2):
                inbox = await sink.create_receive_port("gather")
                for sender, value in ((s1, 10), (s2, 20)):
                    port = sender.create_send_port("out")
                    await port.connect("gather")
                    message = port.new_message()
                    message.write_int(value)
                    await message.finish()
                got = {}
                for _ in range(2):
                    m = await inbox.receive()
                    got[m.origin] = m.read_int()
                return got

        assert live_run(main()) == {"s1": 10, "s2": 20}

    def test_connect_to_unknown_port_fails(self, live_run):
        async def main():
            async with grid("alice") as (_reg, _rel, alice):
                port = alice.create_send_port("out")
                try:
                    await port.connect("nonexistent")
                    return "connected"
                except Exception as exc:
                    return type(exc).__name__

        assert live_run(main()) == "RegistryError"

    def test_muxed_stack_end_to_end(self, live_run):
        async def main():
            async with grid("alice", "bob") as (_reg, _rel, alice, bob):
                inbox = await bob.create_receive_port("mux-in")
                out = alice.create_send_port("out")
                await out.connect("mux-in", spec=StackSpec.parse("tcp_block|mux"))
                payload = b"muxed-live-data " * 8_000
                message = out.new_message()
                message.write_bytes(payload)
                await message.finish()
                got = await inbox.receive()
                return got.read_bytes() == payload

        assert live_run(main())

    def test_muxed_parallel_channels_share_one_connection(self, live_run):
        async def main():
            async with grid("alice", "bob") as (_reg, _rel, alice, bob):
                inbox = await bob.create_receive_port("fat-in")
                out = alice.create_send_port("out")
                await out.connect(
                    "fat-in", spec=StackSpec.parse("parallel:4|mux:16384")
                )
                channel = out.channels["fat-in"]
                links = channel.driver.links
                endpoints = {link._ep for link in links}
                payload = b"wide " * 20_000
                message = out.new_message()
                message.write_bytes(payload)
                await message.finish()
                got = await inbox.receive()
                return len(links), len(endpoints), got.read_bytes() == payload

        n_links, n_endpoints, ok = live_run(main())
        assert n_links == 4
        assert n_endpoints == 1  # all four logical links share one socket
        assert ok

    def test_muxed_connects_to_same_peer_share_endpoint(self, live_run):
        # Second muxed connect reuses the peer's shared endpoint instead
        # of opening a second data connection — the live twin of the sim
        # factory's per-peer endpoint cache.
        async def main():
            async with grid("alice", "bob") as (_reg, _rel, alice, bob):
                in1 = await bob.create_receive_port("share-1")
                in2 = await bob.create_receive_port("share-2")
                out = alice.create_send_port("out")
                spec = StackSpec.parse("tcp_block|mux")
                await out.connect("share-1", spec=spec)
                await out.connect("share-2", spec=spec)
                eps = {
                    name: channel.driver.link._ep
                    for name, channel in out.channels.items()
                }
                message = out.new_message()
                message.write_int(7)
                await message.finish()  # fans out to both ports' channels
                got = [
                    (await in1.receive()).read_int(),
                    (await in2.receive()).read_int(),
                ]
                return (
                    eps["share-1"] is eps["share-2"],
                    len(alice._shared_mux),
                    len(bob._shared_mux_resp),
                    got,
                )

        same, n_ini, n_resp, got = live_run(main())
        assert same  # one endpoint carries both ports' channels
        assert n_ini == 1 and n_resp == 1
        assert got == [7, 7]

    def test_trace_context_crosses_data_request(self, live_run):
        from repro import obs
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
        previous = obs.set_tracer(recorder)

        async def main():
            async with grid("alice", "bob") as (_reg, _rel, alice, bob):
                await bob.create_receive_port("traced-in")
                out = alice.create_send_port("out")
                await out.connect("traced-in")

        try:
            live_run(main())
        finally:
            obs.set_tracer(previous)
        spans = [r for r in recorder.records if r["kind"] == "span"]
        (connect,) = [s for s in spans if s["name"] == "port.connect"]
        attempts = {
            s["attrs"]["role"]: s["trace_id"]
            for s in spans if s["name"] == "establish.attempt"
        }
        # Both ends of the data connection join the initiator's trace.
        assert attempts == {
            "initiator": connect["trace_id"], "responder": connect["trace_id"],
        }

    def test_election_between_live_nodes(self, live_run):
        async def main():
            async with grid("a", "b") as (_reg, _rel, a, b):
                first = await a.elect("leader")
                second = await b.elect("leader")
                return first, second

        first, second = live_run(main())
        assert first == second == "a"
