"""The one frame-IO helper on asyncio, and its size cap at every consumer.

Before there was one helper, the live mux, runtime and registry each read
``recv_exactly(int.from_bytes(header))`` with no bound: four bytes from a
peer requested a 4 GiB read.  A ``0xFFFFFFFF`` header must now cost the
sender its connection — a typed error, no allocation, no hang.  (The mux
consumer's twin of these tests runs on both bindings:
``tests/mux/test_endpoint.py::TestViolations*``.)
"""

import asyncio

import pytest

from repro.core.wire import WireError, recv_frame, send_frame
from repro.livenet import live_connect, live_listen
from repro.livenet.registry import LiveRegistryServer

from .conftest import registry_client, socket_pairs
from .test_live_runtime import grid

pytestmark = pytest.mark.livenet

HOSTILE = b"\xff\xff\xff\xff"


async def _dropped(sock) -> bool:
    """True once the peer has closed ``sock`` (EOF or reset)."""
    try:
        return await asyncio.wait_for(sock.recv(1), timeout=5.0) == b""
    except ConnectionError:
        return True


class TestReadFrame:
    def test_round_trip_and_cap(self, live_run):
        async def main():
            async with socket_pairs() as ((client,), (server,)):
                await send_frame(client, b"hello")
                await send_frame(client, b"")
                assert await recv_frame(server) == b"hello"
                assert await recv_frame(server) == b""
                await send_frame(client, b"x" * 100)
                with pytest.raises(WireError, match="oversized"):
                    await recv_frame(server, max_frame=99)

        live_run(main())

    def test_hostile_length_is_refused_before_any_read(self, live_run):
        async def main():
            async with socket_pairs() as ((client,), (server,)):
                await client.send_all(HOSTILE)
                with pytest.raises(WireError):
                    await asyncio.wait_for(recv_frame(server), timeout=5.0)

        live_run(main())


class TestConsumersDropHostilePeers:
    def test_registry_server_drops_the_connection(self, live_run):
        async def main():
            server = await LiveRegistryServer().start()
            try:
                sock = await live_connect(server.addr)
                await sock.send_all(HOSTILE)
                dropped = await _dropped(sock)
                sock.close()
                # and it is still serving everyone else
                client = await registry_client(server.addr).connect()
                names = await client.list_nodes()
                client.close()
                return dropped, names
            finally:
                server.close()

        assert live_run(main()) == (True, [])

    def test_registry_client_gets_the_typed_error(self, live_run):
        async def main():
            listener = await live_listen()

            async def rogue_registry():
                sock = await listener.accept()
                await recv_frame(sock)
                await sock.send_all(HOSTILE)
                return sock

            rogue = asyncio.ensure_future(rogue_registry())
            client = await registry_client(listener.addr).connect()
            try:
                with pytest.raises(WireError):
                    await asyncio.wait_for(client.list_nodes(), timeout=5.0)
            finally:
                client.close()
                (await rogue).close()
                listener.close()

        live_run(main())

    def test_runtime_service_port_drops_the_connection(self, live_run):
        async def main():
            async with grid("alice", "bob") as (_reg, _rel, alice, bob):
                sock = await live_connect(
                    (bob.listener.addr[0], bob.listener.port))
                await sock.send_all(HOSTILE)
                dropped = await _dropped(sock)
                sock.close()
                # the node still answers a well-formed connect afterwards
                await bob.create_receive_port("in")
                await alice.create_send_port("out").connect("in")
                return dropped

        assert live_run(main()) is True
