"""``LiveSocket`` semantics on real loopback connections.

Every live layer reads and writes through :class:`LiveSocket`, so its
contract is pinned here on its own: reads up to ``n`` and exactly ``n``,
EOF after buffered bytes, half-close, resets as typed errors, back-pressure
in both directions, cancellation and teardown.  One case pins where the
contract is the transport's own rather than ``asyncio.StreamReader``'s:
bytes that arrived before a reset are read before its error is raised
(``test_buffered_bytes_are_read_before_a_reset_is_raised``).
"""

import asyncio
import gc
import socket
import struct
from asyncio.selector_events import _SelectorSocketTransport

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.livenet import transport

from .conftest import eventually, socket_pairs

pytestmark = pytest.mark.livenet

#: the most one socket read hands the protocol
SOCKET_READ = _SelectorSocketTransport.max_size


def _reset(sock) -> None:
    """Drop the connection with an RST rather than a FIN."""
    raw = sock._transport.get_extra_info("socket")
    raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.abort()


def test_eof_after_buffered_bytes(live_run):
    async def main():
        async with socket_pairs() as ((client,), (server,)):
            await client.send_all(b"abcdef")
            client.close()
            assert await server.recv_exactly(2) == b"ab"
            got = b""
            while chunk := await server.recv(100):
                got += chunk
            assert got == b"cdef"
            assert await server.recv(100) == b""  # EOF stays EOF
            with pytest.raises(EOFError, match="5/5 bytes missing"):
                await server.recv_exactly(5)

    live_run(main())


def test_recv_exactly_names_the_missing_count(live_run):
    async def main():
        async with socket_pairs() as ((client,), (server,)):
            await client.send_all(b"xyz")
            client.write_eof()
            with pytest.raises(EOFError, match="2/5 bytes missing"):
                await server.recv_exactly(5)

    live_run(main())


def test_half_close_keeps_the_other_direction(live_run):
    async def main():
        async with socket_pairs() as ((client,), (server,)):
            await client.send_all(b"request")
            client.write_eof()
            assert await server.recv_exactly(7) == b"request"
            assert await server.recv(10) == b""
            await server.send_all(b"reply after your EOF")
            server.close()
            assert await client.recv_exactly(20) == b"reply after your EOF"
            assert await client.recv(10) == b""

    live_run(main())


def test_a_reset_in_the_middle_of_recv_exactly_is_a_typed_error(live_run):
    async def main():
        async with socket_pairs() as ((client,), (server,)):
            reader = asyncio.ensure_future(server.recv_exactly(100))
            await client.send_all(b"0123456789")
            await asyncio.sleep(0)
            _reset(client)
            with pytest.raises(ConnectionError):
                await reader

    live_run(main())


def test_buffered_bytes_are_read_before_a_reset_is_raised(live_run):
    """Contract change from ``StreamReader``, which raised the reset at
    once and dropped what it held."""

    async def main():
        async with socket_pairs() as ((client,), (server,)):
            await client.send_all(b"0123456789")
            await eventually(lambda: server.buffered == 10)
            _reset(client)
            await eventually(lambda: server._transport.is_closing())
            assert await server.recv(100) == b"0123456789"
            with pytest.raises(ConnectionResetError):
                await server.recv(100)
            with pytest.raises(ConnectionResetError):
                await server.recv_exactly(1)

    live_run(main())


def test_a_consumer_that_never_reads_holds_at_most_the_high_water_mark(live_run):
    total = 16 << 20
    payload = bytes(range(256)) * (total // 256)

    async def main():
        async with socket_pairs() as ((client,), (server,)):
            async def send():
                view = memoryview(payload)
                for start in range(0, total, 1 << 16):
                    await client.send_all(view[start:start + (1 << 16)])

            sender = asyncio.ensure_future(send())
            await eventually(lambda: not server._transport.is_reading(),
                             timeout=10)
            held = server.buffered
            assert transport.HIGH_WATER < held <= (
                transport.HIGH_WATER + SOCKET_READ)
            assert not sender.done(), "the sender never felt the back-pressure"
            got = bytearray()
            while len(got) < total:
                got += await server.recv(1 << 20)
                if server.buffered < transport.HIGH_WATER // 2:
                    assert server._transport.is_reading()
            await sender
            assert got == payload

    live_run(main())


def test_send_all_parks_while_writing_is_paused_then_raises_on_loss(live_run):
    block = b"w" * (1 << 20)

    async def main():
        async with socket_pairs() as ((client,), (server,)):
            sent = []

            async def send():
                while True:
                    await client.send_all(block)
                    sent.append(len(block))

            sender = asyncio.ensure_future(send())
            await eventually(
                lambda: not server._transport.is_reading()
                and client._transport.get_write_buffer_size() > (1 << 16),
                timeout=10)
            before = len(sent)
            for _ in range(5):
                await asyncio.sleep(0)
            assert not sender.done() and len(sent) == before, (
                "send_all returned while the transport was paused")
            _reset(server)
            with pytest.raises(OSError):
                await asyncio.wait_for(sender, timeout=5)

    live_run(main())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    chunks=st.lists(st.binary(min_size=1, max_size=3000), min_size=1,
                    max_size=12),
    reads=st.lists(st.tuples(st.booleans(), st.integers(1, 5000)),
                   min_size=1, max_size=20),
)
def test_any_chunking_and_read_sizes_give_back_the_bytes_sent(
        live_run, chunks, reads):
    sent = b"".join(chunks)

    async def main():
        async with socket_pairs() as ((client,), (server,)):
            async def send():
                for chunk in chunks:
                    await client.send_all(chunk)
                    await asyncio.sleep(0)  # let chunks land one by one
                client.write_eof()

            sender = asyncio.ensure_future(send())
            got = bytearray()
            turn = 0
            while len(got) < len(sent):
                exactly, size = reads[turn % len(reads)]
                turn += 1
                if exactly:
                    size = min(size, len(sent) - len(got))
                    data = await server.recv_exactly(size)
                    assert len(data) == size
                else:
                    data = await server.recv(size)
                    assert 0 < len(data) <= size
                got += data
            await sender
            assert bytes(got) == sent
            assert await server.recv(1) == b""

    live_run(main())


def test_a_recv_cancelled_while_parked_leaves_no_waiter(live_run):
    async def main():
        async with socket_pairs() as ((client,), (server,)):
            parked = asyncio.ensure_future(server.recv(10))
            await asyncio.sleep(0)
            parked.cancel()
            with pytest.raises(asyncio.CancelledError):
                await parked
            await client.send_all(b"after")
            # a waiter left behind would make this raise or starve
            assert await server.recv_exactly(5) == b"after"
            parked = asyncio.ensure_future(server.recv_exactly(4))
            await asyncio.sleep(0)
            parked.cancel()
            with pytest.raises(asyncio.CancelledError):
                await parked
            await client.send_all(b"more")
            assert await server.recv(10) == b"more"

    live_run(main())


def _pending_futures() -> set:
    return {id(obj) for obj in gc.get_objects()
            if isinstance(obj, asyncio.Future) and not obj.done()}


def test_no_task_or_future_outlives_close(live_run):
    async def main():
        before = _pending_futures()
        tasks = asyncio.all_tasks()
        listener = await transport.live_listen()
        client, server = await asyncio.gather(
            transport.live_connect(listener.addr), listener.accept())
        listener.close()
        reader = asyncio.ensure_future(server.recv(10))
        await client.send_all(b"x" * 100_000)
        assert await reader
        parked = asyncio.ensure_future(client.recv(10))
        await asyncio.sleep(0)
        for sock in (client, server):
            sock.close()
        assert await parked == b""
        await asyncio.gather(client.wait_closed(), server.wait_closed())
        await asyncio.sleep(0)
        assert asyncio.all_tasks() == tasks
        assert _pending_futures() <= before

    live_run(main())
