"""Live backend integration tests on loopback TCP."""

import asyncio

import pytest

from repro.core.utilization import (
    BlockChannel,
    CompressionDriver,
    TcpBlockDriver,
    TlsDriver,
)
from repro.livenet import (
    AsyncParallelStreamsDriver,
    LiveRelayClient,
    LiveRelayServer,
    live_connect,
    live_listen,
)
from repro.core.relay import RelayError
from repro.security import CertificateAuthority, HandshakeError, Identity

from .conftest import socket_pairs

pytestmark = pytest.mark.livenet


async def _closed_with_no_task_left(before, *socks):
    """``close()`` + ``wait_closed()`` on every socket inside 2 s; returns
    the tasks that outlived it (``before`` = ``all_tasks()`` at the start)."""

    async def close_all():
        for sock in socks:
            sock.close()
        for sock in socks:
            await sock.wait_closed()

    await asyncio.wait_for(close_all(), timeout=2.0)
    await asyncio.sleep(0)
    return asyncio.all_tasks() - before - {asyncio.current_task()}


class TestTransport:
    def test_connect_send_recv(self, live_run):
        async def main():
            async with socket_pairs() as ((c,), (s,)):
                await c.send_all(b"hello-live")
                return await s.recv_exactly(10)

        assert live_run(main()) == b"hello-live"

    def test_eof(self, live_run):
        async def main():
            async with socket_pairs() as ((c,), (s,)):
                c.close()
                return await s.recv(10)

        assert live_run(main()) == b""


class TestAsyncDrivers:
    def test_tcp_block_round_trip(self, live_run):
        async def main():
            async with socket_pairs() as ((c,), (s,)):
                tx, rx = TcpBlockDriver(c), TcpBlockDriver(s)
                await tx.send_block(b"block-data" * 100)
                return await rx.recv_block()

        assert live_run(main()) == b"block-data" * 100

    @pytest.mark.parametrize("nstreams", [1, 2, 4])
    def test_parallel_striping(self, live_run, nstreams):
        async def main():
            async with socket_pairs(nstreams) as (cs, ss):
                tx = AsyncParallelStreamsDriver(cs, fragment=512)
                rx = AsyncParallelStreamsDriver(ss, fragment=512)
                blocks = [bytes([i]) * (700 * i + 1) for i in range(5)]
                out = []

                async def sender():
                    for block in blocks:
                        await tx.send_block(block)

                async def receiver():
                    for _ in blocks:
                        out.append(await rx.recv_block())

                await asyncio.gather(sender(), receiver())
                return out == blocks

        assert live_run(main())

    def test_compression_round_trip(self, live_run):
        async def main():
            async with socket_pairs() as ((c,), (s,)):
                tx = CompressionDriver(TcpBlockDriver(c))
                rx = CompressionDriver(TcpBlockDriver(s))
                block = b"compressible " * 2000
                await tx.send_block(block)
                got = await rx.recv_block()
                return got == block and tx.bytes_out < tx.bytes_in

        assert live_run(main())

    def test_tls_over_live_sockets(self, live_run):
        ca = CertificateAuthority("live-root")
        key, cert = ca.issue_identity("live-server")
        identity = Identity(key, [cert])

        async def main():
            async with socket_pairs() as ((c,), (s,)):
                tx = TlsDriver(TcpBlockDriver(c))
                rx = TlsDriver(TcpBlockDriver(s))
                await asyncio.gather(
                    tx.handshake_client([ca.certificate]),
                    rx.handshake_server(identity),
                )
                await tx.send_block(b"secret over real tcp")
                got = await rx.recv_block()
                return got, tx.peer_subject

        got, subject = live_run(main())
        assert got == b"secret over real tcp"
        assert subject == "live-server"

    def test_record_authentication_failure_is_fatal_to_the_link(self, live_run):
        """One ciphertext byte flipped in flight while the sender streams
        without waiting.  The receiver raises the typed error *and takes
        the link down*: left open and unread, the socket would let the
        sender fill both kernel buffers and then block in ``drain()`` —
        and in ``wait_closed()`` — for good."""
        ca = CertificateAuthority("live-root")
        key, cert = ca.issue_identity("live-server")
        identity = Identity(key, [cert])
        block = bytes(range(256)) * 256  # 64 KiB
        stream_blocks = 256  # 16 MiB, far more than loopback buffers hold

        class FlipOnce:
            """Flips one ciphertext byte of the ``countdown``-th ``send_all``."""

            def __init__(self, inner):
                self.inner = inner
                self.countdown = 0

            async def send_all(self, data: bytes) -> None:
                self.countdown -= 1
                if self.countdown == 0:
                    middle = 4 + (len(data) - 4 - 16) // 2  # past the length prefix
                    data = data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1:]
                await self.inner.send_all(data)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        async def main():
            before = asyncio.all_tasks()
            listener = await live_listen()
            c, s = await asyncio.gather(
                live_connect(listener.addr), listener.accept()
            )
            listener.close()
            flip = FlipOnce(c)
            tx = TlsDriver(TcpBlockDriver(flip))
            rx = TlsDriver(TcpBlockDriver(s))
            await asyncio.gather(
                tx.handshake_client([ca.certificate]),
                rx.handshake_server(identity),
            )
            flip.countdown = 2  # the second record

            async def stream():
                for _ in range(stream_blocks):
                    await tx.send_block(block)

            sender = asyncio.ensure_future(stream())
            try:
                assert await rx.recv_block() == block
                with pytest.raises(RuntimeError, match="record authentication failed"):
                    await rx.recv_block()
                # the sender finds out from the transport instead of blocking
                # (a timeout here is a TimeoutError, not a ConnectionError)
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(sender, timeout=5.0)
                # the session is dead in both directions, not just this record
                with pytest.raises(RuntimeError, match="record authentication failed"):
                    await rx.recv_block()
                with pytest.raises(RuntimeError, match="record authentication failed"):
                    await rx.send_block(b"sealed under a dead session")
            finally:
                sender.cancel()

            return await _closed_with_no_task_left(before, c, s)

        assert live_run(main()) == set()

    def test_handshake_failure_is_fatal_to_the_link(self, live_run):
        """A client that rejects the server's chain raises the typed error
        *and takes the link down*: left open, the socket would keep the
        server parked in ``recv_block()`` for a ClientFinished that never
        comes — there is no handshake timeout to save it."""
        key, cert = CertificateAuthority("rogue-root").issue_identity("live-server")
        identity = Identity(key, [cert])
        trusted = CertificateAuthority("live-root").certificate

        async def main():
            before = asyncio.all_tasks()
            listener = await live_listen()
            c, s = await asyncio.gather(
                live_connect(listener.addr), listener.accept()
            )
            listener.close()
            tx = TlsDriver(TcpBlockDriver(c))
            rx = TlsDriver(TcpBlockDriver(s))
            server = asyncio.ensure_future(rx.handshake_server(identity))
            try:
                with pytest.raises(HandshakeError, match="certificate rejected"):
                    await tx.handshake_client([trusted])
                # the server finds out from the transport instead of waiting
                # (a timeout here is a TimeoutError, neither of these)
                with pytest.raises((EOFError, ConnectionError)):
                    await asyncio.wait_for(server, timeout=2.0)
            finally:
                server.cancel()
            assert tx.session is None and rx.session is None

            return await _closed_with_no_task_left(before, c, s)

        assert live_run(main()) == set()

    def test_full_stack_channel(self, live_run):
        async def main():
            async with socket_pairs(2) as (cs, ss):
                tx = BlockChannel(
                    CompressionDriver(AsyncParallelStreamsDriver(cs))
                )
                rx = BlockChannel(
                    CompressionDriver(AsyncParallelStreamsDriver(ss))
                )
                payload = bytes(range(256)) * 1000

                async def sender():
                    await tx.send_message(payload)

                async def receiver():
                    return await rx.recv_message()

                _, got = await asyncio.gather(sender(), receiver())
                return got == payload

        assert live_run(main())


class TestLiveRelay:
    def test_routed_link_over_live_relay(self, live_run):
        async def main():
            relay = await LiveRelayServer().start()
            a = b = None
            try:
                a = await LiveRelayClient("node-a", relay.addr).connect()
                b = await LiveRelayClient("node-b", relay.addr).connect()
                link_a = await a.open_link("node-b", payload=b"service")

                async def side_a():
                    await link_a.send_all(b"through-the-relay")
                    return await link_a.recv_exactly(2)

                async def side_b():
                    link = await b.accept_link()
                    data = await link.recv_exactly(17)
                    await link.send_all(b"ok")
                    return data, link.open_payload

                reply, (data, tag) = await asyncio.gather(side_a(), side_b())
                return reply, data, tag
            finally:
                for client in (a, b):
                    if client is not None:
                        client.close()
                relay.close()

        reply, data, tag = live_run(main())
        assert reply == b"ok"
        assert data == b"through-the-relay"
        assert tag == b"service"

    def test_unknown_peer_gets_relay_error(self, live_run):
        """The relay's T_ERROR surfaces on recv with its reason, typed as
        both a RelayError and a dead transport — never as a silent EOF."""

        async def main():
            relay = await LiveRelayServer().start()
            a = None
            try:
                a = await LiveRelayClient("solo", relay.addr).connect()
                link = await a.open_link("nobody")
                with pytest.raises(RelayError, match="unknown destination") as err:
                    await link.recv(10)  # the outer deadline bounds this wait
                return err.value, a.connected
            finally:
                if a is not None:
                    a.close()
                relay.close()

        error, still_connected = live_run(main())
        assert isinstance(error, ConnectionError)
        assert still_connected
