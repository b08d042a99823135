"""Where buffer lists and views stop.

A large payload goes down the stack as a buffer list and comes up as a
view of the buffer it arrived in (``repro.util.bytesbuf``).  Neither may
leave the stack's own classes:

* a stream that is not one of them — a proxy that forwards everything
  else with ``__getattr__``, as the benchmark's ``FlipLink`` does — is
  handed one ``bytes`` per frame, so what it does to the bytes reaches
  the peer (a flipped byte is a compare or record failure there);
* the application reads ``bytes`` from ``recv_block``, ``recv_message``
  and ``read_exactly``, over the routed mux stack on both backends.
"""

import asyncio

import pytest

from repro.core.utilization import (
    BlockChannel,
    DriverError,
    TcpBlockDriver,
    TlsDriver,
)
from repro.livenet.mux import AsyncMuxEndpoint
from repro.mux import MuxEndpoint
from repro.security import CertificateAuthority, Identity

from ..dual import LiveRelay, SimRelay
from ..livenet.conftest import socket_pairs

BLOCK = bytes(range(256)) * 256  # 64 KiB: a payload that goes by reference


class _Flipping:
    """Flips one byte of the ``nth`` write it forwards; forwards every
    other attribute to ``inner``."""

    def __init__(self, inner, nth: int):
        self.inner = inner
        self.countdown = nth
        self.types = []

    async def send_all(self, data) -> None:
        self.types.append(type(data))
        self.countdown -= 1
        if self.countdown == 0:
            middle = len(data) // 2
            data = data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1:]
        await self.inner.send_all(data)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.livenet
def test_a_forwarding_proxy_gets_one_bytes_per_frame_and_its_flip_arrives():
    async def main():
        async with socket_pairs() as ((client,), (server,)):
            proxy = _Flipping(client, nth=2)
            tx, rx = TcpBlockDriver(proxy), TcpBlockDriver(server)
            for _ in range(3):
                await tx.send_block(BLOCK)
            got = [await rx.recv_block() for _ in range(3)]
            return proxy.types, got

    types, got = asyncio.run(main())
    assert types == [bytes] * 3  # one joined frame per send_all
    assert got[0] == got[2] == BLOCK and got[1] != BLOCK
    assert sum(a != b for a, b in zip(got[1], BLOCK)) == 1


@pytest.mark.livenet
def test_a_byte_a_forwarding_proxy_flips_under_tls_fails_the_record():
    ca = CertificateAuthority("boundary-root")
    key, cert = ca.issue_identity("boundary-server")

    async def main():
        async with socket_pairs() as ((client,), (server,)):
            proxy = _Flipping(client, nth=0)
            tx = TlsDriver(TcpBlockDriver(proxy))
            rx = TlsDriver(TcpBlockDriver(server))
            await asyncio.gather(tx.handshake_client([ca.certificate]),
                                 rx.handshake_server(Identity(key, [cert])))
            proxy.countdown, proxy.types = 2, []  # the second record
            for _ in range(2):
                await tx.send_block(BLOCK)
            first = await rx.recv_block()
            with pytest.raises(DriverError, match="record authentication"):
                await rx.recv_block()
            return proxy.types, first

    types, first = asyncio.run(main())
    assert types == [bytes] * 2 and first == BLOCK


class BoundaryCases:
    harness = SimRelay
    endpoint = MuxEndpoint

    def test_the_application_reads_bytes_never_a_view(self):
        message = bytes(range(251)) * 1000  # three blocks and a tail

        async def script(h, ca, cb):
            a, b = await h.gather(h.open(ca, "node1"), h.accept(cb))
            ea, eb = await h.gather(
                self.endpoint.establish(a, self.endpoint.INITIATOR, node="a"),
                self.endpoint.establish(b, self.endpoint.RESPONDER, node="b"))
            (xa, xb), (ya, yb) = [
                await h.gather(ea.open_channel(), eb.accept_channel())
                for _ in range(2)]
            tx, rx = TcpBlockDriver(xa), TcpBlockDriver(xb)
            out, into = BlockChannel(TcpBlockDriver(ya)), BlockChannel(
                TcpBlockDriver(yb))

            async def send():
                await tx.send_block(BLOCK)
                await out.send_message(message)
                await out.write(message)
                await out.flush()

            async def receive():
                return [await rx.recv_block(), await into.recv_message(),
                        await into.read_exactly(len(message))]

            _, got = await h.gather(send(), receive())
            ea.close()
            eb.close()
            return got

        got = self.harness().run(script)
        assert got == [BLOCK, message, message]
        assert [type(data) for data in got] == [bytes] * 3


class TestBoundarySim(BoundaryCases):
    pass


@pytest.mark.livenet
class TestBoundaryLive(BoundaryCases):
    harness = LiveRelay
    endpoint = AsyncMuxEndpoint
