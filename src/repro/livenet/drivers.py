"""Async driver stack: the same drivers over real sockets.

Wire-compatible with the simulated drivers — identical block framing,
striping layout (header on stream ``n % N``, deterministic round-robin
fragments), compression flag bytes and TLS record format — so the two
backends are two IO bindings of one protocol suite.
"""

from __future__ import annotations

import asyncio
import struct
import zlib
from typing import Iterable, Optional, Sequence

from .. import obs
from ..obs import TraceContext
from ..core.utilization.compression import FLAG_DEFLATE, FLAG_RAW
from ..core.utilization.parallel import DEFAULT_FRAGMENT
from ..security.certs import Certificate
from ..security.handshake import (
    ClientHandshake,
    HandshakeError,
    Identity,
    ServerHandshake,
)
from ..security.record import RecordError
from ..util.bytesbuf import take
from ..util.sizes import DEFAULT_BLOCK
from .transport import LiveSocket

__all__ = [
    "AsyncDriver",
    "AsyncTcpBlockDriver",
    "AsyncParallelStreamsDriver",
    "AsyncCompressionDriver",
    "AsyncTlsDriver",
    "AsyncBlockChannel",
]


class AsyncDriver:
    """Block-oriented async driver interface."""

    async def send_block(self, block: bytes) -> None:
        raise NotImplementedError

    async def recv_block(self) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class AsyncTcpBlockDriver(AsyncDriver):
    """Length-prefixed blocks over one live socket (``link``, like its
    simulated twin)."""

    name = "tcp_block"

    def __init__(self, link: LiveSocket, host=None):
        self.link = link
        self.host = host

    async def send_block(self, block: bytes) -> None:
        await self.link.send_all(struct.pack("!I", len(block)) + block)
        reg = obs.metrics()
        reg.counter(
            "driver.bytes_total", driver=self.name, direction="tx", backend="live"
        ).inc(len(block))
        reg.histogram(
            "driver.block_bytes", driver=self.name, direction="tx", backend="live"
        ).observe(len(block))

    async def recv_block(self) -> bytes:
        header = await self.link.recv_exactly(4)
        length = struct.unpack("!I", header)[0]
        block = await self.link.recv_exactly(length)
        reg = obs.metrics()
        reg.counter(
            "driver.bytes_total", driver=self.name, direction="rx", backend="live"
        ).inc(len(block))
        reg.histogram(
            "driver.block_bytes", driver=self.name, direction="rx", backend="live"
        ).observe(len(block))
        return block

    def close(self) -> None:
        self.link.close()


class AsyncParallelStreamsDriver(AsyncDriver):
    """Striping over N live sockets (same layout as the sim driver).

    Sender-side concurrency comes from per-stream writer tasks behind
    queues, receiver-side from eager reader tasks — mirroring the
    simulated implementation.
    """

    name = "parallel"

    def __init__(
        self,
        links: Sequence[LiveSocket],
        host=None,
        fragment: int = DEFAULT_FRAGMENT,
    ):
        if not links:
            raise ValueError("parallel driver needs at least one socket")
        self.links = list(links)
        self.host = host
        self.fragment = fragment
        self._send_seq = 0
        self._recv_seq = 0
        self._queues = [asyncio.Queue(maxsize=8) for _ in self.links]
        self._writers = [
            asyncio.ensure_future(self._writer(q, s))
            for q, s in zip(self._queues, self.links)
        ]
        obs.metrics().gauge(
            "driver.streams", driver=self.name, backend="live"
        ).set(len(self.links))

    @property
    def nstreams(self) -> int:
        return len(self.links)

    async def _writer(self, queue: asyncio.Queue, sock: LiveSocket) -> None:
        while True:
            item = await queue.get()
            if item is None:
                sock.close()
                return
            await sock.send_all(item)

    async def send_block(self, block: bytes) -> None:
        n = self.nstreams
        start = self._send_seq % n
        self._send_seq += 1
        await self._queues[start].put(struct.pack("!I", len(block)))
        for i, offset in enumerate(range(0, len(block), self.fragment)):
            await self._queues[(start + i) % n].put(
                block[offset : offset + self.fragment]
            )
        reg = obs.metrics()
        reg.counter(
            "driver.bytes_total", driver=self.name, direction="tx", backend="live"
        ).inc(len(block))
        reg.histogram(
            "driver.block_bytes", driver=self.name, direction="tx", backend="live"
        ).observe(len(block))

    async def recv_block(self) -> bytes:
        n = self.nstreams
        start = self._recv_seq % n
        self._recv_seq += 1
        header = await self.links[start].recv_exactly(4)
        length = struct.unpack("!I", header)[0]
        parts = []
        remaining = length
        i = 0
        while remaining > 0:
            take = min(self.fragment, remaining)
            parts.append(await self.links[(start + i) % n].recv_exactly(take))
            remaining -= take
            i += 1
        block = b"".join(parts)
        reg = obs.metrics()
        reg.counter(
            "driver.bytes_total", driver=self.name, direction="rx", backend="live"
        ).inc(len(block))
        reg.histogram(
            "driver.block_bytes", driver=self.name, direction="rx", backend="live"
        ).observe(len(block))
        return block

    def close(self) -> None:
        for queue in self._queues:
            queue.put_nowait(None)


class AsyncCompressionDriver(AsyncDriver):
    """Per-block zlib filter (same flag bytes as the sim driver)."""

    name = "compress"

    def __init__(self, child: AsyncDriver, host=None, level: int = 1):
        self.child = child
        self.host = host
        self.level = level
        self.bytes_in = 0
        self.bytes_out = 0

    @property
    def ratio(self) -> float:
        if self.bytes_out == 0:
            return 1.0
        return self.bytes_in / self.bytes_out

    async def send_block(self, block: bytes) -> None:
        deflated = zlib.compress(block, self.level)
        if len(deflated) < len(block):
            payload = bytes([FLAG_DEFLATE]) + deflated
        else:
            payload = bytes([FLAG_RAW]) + block
        self.bytes_in += len(block)
        self.bytes_out += len(payload)
        reg = obs.metrics()
        reg.counter(
            "compress.bytes_total", driver=self.name, stage="in", backend="live"
        ).inc(len(block))
        reg.counter(
            "compress.bytes_total", driver=self.name, stage="out", backend="live"
        ).inc(len(payload))
        reg.gauge("compress.ratio", driver=self.name, backend="live").set(self.ratio)
        await self.child.send_block(payload)

    async def recv_block(self) -> bytes:
        payload = await self.child.recv_block()
        flag, body = payload[0], payload[1:]
        if flag == FLAG_DEFLATE:
            return zlib.decompress(body)
        return body

    def close(self) -> None:
        self.child.close()


class AsyncTlsDriver(AsyncDriver):
    """The sans-IO handshake + record layer over an async sub-driver."""

    name = "tls"

    def __init__(self, child: AsyncDriver, host=None):
        self.child = child
        self.host = host
        self.session = None
        #: why the session is dead, once a record has failed authentication
        self._failed: Optional[str] = None

    async def handshake_client(
        self,
        trust_anchors: Iterable[Certificate],
        identity: Optional[Identity] = None,
        expected_server: Optional[str] = None,
    ) -> None:
        hs = ClientHandshake(
            trust_anchors=trust_anchors,
            identity=identity,
            expected_server=expected_server,
        )
        await self.child.send_block(hs.hello())
        server_hello = await self.child.recv_block()
        try:
            finished, self.session = hs.finish(server_hello)
        except HandshakeError:
            # Fatal to the link, as a failed record is: the server is parked
            # in recv_block() for a ClientFinished that will never come.
            self.child.close()
            raise
        await self.child.send_block(finished)

    async def handshake_server(
        self,
        identity: Identity,
        trust_anchors: Optional[Iterable[Certificate]] = None,
        require_client_auth: bool = False,
    ) -> None:
        hs = ServerHandshake(
            identity=identity,
            trust_anchors=trust_anchors,
            require_client_auth=require_client_auth,
        )
        client_hello = await self.child.recv_block()
        try:
            await self.child.send_block(hs.respond(client_hello))
            self.session = hs.finish(await self.child.recv_block())
        except HandshakeError:
            self.child.close()
            raise

    @property
    def peer_subject(self) -> Optional[str]:
        return self.session.peer_subject if self.session else None

    def _require_session(self):
        if self._failed is not None:
            raise RuntimeError(self._failed)
        if self.session is None:
            raise RuntimeError("TLS handshake not completed")
        return self.session

    async def send_block(self, block: bytes) -> None:
        await self.child.send_block(self._require_session().seal(block))

    async def recv_block(self) -> bytes:
        session = self._require_session()
        record = await self.child.recv_block()
        try:
            return session.open(record)
        except RecordError as exc:
            # Fatal, as TLS's bad_record_mac is: the link goes down with
            # the session, so the peer's writes fail instead of filling
            # buffers nobody will ever read.
            self._failed = f"record authentication failed: {exc}"
            self.child.close()
            raise RuntimeError(self._failed) from exc

    def close(self) -> None:
        self.child.close()


class AsyncBlockChannel:
    """Buffered channel + framed messages over an async driver stack."""

    #: message frame header — must match the simulated BlockChannel's
    #: (flags u8, bit 0 = trace context follows; length u32)
    _MSG_HDR = struct.Struct("!BI")
    _F_CTX = 1

    def __init__(self, driver: AsyncDriver, block_size: int = DEFAULT_BLOCK):
        self.driver = driver
        self.block_size = block_size
        self._out = bytearray()
        self._in = bytearray()
        self._eof = False
        #: trace context carried by the most recently received message
        self.last_ctx = None

    async def write(self, data: bytes) -> None:
        self._out.extend(data)
        while len(self._out) >= self.block_size:
            block = bytes(self._out[: self.block_size])
            del self._out[: self.block_size]
            await self.driver.send_block(block)

    async def flush(self) -> None:
        if self._out:
            block = bytes(self._out)
            self._out.clear()
            await self.driver.send_block(block)

    async def read(self, maxbytes: int) -> bytes:
        buf = self._in
        while not buf and not self._eof:
            try:
                block = await self.driver.recv_block()
            except EOFError:
                self._eof = True
            else:
                if 0 < len(block) <= maxbytes:
                    return block  # wanted whole: it never enters the buffer
                buf += block
        return take(buf, maxbytes)

    async def read_exactly(self, n: int) -> bytes:
        parts = []
        remaining = n
        while remaining > 0:
            data = await self.read(remaining)
            if not data:
                raise EOFError(f"channel ended with {remaining}/{n} bytes missing")
            if len(data) == n:
                return data  # one block satisfied the read: nothing to join
            parts.append(data)
            remaining -= len(data)
        return b"".join(parts)

    async def send_message(self, payload: bytes, ctx=None) -> None:
        ctx = ctx or obs.current()
        flags = self._F_CTX if ctx is not None else 0
        await self.write(self._MSG_HDR.pack(flags, len(payload)))
        if ctx is not None:
            await self.write(ctx.encode())
        await self.write(payload)
        await self.flush()
        obs.event("channel.message", ctx=ctx, direction="tx", bytes=len(payload))

    async def recv_message(self) -> bytes:
        header = await self.read_exactly(self._MSG_HDR.size)
        flags, length = self._MSG_HDR.unpack(header)
        ctx = None
        if flags & self._F_CTX:
            blob = await self.read_exactly(TraceContext.WIRE_SIZE)
            try:
                ctx = TraceContext.decode(blob)
            except ValueError:
                ctx = None
        self.last_ctx = ctx
        payload = await self.read_exactly(length)
        obs.event("channel.message", ctx=ctx, direction="rx", bytes=len(payload))
        return payload

    def close(self) -> None:
        self.driver.close()
