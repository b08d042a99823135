"""zlib compression filtering driver (paper §4.3).

"In our measurements with the zlib compression library only the first
level of compression turned out to be useful: higher levels consumed much
more CPU time ... for only a limited gain."

Each block is compressed independently (dictionary reset per block) —
required for composability with striping and for receiver-side random
restart, and real compression is performed (actual zlib, actual ratios on
the actual payload).  CPU time is charged to the host's
:class:`~repro.simnet.cpu.CpuModel` at its configured ``compress`` /
``decompress`` rates, which is what produces the paper's crossover:
compression helps below ~6 MB/s of link capacity and hurts above it.

Wire format: ``u8 flag || payload`` where flag 1 means deflated (a block
that zlib cannot shrink is sent raw, like most real framing protocols).
"""

from __future__ import annotations

import zlib


from ... import obs
from ...simnet.cpu import charge
from ..wire import MAX_FRAME
from .base import DriverError, FilterDriver

__all__ = ["CompressionDriver", "inflate_block"]

FLAG_RAW = 0
FLAG_DEFLATE = 1


def inflate_block(payload: bytes) -> bytes:
    """Decode one ``u8 flag || payload`` block from the wire.

    Inflation stops at ``MAX_FRAME`` bytes of output, so the peer cannot
    make this end allocate more than any driver stack ever sends in one
    block; every malformed input is a :class:`DriverError`.
    """
    if not payload:
        raise DriverError("empty compressed block")
    flag = payload[0]
    if flag == FLAG_RAW:
        return payload[1:]
    if flag != FLAG_DEFLATE:
        raise DriverError(f"bad compression flag {flag}")
    inflater = zlib.decompressobj()
    try:
        block = inflater.decompress(memoryview(payload)[1:], MAX_FRAME + 1)
    except zlib.error as exc:
        raise DriverError(f"corrupt deflate stream: {exc}") from exc
    if len(block) > MAX_FRAME or inflater.unconsumed_tail:
        raise DriverError(f"block inflates past {MAX_FRAME} bytes")
    if not inflater.eof:
        raise DriverError("truncated deflate stream")
    if inflater.unused_data:
        raise DriverError(
            f"{len(inflater.unused_data)} bytes after the deflate stream"
        )
    return block


class CompressionDriver(FilterDriver):
    """Per-block zlib filter; composable above any sub-driver."""

    name = "compress"

    def __init__(self, child, host=None, level: int = 1):
        super().__init__(child)
        if not 1 <= level <= 9:
            raise DriverError(f"zlib level out of range: {level}")
        self.host = host
        self.level = level
        self.bytes_in = 0
        self.bytes_out = 0
        reg = obs.metrics()
        self._bytes_in = reg.counter(
            "compress.bytes_total", driver=self.name, stage="in"
        )
        self._bytes_out = reg.counter(
            "compress.bytes_total", driver=self.name, stage="out"
        )
        self._ratio = reg.gauge("compress.ratio", driver=self.name)

    @property
    def ratio(self) -> float:
        """Achieved compression ratio so far (input/output)."""
        if self.bytes_out == 0:
            return 1.0
        return self.bytes_in / self.bytes_out

    async def send_block(self, block: bytes):
        if self.host is not None:
            await charge(self.host, "compress", len(block))
        deflated = zlib.compress(block, self.level)
        if len(deflated) < len(block):
            payload = bytes([FLAG_DEFLATE]) + deflated
        else:
            payload = bytes([FLAG_RAW]) + block
        self.bytes_in += len(block)
        self.bytes_out += len(payload)
        self._bytes_in.inc(len(block))
        self._bytes_out.inc(len(payload))
        self._ratio.set(self.ratio)
        await self.child.send_block(payload)

    async def recv_block(self):
        block = inflate_block(await self.child.recv_block())
        if self.host is not None:
            await charge(self.host, "decompress", len(block))
        return block
