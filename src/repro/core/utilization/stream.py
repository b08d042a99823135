"""Application-facing channel over a driver stack (paper §4.1).

"Data is aggregated in buffers.  A buffer is sent off due to overflow or
due to an explicit flush by the user."  :class:`BlockChannel` implements
exactly that — buffered writes, explicit flush — plus a framed message API
on top (used by the IPL's Write/Read messages).
"""

from __future__ import annotations

import struct
from typing import Optional

from ... import obs
from ...obs import TraceContext
from ...util.bytesbuf import take
from ...util.sizes import DEFAULT_BLOCK
from .base import Driver

__all__ = ["BlockChannel", "DEFAULT_BLOCK"]

#: message frame header: flags (bit 0 = trace context follows) + length
_MSG_HDR = struct.Struct("!BI")
_F_CTX = 1


class BlockChannel:
    """Buffered byte/message channel over a block driver stack."""

    def __init__(self, driver: Driver, block_size: int = DEFAULT_BLOCK):
        if block_size <= 0:
            raise ValueError("block size must be positive")
        self.driver = driver
        self.block_size = block_size
        self._out = bytearray()
        self._in = bytearray()
        self._eof = False
        self.bytes_written = 0
        self.bytes_read = 0
        #: trace context carried by the most recently received message
        self.last_ctx: Optional[TraceContext] = None

    # -- writing ------------------------------------------------------------
    async def write(self, data: bytes):
        """Buffer ``data``; full blocks are sent as they complete.  A block
        that lies wholly inside ``data`` is sent as one slice of it: only
        what completes the buffered block and what is left over pass
        through the buffer.  One writer at a time: a write parked in
        ``send_block`` has not yet buffered its tail (a message is several
        writes, so concurrent writers never could share a channel)."""
        self.bytes_written += len(data)
        out, size = self._out, self.block_size
        start, end = 0, len(data)
        if out:
            start = min(size - len(out), end)
            out += data[:start]
            if len(out) < size:
                return
            block = bytes(out)
            out.clear()
            await self.driver.send_block(block)
        while end - start >= size:
            await self.driver.send_block(bytes(data[start:start + size]))
            start += size
        if start < end:
            out += data[start:]

    async def flush(self):
        """Send any buffered partial block (the explicit flush of §4.1)."""
        if self._out:
            block = bytes(self._out)
            self._out.clear()
            await self.driver.send_block(block)

    # -- reading --------------------------------------------------------------
    async def read(self, maxbytes: int):
        """Read up to ``maxbytes``; returns b"" at end of stream."""
        buf = self._in
        while not buf and not self._eof:
            try:
                block = await self.driver.recv_block()
            except EOFError:
                self._eof = True
            else:
                if 0 < len(block) <= maxbytes:
                    self.bytes_read += len(block)
                    return block  # wanted whole: it never enters the buffer
                buf += block
        data = take(buf, maxbytes)
        self.bytes_read += len(data)
        return data

    async def read_exactly(self, n: int):
        parts = []
        remaining = n
        while remaining > 0:
            data = await self.read(remaining)
            if not data:
                raise EOFError(f"channel ended with {remaining}/{n} bytes missing")
            if len(data) == n:
                return data  # one read satisfied the request: nothing to join
            parts.append(data)
            remaining -= len(data)
        return b"".join(parts)

    # -- message framing ------------------------------------------------------
    async def send_message(
        self, payload: bytes, ctx: Optional[TraceContext] = None
    ):
        """One framed message: flags + length prefix (+ trace context) +
        payload + flush.  ``ctx`` rides the header so the receiving node's
        records join the sender's trace."""
        ctx = ctx or obs.current()
        flags = _F_CTX if ctx is not None else 0
        await self.write(_MSG_HDR.pack(flags, len(payload)))
        if ctx is not None:
            await self.write(ctx.encode())
        await self.write(payload)
        await self.flush()
        obs.event("channel.message", ctx=ctx, direction="tx", bytes=len(payload))

    async def recv_message(self):
        header = await self.read_exactly(_MSG_HDR.size)
        flags, length = _MSG_HDR.unpack(header)
        ctx = None
        if flags & _F_CTX:
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

    def abort(self) -> None:
        self.driver.abort()
