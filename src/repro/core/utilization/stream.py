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
from ...util.bytesbuf import ByteQueue, frozen
from ...util.sizes import DEFAULT_BLOCK
from .base import Driver

__all__ = ["BlockChannel", "DEFAULT_BLOCK"]

#: message frame header: flags (bit 0 = trace context follows) + length
_MSG_HDR = struct.Struct("!BI")
_F_CTX = 1


class BlockChannel:
    """Buffered byte/message channel over a block driver stack.

    Between the caller and the driver a byte is copied at most once each
    way.  Down, a block that lies inside one write is a view of the
    written bytes (a writable buffer is first copied once, since a layer
    below may keep the block after ``write`` returns: the session's
    replay buffer does).  Up, received blocks are queued as the driver
    hands them up and a read is one ``bytes``: a slice of one block, or
    one join of the blocks it spans.
    """

    def __init__(self, driver: Driver, block_size: int = DEFAULT_BLOCK):
        if block_size <= 0:
            raise ValueError("block size must be positive")
        self.driver = driver
        self.block_size = block_size
        self._out = bytearray()
        self._in = ByteQueue()
        self._eof = False
        self.bytes_written = 0
        self.bytes_read = 0
        #: trace context carried by the most recently received message
        self.last_ctx: Optional[TraceContext] = None

    # -- writing ------------------------------------------------------------
    async def write(self, data):
        """Buffer ``data``; full blocks are sent as they complete.  A block
        that lies wholly inside ``data`` is sent as a view of it: only
        what completes the buffered block and what is left over pass
        through the buffer.  One writer at a time: a write parked in
        ``send_block`` has not yet buffered its tail (a message is several
        writes, so concurrent writers never could share a channel)."""
        end = len(data)
        self.bytes_written += end
        out, size = self._out, self.block_size
        start = 0
        if out:
            start = size - len(out)
            if end < start:
                out += data
                return
            out += memoryview(data)[:start]
            block = bytes(out)
            out.clear()
            await self.driver.send_block(block)
        if end - start >= size:
            view = memoryview(frozen(data))
            while end - start >= size:
                await self.driver.send_block(view[start:start + size])
                start += size
        if start < end:
            out += memoryview(data)[start:] if start else data

    async def flush(self):
        """Send any buffered partial block (the explicit flush of §4.1)."""
        if self._out:
            block = bytes(self._out)
            self._out.clear()
            await self.driver.send_block(block)

    # -- reading --------------------------------------------------------------
    async def _fill(self) -> bool:
        """Queue the next non-empty block; False once the stream ended."""
        while not self._eof:
            try:
                block = await self.driver.recv_block()
            except EOFError:
                self._eof = True
            else:
                if block:
                    self._in.append(block)
                    return True
        return False

    async def _take(self, n: int):
        """Exactly ``n`` bytes: a slice of one received block when one
        holds them (``bytes`` or a view), else one join of the slices."""
        queue, parts, remaining = self._in, [], n
        while remaining > 0:
            if not queue and not await self._fill():
                raise EOFError(
                    f"channel ended with {remaining}/{n} bytes missing")
            data = queue.take(remaining)
            parts.append(data)
            remaining -= len(data)
        self.bytes_read += n
        return parts[0] if len(parts) == 1 else b"".join(parts)

    async def read(self, maxbytes: int):
        """Read up to ``maxbytes`` (what one received block holds);
        returns b"" at end of stream."""
        if not self._in and not await self._fill():
            return b""
        data = self._in.take(maxbytes)
        self.bytes_read += len(data)
        return data if type(data) is bytes else bytes(data)

    async def read_exactly(self, n: int):
        data = await self._take(n)
        return data if type(data) is bytes else bytes(data)

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
        flags, length = _MSG_HDR.unpack(await self._take(_MSG_HDR.size))
        ctx = None
        if flags & _F_CTX:
            blob = await self._take(TraceContext.WIRE_SIZE)
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
