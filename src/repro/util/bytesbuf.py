"""User-space buffers: the aggregation buffer (paper §4.1) and the
buffers a block is carried in through the layered stack.

Small sends are aggregated and flushed as one block, which is the
``TCP_Block`` strategy: "buffering in user space in combination with an
explicit flush allows disabling TCP_DELAY, and ensures a high bandwidth
... in combination with a minimal latency."

A block then crosses every layer of the stack it was written to without
being copied at each one.  On the way down a layer puts its header in
front of what it was handed and passes the payload on by reference, as a
*buffer list* (:func:`prepend`); only a stream whose class says so
(``gathers``) is handed a list, any other gets one joined ``bytes``
(:func:`for_stream`).  On the way up a payload stays a ``memoryview`` of
the buffer it arrived in (:class:`ByteQueue`) until the application takes
it as ``bytes``.  Both apply from :data:`BY_REF` bytes on: copying less
costs less than the list or the view does.  ``docs/PROTOCOLS.md`` has
where a routed block is copied.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

__all__ = ["AggregationBuffer", "ByteQueue", "BY_REF", "take", "size",
           "joined", "frozen", "prepend", "split", "for_stream"]

#: a payload this large is passed on by reference — down as an entry of a
#: buffer list behind the headers put in front of it, up as a view of the
#: buffer it arrived in — instead of being copied
BY_REF = 4096


def take(buf: bytearray, maxbytes: int) -> bytes:
    """Remove and return up to ``maxbytes`` from the front of ``buf`` with
    one copy: the whole buffer, or a slice of a view of it."""
    if len(buf) <= maxbytes:
        data = bytes(buf)
        buf.clear()
    else:
        with memoryview(buf) as view:
            data = bytes(view[:maxbytes])
        del buf[:maxbytes]
    return data


def size(data) -> int:
    """Bytes in ``data``: one buffer, or a list of them.  (A hot path
    spends no call on one buffer: ``len(data) if type(data) is not list
    else size(data)``.)"""
    return sum(map(len, data)) if type(data) is list else len(data)


def joined(data):
    """``data`` as one buffer: a buffer list joined into ``bytes``, one
    buffer as it is."""
    return b"".join(data) if type(data) is list else data


def frozen(data):
    """``data`` where a reference to it may be kept: ``bytes`` and views of
    ``bytes`` as they are, anything that could still change (a
    ``bytearray``, a view of one) copied into ``bytes``."""
    if type(data) is bytes or (
            type(data) is memoryview and type(data.obj) is bytes):
        return data
    return bytes(data)


def prepend(head: bytes, body):
    """``head`` followed by ``body`` (one buffer or a buffer list): a list
    that keeps ``body``'s buffers by reference when ``body`` is a list or
    at least :data:`BY_REF` long, one concatenated ``bytes`` otherwise.
    Headers gather in the list's first buffer, so however many layers put
    one in front, a block goes down as two buffers."""
    if type(body) is list:
        first = body[0]
        if len(first) < BY_REF:
            return [head + first, *body[1:]]
        return [head, *body]
    if len(body) < BY_REF:
        return head + body
    return [head, frozen(body)]


def split(data, n: int) -> tuple:
    """The first ``n`` bytes of ``data`` and the rest, neither copied: two
    views of one buffer, or two buffer lists (the buffer the cut falls in
    becomes a view on either side)."""
    if type(data) is not list:
        view = memoryview(data)
        return view[:n], view[n:]
    head = []
    for i, part in enumerate(data):
        if n < len(part):
            view = memoryview(part)
            head.append(view[:n])
            return head, [view[n:], *data[i + 1:]]
        head.append(part)
        n -= len(part)
        if not n:
            return head, data[i + 1:]
    return head, []


def for_stream(stream, parts: list):
    """What ``stream.send_all`` is handed for the buffer list ``parts``:
    the list as it is when the stream's *class* says it takes one
    (``gathers``), one joined ``bytes`` for any other stream — a proxy that
    forwards attributes with ``__getattr__`` included, which must see the
    bytes it forwards."""
    if getattr(type(stream), "gathers", False):
        return parts
    return b"".join(parts)


class ByteQueue(deque):
    """Received bytes not yet read, kept as the buffers they arrived in
    (a ``deque`` of them: true while anything is left to read).

    A buffer of at least :data:`BY_REF` bytes is kept by reference (copied
    only if it could still change) and read back whole, or as views of it,
    without a copy; smaller ones are gathered into one ``bytearray`` as
    they arrive, so a read of many small messages is one read, as it is
    from a single ``bytearray``.
    """

    __slots__ = ()

    def put(self, data) -> None:
        n = len(data)
        if n >= BY_REF:
            self.append(frozen(data))
        elif n:
            if self and type(self[-1]) is bytearray:
                self[-1] += data
            else:
                self.append(bytearray(data))

    def take(self, maxbytes: int):
        """Up to ``maxbytes`` from the front, out of the first buffer only:
        a large one whole or a view of its head, small ones copied out as
        ``bytes``.  The queue must not be empty."""
        first = self[0]
        if type(first) is bytearray:
            if len(first) <= maxbytes:
                self.popleft()
                return bytes(first)
            data = take(first, maxbytes)
        elif len(first) <= maxbytes:
            data = self.popleft()
        else:
            view = memoryview(first)
            data, self[0] = view[:maxbytes], view[maxbytes:]
        return data


class AggregationBuffer:
    """Aggregates writes; emits blocks on overflow or explicit flush.

    ``on_block`` is called with each completed block.  Overflow emission
    keeps blocks at most ``capacity`` bytes.
    """

    def __init__(self, capacity: int, on_block: Optional[Callable[[bytes], None]] = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.on_block = on_block
        self._buf = bytearray()
        self.blocks_emitted = 0
        self.bytes_in = 0

    def write(self, data: bytes) -> list[bytes]:
        """Append ``data``; returns any blocks emitted due to overflow."""
        self.bytes_in += len(data)
        emitted = []
        offset = 0
        while offset < len(data):
            room = self.capacity - len(self._buf)
            take = data[offset : offset + room]
            self._buf.extend(take)
            offset += len(take)
            if len(self._buf) >= self.capacity:
                emitted.append(self._emit())
        return emitted

    def flush(self) -> Optional[bytes]:
        """Emit the current partial block, if any."""
        if not self._buf:
            return None
        return self._emit()

    def _emit(self) -> bytes:
        block = bytes(self._buf)
        self._buf.clear()
        self.blocks_emitted += 1
        if self.on_block is not None:
            self.on_block(block)
        return block

    @property
    def pending(self) -> int:
        return len(self._buf)
