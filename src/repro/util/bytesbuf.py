"""User-space aggregation buffer (paper §4.1).

Small sends are aggregated and flushed as one block, which is the
``TCP_Block`` strategy: "buffering in user space in combination with an
explicit flush allows disabling TCP_DELAY, and ensures a high bandwidth
... in combination with a minimal latency."
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["AggregationBuffer", "take"]


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
