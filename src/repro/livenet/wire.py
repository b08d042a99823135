"""Stream helpers shared by everything on the live (asyncio) backend.

The asyncio sibling of :mod:`repro.core.wire`: the same u32 length
prefix, the same size cap and the same :class:`WireError`, for anything
with ``send_all`` / ``recv_exactly`` coroutines (a ``LiveSocket``, a mux
channel, a session link).
"""

from __future__ import annotations

from ..core.wire import MAX_FRAME, WireError
from ..util.framing import frame

__all__ = ["write_frame", "read_frame", "ExactReads", "WireError", "MAX_FRAME"]


async def write_frame(sock, body: bytes) -> None:
    """Write one u32-length-prefixed frame."""
    await sock.send_all(frame(body))


async def read_frame(sock, max_frame: int = MAX_FRAME) -> bytes:
    """Read one u32-length-prefixed frame.

    The length is checked before anything is read or allocated for the
    body, so four hostile bytes cannot request a 4 GiB read.
    """
    header = await sock.recv_exactly(4)
    length = int.from_bytes(header, "big")
    if length > max_frame:
        raise WireError(f"oversized frame: {length} > {max_frame}")
    return await sock.recv_exactly(length)


class ExactReads:
    """Mixin: ``recv_exactly`` for a stream that has ``async recv(maxbytes)``
    returning ``b""`` at end of stream."""

    async def recv_exactly(self, n: int) -> bytes:
        parts, remaining = [], n
        while remaining > 0:
            data = await self.recv(remaining)
            if not data:
                raise EOFError(
                    f"{type(self).__name__} ended with {remaining}/{n} missing")
            if len(data) == n:
                return data  # one chunk satisfied the read: nothing to join
            parts.append(data)
            remaining -= len(data)
        return b"".join(parts)
