"""Stream helper for the live (asyncio) backend.

Frame IO is :mod:`repro.core.wire`'s ``send_frame`` / ``recv_frame`` on
both backends; what is left here is the one thing only asyncio streams
need.
"""

from __future__ import annotations

__all__ = ["ExactReads"]


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
