"""Length-prefixed frame IO over any Link/stream, for both backends.

The two functions are generator-based coroutines (``types.coroutine``): a
simulator process runs them with ``yield from``, an asyncio task with
``await``, and ``stream`` is whatever has ``send_all`` / ``recv_exactly``
on that backend (a ``Link`` or ``SimSocket``; a ``LiveSocket``, mux
channel or session link).
"""

from __future__ import annotations

from types import coroutine
from typing import Generator

from ..util.framing import frame

__all__ = ["send_frame", "recv_frame", "WireError", "MAX_FRAME"]

MAX_FRAME = 1 << 22  # 4 MiB: largest block any driver stack produces


class WireError(Exception):
    """Malformed frame on a stream."""


@coroutine
def send_frame(stream, body: bytes) -> Generator:
    """Write one u32-length-prefixed frame."""
    yield from stream.send_all(frame(body))


@coroutine
def recv_frame(stream, max_frame: int = MAX_FRAME) -> Generator:
    """Read one u32-length-prefixed frame.

    The length is checked before anything is read or allocated for the
    body, so four hostile bytes cannot request a 4 GiB read.
    """
    header = yield from stream.recv_exactly(4)
    length = int.from_bytes(header, "big")
    if length > max_frame:
        raise WireError(f"oversized frame: {length} > {max_frame}")
    return (yield from stream.recv_exactly(length))
