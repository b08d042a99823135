"""Length-prefixed frame IO over any Link/stream, for both backends.

The two functions are ``async def`` coroutines, which a simulator process
and an asyncio task both drive, and ``stream`` is whatever has ``send_all`` / ``recv_exactly``
on that backend (a ``Link`` or ``SimSocket``; a ``LiveSocket``, mux
channel or session link).

A large body goes down by reference, behind its length prefix, to a
stream whose class takes buffer lists, and comes up as whatever the
stream's ``recv_exactly`` returns: ``bytes``, or a view of the buffer a
large body arrived in (:mod:`repro.util.bytesbuf`).
"""

from __future__ import annotations

import struct


from ..util.bytesbuf import for_stream, prepend, size

__all__ = ["send_frame", "recv_frame", "WireError", "MAX_FRAME"]

MAX_FRAME = 1 << 22  # 4 MiB: largest block any driver stack produces

_LENGTH = struct.Struct("!I")


class WireError(Exception):
    """Malformed frame on a stream."""


async def send_frame(stream, body):
    """Write one u32-length-prefixed frame; ``body`` is one buffer or a
    buffer list."""
    if type(body) is list:
        frame = for_stream(stream, prepend(_LENGTH.pack(size(body)), body))
    else:  # no call spent on a small frame's size
        frame = prepend(_LENGTH.pack(len(body)), body)
        if type(frame) is list:
            frame = for_stream(stream, frame)
    await stream.send_all(frame)


async def recv_frame(stream, max_frame: int = MAX_FRAME):
    """Read one u32-length-prefixed frame.

    The length is checked before anything is read or allocated for the
    body, so four hostile bytes cannot request a 4 GiB read.
    """
    header = await stream.recv_exactly(4)
    length = int.from_bytes(header, "big")
    if length > max_frame:
        raise WireError(f"oversized frame: {length} > {max_frame}")
    return await stream.recv_exactly(length)
