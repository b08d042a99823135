"""Length-prefixed frame IO over any Link/stream (generator-based)."""

from __future__ import annotations

from typing import Generator

from ..util.framing import frame

__all__ = ["send_frame", "recv_frame", "WireError", "MAX_FRAME"]

MAX_FRAME = 1 << 22  # 4 MiB: largest block any driver stack produces


class WireError(Exception):
    """Malformed frame on a stream."""


def send_frame(stream, body: bytes) -> Generator:
    """Write one u32-length-prefixed frame."""
    yield from stream.send_all(frame(body))


def recv_frame(stream, max_frame: int = MAX_FRAME) -> Generator:
    """Read one u32-length-prefixed frame."""
    header = yield from stream.recv_exactly(4)
    length = int.from_bytes(header, "big")
    if length > max_frame:
        raise WireError(f"oversized frame: {length} > {max_frame}")
    body = yield from stream.recv_exactly(length)
    return body
