"""Shared low-level utilities: framing, buffers, encoding."""

from .framing import ByteReader, ByteWriter, FrameError

__all__ = ["ByteReader", "ByteWriter", "FrameError"]
