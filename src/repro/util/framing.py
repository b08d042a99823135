"""Binary encoding helpers: length-prefixed fields, frames.

Used by the security handshake, the relay protocol, SOCKS-adjacent wire
formats and the IPL serialization layer.  Everything is explicit
big-endian, no pickling at the wire level.
"""

from __future__ import annotations

import struct

__all__ = ["FrameError", "ByteWriter", "ByteReader", "frame", "FRAME_HEADER"]

FRAME_HEADER = 4


class FrameError(Exception):
    """Malformed or truncated wire data."""


def frame(payload: bytes) -> bytes:
    """A u32-length-prefixed frame."""
    if len(payload) > 0xFFFFFFFF:
        raise FrameError("frame too large")
    return struct.pack("!I", len(payload)) + payload


class ByteWriter:
    """Composable binary writer."""

    def __init__(self):
        self._parts: list[bytes] = []

    def u8(self, value: int) -> "ByteWriter":
        self._parts.append(struct.pack("!B", value))
        return self

    def u16(self, value: int) -> "ByteWriter":
        self._parts.append(struct.pack("!H", value))
        return self

    def u32(self, value: int) -> "ByteWriter":
        self._parts.append(struct.pack("!I", value))
        return self

    def u64(self, value: int) -> "ByteWriter":
        self._parts.append(struct.pack("!Q", value))
        return self

    def f64(self, value: float) -> "ByteWriter":
        self._parts.append(struct.pack("!d", value))
        return self

    def raw(self, data: bytes) -> "ByteWriter":
        self._parts.append(bytes(data))
        return self

    def lp_bytes(self, data: bytes) -> "ByteWriter":
        """Length-prefixed (u32) byte string."""
        self.u32(len(data))
        self._parts.append(bytes(data))
        return self

    def lp_str(self, text: str) -> "ByteWriter":
        return self.lp_bytes(text.encode("utf-8"))

    def mpint(self, value: int) -> "ByteWriter":
        """Length-prefixed big integer (for DH/Schnorr values)."""
        if value < 0:
            raise FrameError("mpint must be non-negative")
        data = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        return self.lp_bytes(data)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    """Composable binary reader with strict bounds checking."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise FrameError(
                f"truncated data: wanted {n} bytes at {self._pos}, "
                f"have {len(self._data)}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack("!H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("!I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("!Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("!d", self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def lp_bytes(self) -> bytes:
        return self._take(self.u32())

    def lp_str(self) -> str:
        try:
            return self.lp_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"invalid utf-8 before {self._pos}: {exc}") from None

    def mpint(self) -> int:
        data = self.lp_bytes()
        return int.from_bytes(data, "big")

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self.remaining:
            raise FrameError(f"{self.remaining} trailing bytes")
