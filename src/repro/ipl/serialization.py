"""Typed message serialization (paper §5, Figure 5 "Serialization &
Communication").

The IPL carries *typed* messages: primitive values, strings, byte arrays,
numeric arrays and plain structured values, each tag-prefixed so a reader
that drifts out of sync fails loudly instead of silently misinterpreting
bytes.

Numeric arrays use :mod:`array` machine encoding — the buffer-oriented
fast path (like Ibis' array serialization, or mpi4py's buffer protocol) —
rather than per-element boxing.

Structured values (:meth:`MessageWriter.write_object`) are None, bool,
int, float, str, bytes, and lists, tuples and dicts of them, each
tag-prefixed in turn.  Nothing a peer sends is ever unpickled: the reader
builds only those types, bounds nesting at :data:`MAX_DEPTH` and every
length by the bytes left, and answers anything else with
:class:`SerializationError`.
"""

from __future__ import annotations

import array
import struct
import sys

__all__ = ["MessageWriter", "MessageReader", "SerializationError"]

T_BOOL = 1
T_INT = 2
T_LONG = 3
T_DOUBLE = 4
T_STRING = 5
T_BYTES = 6
T_ARRAY = 7
T_OBJECT = 8

_TYPE_NAMES = {
    T_BOOL: "bool",
    T_INT: "int32",
    T_LONG: "int64",
    T_DOUBLE: "float64",
    T_STRING: "string",
    T_BYTES: "bytes",
    T_ARRAY: "array",
    T_OBJECT: "object",
}

# value tags inside a T_OBJECT item
V_NONE = 0
V_FALSE = 1
V_TRUE = 2
V_INT = 3
V_FLOAT = 4
V_STR = 5
V_BYTES = 6
V_LIST = 7
V_TUPLE = 8
V_DICT = 9

#: deepest list/tuple/dict nesting a structured value may have
MAX_DEPTH = 32

_NATIVE = b"<" if sys.byteorder == "little" else b">"


class SerializationError(Exception):
    """Type mismatch or malformed message data."""


def _encode(value, out: list, depth: int) -> None:
    """Append the tagged encoding of ``value`` to ``out``."""
    if depth > MAX_DEPTH:
        raise SerializationError(f"value nested deeper than {MAX_DEPTH}")
    if value is None:
        out.append(bytes([V_NONE]))
    elif value is True or value is False:
        out.append(bytes([V_TRUE if value else V_FALSE]))
    elif isinstance(value, int):
        n = (value.bit_length() + 8) // 8  # room for the sign bit
        out.append(struct.pack("!BI", V_INT, n))
        out.append(value.to_bytes(n, "big", signed=True))
    elif isinstance(value, float):
        out.append(struct.pack("!Bd", V_FLOAT, value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(struct.pack("!BI", V_STR, len(data)))
        out.append(data)
    elif isinstance(value, bytes):
        out.append(struct.pack("!BI", V_BYTES, len(value)))
        out.append(value)
    elif isinstance(value, (list, tuple)):
        tag = V_LIST if isinstance(value, list) else V_TUPLE
        out.append(struct.pack("!BI", tag, len(value)))
        for item in value:
            _encode(item, out, depth + 1)
    elif isinstance(value, dict):
        out.append(struct.pack("!BI", V_DICT, len(value)))
        for key, item in value.items():
            _encode(key, out, depth + 1)
            _encode(item, out, depth + 1)
    else:
        raise SerializationError(
            f"write_object cannot encode {type(value).__name__}"
        )


def _text(raw) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(f"string is not UTF-8: {exc.reason}") from None


class MessageWriter:
    """Serializes typed items into a message payload."""

    def __init__(self):
        self._parts: list[bytes] = []

    def _tag(self, tag: int) -> None:
        self._parts.append(bytes([tag]))

    def write_bool(self, value: bool) -> "MessageWriter":
        self._tag(T_BOOL)
        self._parts.append(b"\x01" if value else b"\x00")
        return self

    def write_int(self, value: int) -> "MessageWriter":
        self._tag(T_INT)
        self._parts.append(struct.pack("!i", value))
        return self

    def write_long(self, value: int) -> "MessageWriter":
        self._tag(T_LONG)
        self._parts.append(struct.pack("!q", value))
        return self

    def write_double(self, value: float) -> "MessageWriter":
        self._tag(T_DOUBLE)
        self._parts.append(struct.pack("!d", value))
        return self

    def write_string(self, value: str) -> "MessageWriter":
        data = value.encode("utf-8")
        self._tag(T_STRING)
        self._parts.append(struct.pack("!I", len(data)))
        self._parts.append(data)
        return self

    def write_bytes(self, value: bytes) -> "MessageWriter":
        self._tag(T_BYTES)
        self._parts.append(struct.pack("!I", len(value)))
        self._parts.append(bytes(value))
        return self

    def write_array(self, value: "array.array") -> "MessageWriter":
        """Machine-typed numeric array (the fast bulk path)."""
        if not isinstance(value, array.array):
            raise SerializationError(f"write_array needs array.array, got {type(value)}")
        data = value.tobytes()
        typecode = value.typecode.encode("ascii")
        self._tag(T_ARRAY)
        self._parts.append(typecode)
        self._parts.append(_NATIVE)
        self._parts.append(struct.pack("!I", len(data)))
        self._parts.append(data)
        return self

    def write_object(self, value) -> "MessageWriter":
        """A structured value: None, bool, int, float, str, bytes, or
        lists, tuples and dicts of them (the slow path; a tuple reads back
        as a tuple)."""
        parts: list = []
        _encode(value, parts, 0)
        data = b"".join(parts)
        self._tag(T_OBJECT)
        self._parts.append(struct.pack("!I", len(data)))
        self._parts.append(data)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)

    @property
    def size(self) -> int:
        return sum(len(p) for p in self._parts)


class MessageReader:
    """Deserializes typed items, enforcing type agreement."""

    def __init__(self, payload: bytes):
        self._data = payload
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise SerializationError("message truncated")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def _expect(self, tag: int) -> None:
        got = self._take(1)[0]
        if got != tag:
            raise SerializationError(
                f"type mismatch: expected {_TYPE_NAMES.get(tag, tag)}, "
                f"found {_TYPE_NAMES.get(got, got)}"
            )

    def read_bool(self) -> bool:
        self._expect(T_BOOL)
        byte = self._take(1)[0]
        if byte > 1:
            raise SerializationError(f"bool byte {byte} is neither 0 nor 1")
        return byte == 1

    def read_int(self) -> int:
        self._expect(T_INT)
        return struct.unpack("!i", self._take(4))[0]

    def read_long(self) -> int:
        self._expect(T_LONG)
        return struct.unpack("!q", self._take(8))[0]

    def read_double(self) -> float:
        self._expect(T_DOUBLE)
        return struct.unpack("!d", self._take(8))[0]

    def read_string(self) -> str:
        self._expect(T_STRING)
        return _text(self._take(self._length()))

    def read_bytes(self) -> bytes:
        self._expect(T_BYTES)
        return self._take(self._length())

    def read_array(self) -> "array.array":
        self._expect(T_ARRAY)
        typecode = chr(self._take(1)[0])
        byteorder = self._take(1)
        data = self._take(self._length())
        if typecode not in array.typecodes:
            raise SerializationError(f"unknown array typecode {typecode!r}")
        if byteorder not in (b"<", b">"):
            raise SerializationError(f"unknown array byte order {byteorder!r}")
        out = array.array(typecode)
        if len(data) % out.itemsize:
            raise SerializationError(
                f"{len(data)} array bytes are not a whole number of "
                f"{out.itemsize}-byte items"
            )
        out.frombytes(data)
        if byteorder != _NATIVE:
            out.byteswap()
        return out

    def read_object(self):
        """A structured value written with :meth:`MessageWriter.write_object`."""
        self._expect(T_OBJECT)
        body = MessageReader(self._take(self._length()))
        value = body._value(0)
        body.finish()
        return value

    def _length(self, width: int = 1) -> int:
        """A u32 count of items ``width`` bytes or more, bounded by the
        bytes left."""
        n = struct.unpack("!I", self._take(4))[0]
        if n * width > self.remaining:
            raise SerializationError("message truncated")
        return n

    def _value(self, depth: int):
        if depth > MAX_DEPTH:
            raise SerializationError(f"value nested deeper than {MAX_DEPTH}")
        tag = self._take(1)[0]
        if tag == V_NONE:
            return None
        if tag == V_FALSE or tag == V_TRUE:
            return tag == V_TRUE
        if tag == V_FLOAT:
            return struct.unpack("!d", self._take(8))[0]
        if tag == V_INT:
            return int.from_bytes(self._take(self._length()), "big", signed=True)
        if tag == V_STR:
            return _text(self._take(self._length()))
        if tag == V_BYTES:
            return self._take(self._length())
        if tag == V_LIST or tag == V_TUPLE:
            items = [self._value(depth + 1) for _ in range(self._length())]
            return items if tag == V_LIST else tuple(items)
        if tag == V_DICT:
            out = {}
            for _ in range(self._length(2)):
                key = self._value(depth + 1)
                item = self._value(depth + 1)
                try:
                    out[key] = item
                except TypeError:
                    raise SerializationError(
                        f"unhashable dict key of type {type(key).__name__}"
                    ) from None
            return out
        raise SerializationError(f"unknown value tag {tag}")

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def finish(self) -> None:
        """Assert the message was fully consumed."""
        if self.remaining:
            raise SerializationError(f"{self.remaining} unread bytes in message")
