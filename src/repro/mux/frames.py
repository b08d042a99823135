"""The mux frame protocol: one established link, many logical channels.

Transport-agnostic codec — every frame is encoded to (and decoded from) a
plain byte string; the simulated endpoint carries them inside the u32
length-prefixed frames of :mod:`repro.core.wire`, and a live (asyncio)
endpoint can carry the same bytes inside its own framing.  A DATA frame
the endpoint writes keeps a large payload by reference behind its header
(:func:`data_frame`, a buffer list), and a large payload decoded from a
view stays one (:mod:`repro.util.bytesbuf`).  The protocol is
versioned alongside framing v2: the first frame in each direction is a
``HELLO`` carrying :data:`MUX_VERSION`, and an endpoint refuses to talk to
a peer speaking a different major version.

Frame layout (after the transport length prefix)::

    u8 type | u32 channel_id | type-specific body

* ``HELLO``  — ``u16 version, u32 default_window`` (channel_id 0)
* ``OPEN``   — ``u32 window, lp_bytes tag, lp_bytes trace_ctx`` — the
  opener advertises the credit window it grants for data *toward* it;
  ``tag`` is an opaque application blob (the IPL uses it to carry the
  port-connect request); ``trace_ctx`` is an encoded
  :class:`~repro.obs.TraceContext` (possibly empty) so channel
  establishment joins the initiator's causal trace.
* ``ACCEPT`` — ``u32 window`` — the acceptor's credit grant.
* ``DATA``   — ``lp_bytes payload`` — consumes ``len(payload)`` credit.
* ``CREDIT`` — ``u32 grant`` — replenishes the sender's credit as the
  receiving application drains its buffer.
* ``CLOSE``  — ``u8 flags, lp_str reason`` — graceful half-close
  (flags 0) or error close (flags 1).
* ``WINDOW`` — ``u32 window`` — mid-stream credit-window renegotiation:
  the receiver announces its *new* steady-state window (the tuner's
  doing).  Additive and advisory — a peer that predates it would reject
  the frame, but WINDOW is only ever sent after a retune is requested
  locally, so the base protocol (and :data:`MUX_VERSION`) is unchanged.

Channel ids are chosen by the opener: the endpoint that initiated the
underlying link allocates odd ids, the acceptor even ids, so both sides
can open channels without coordination (the QUIC/HTTP-2 parity trick).
"""

from __future__ import annotations

import struct
from typing import Optional

from ..util.bytesbuf import BY_REF, frozen, prepend
from ..util.framing import ByteReader, ByteWriter, FrameError

__all__ = [
    "MUX_VERSION",
    "T_HELLO",
    "T_OPEN",
    "T_ACCEPT",
    "T_DATA",
    "T_CREDIT",
    "T_CLOSE",
    "T_WINDOW",
    "FRAME_NAMES",
    "CLOSE_GRACEFUL",
    "CLOSE_ERROR",
    "MuxFrame",
    "MuxProtocolError",
    "encode_hello",
    "encode_open",
    "encode_accept",
    "encode_data",
    "data_frame",
    "decode_data",
    "encode_credit",
    "encode_close",
    "encode_window",
    "decode_frame",
    "decode_hello",
]

#: protocol version exchanged in HELLO; bumped on incompatible changes
MUX_VERSION = 1

T_HELLO = 0
T_OPEN = 1
T_ACCEPT = 2
T_DATA = 3
T_CREDIT = 4
T_CLOSE = 5
T_WINDOW = 6

FRAME_NAMES = {
    T_HELLO: "hello",
    T_OPEN: "open",
    T_ACCEPT: "accept",
    T_DATA: "data",
    T_CREDIT: "credit",
    T_CLOSE: "close",
    T_WINDOW: "window",
}

CLOSE_GRACEFUL = 0
CLOSE_ERROR = 1

#: a DATA frame up to its payload: type, channel, payload length
_DATA_HEAD = struct.Struct("!BII")


class MuxProtocolError(Exception):
    """Malformed mux frame or protocol violation."""


class MuxFrame:
    """One decoded mux frame (immutable value object)."""

    __slots__ = ("kind", "channel", "version", "window", "tag", "ctx",
                 "payload", "grant", "flags", "reason")

    def __init__(self, kind: int, channel: int, *, version: int = 0,
                 window: int = 0, tag: bytes = b"", ctx: bytes = b"",
                 payload: bytes = b"", grant: int = 0, flags: int = 0,
                 reason: str = ""):
        self.kind = kind
        self.channel = channel
        self.version = version
        self.window = window
        self.tag = tag
        self.ctx = ctx
        self.payload = payload
        self.grant = grant
        self.flags = flags
        self.reason = reason

    @property
    def name(self) -> str:
        return FRAME_NAMES.get(self.kind, f"type{self.kind}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MuxFrame {self.name} ch={self.channel}>"


def _header(kind: int, channel: int) -> ByteWriter:
    return ByteWriter().u8(kind).u32(channel)


def encode_hello(version: int = MUX_VERSION, window: int = 0) -> bytes:
    return _header(T_HELLO, 0).u16(version).u32(window).getvalue()


def encode_open(channel: int, window: int, tag: bytes = b"",
                ctx: Optional[bytes] = None) -> bytes:
    return (
        _header(T_OPEN, channel)
        .u32(window)
        .lp_bytes(tag)
        .lp_bytes(ctx or b"")
        .getvalue()
    )


def encode_accept(channel: int, window: int) -> bytes:
    return _header(T_ACCEPT, channel).u32(window).getvalue()


def encode_data(channel: int, payload: bytes) -> bytes:
    return _DATA_HEAD.pack(T_DATA, channel, len(payload)) + payload


def data_frame(channel: int, payload, n: int):
    """The DATA frame carrying ``payload``, ``n`` bytes in one buffer or a
    buffer list, as the endpoint writes it: its header in front of a large
    payload kept by reference, else :func:`encode_data`'s bytes."""
    return prepend(_DATA_HEAD.pack(T_DATA, channel, n), payload)


def encode_credit(channel: int, grant: int) -> bytes:
    return _header(T_CREDIT, channel).u32(grant).getvalue()


def encode_close(channel: int, flags: int = CLOSE_GRACEFUL,
                 reason: str = "") -> bytes:
    return _header(T_CLOSE, channel).u8(flags).lp_str(reason).getvalue()


def encode_window(channel: int, window: int) -> bytes:
    return _header(T_WINDOW, channel).u32(window).getvalue()


def decode_data(body) -> Optional[tuple]:
    """``(channel, payload)`` of a well-formed DATA frame body (bytes or a
    view), None for any other frame — a DATA whose length lies included,
    which :func:`decode_frame` diagnoses.  The frame that carries the
    bytes: a large payload stays a view of ``body`` (copied only if
    ``body`` could change), a small one is copied out."""
    if len(body) < _DATA_HEAD.size or body[0] != T_DATA:
        return None
    _, channel, length = _DATA_HEAD.unpack_from(body)
    if length != len(body) - _DATA_HEAD.size:
        return None
    if length >= BY_REF:
        return channel, frozen(memoryview(body)[_DATA_HEAD.size:])
    return channel, bytes(body[_DATA_HEAD.size:])


def decode_frame(body) -> MuxFrame:
    """Decode one mux frame body (without the transport length prefix):
    bytes, a view, or the buffer list :func:`data_frame` builds."""
    if type(body) is list:
        body = b"".join(body)
    data = decode_data(body)
    if data is not None:
        return MuxFrame(T_DATA, data[0], payload=data[1])
    try:
        reader = ByteReader(body)
        kind = reader.u8()
        channel = reader.u32()
        if kind == T_HELLO:
            frame = MuxFrame(kind, channel, version=reader.u16(),
                             window=reader.u32())
        elif kind == T_OPEN:
            frame = MuxFrame(kind, channel, window=reader.u32(),
                             tag=reader.lp_bytes(), ctx=reader.lp_bytes())
        elif kind == T_ACCEPT:
            frame = MuxFrame(kind, channel, window=reader.u32())
        elif kind == T_DATA:
            frame = MuxFrame(kind, channel, payload=reader.lp_bytes())
        elif kind == T_CREDIT:
            frame = MuxFrame(kind, channel, grant=reader.u32())
        elif kind == T_CLOSE:
            frame = MuxFrame(kind, channel, flags=reader.u8(),
                             reason=reader.lp_str())
        elif kind == T_WINDOW:
            frame = MuxFrame(kind, channel, window=reader.u32())
        else:
            raise MuxProtocolError(f"unknown mux frame type {kind}")
        reader.expect_end()
        return frame
    except FrameError as exc:
        raise MuxProtocolError(f"malformed mux frame: {exc}") from exc


def decode_hello(body: bytes) -> MuxFrame:
    """Decode the peer's first frame: anything but a HELLO speaking our
    :data:`MUX_VERSION` is refused."""
    hello = decode_frame(body)
    if hello.kind != T_HELLO:
        raise MuxProtocolError(f"expected HELLO, got {hello.name}")
    if hello.version != MUX_VERSION:
        raise MuxProtocolError(
            f"mux version mismatch: ours {MUX_VERSION}, peer {hello.version}")
    return hello
