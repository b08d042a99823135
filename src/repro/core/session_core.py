"""The session protocol as one sans-IO state machine.

:class:`SessionCore` owns every protocol decision of a survivable session
and knows nothing of simulator events or asyncio; a binding
(:mod:`repro.core.session`, :mod:`repro.livenet.session`) adds only IO.
``docs/SESSIONS.md`` has the contract between the two.

Wire format (all integers big-endian, on the established link)::

    DATA      = u8(1) u32(len) bytes      # 0 < len <= MAX_CHUNK
    ACK       = u8(2) u64(rx_off)         # cumulative delivered bytes; rides
                                          # in front of a DATA when one goes
    PING      = u8(3)
    PONG      = u8(4) u64(rx_off)
    FIN       = u8(5) u64(fin_off)        # sender finished at fin_off
    FINACK    = u8(6) u64(fin_off)
    RESUME    = u8(7) u64(sid) u64(rx_off) u8(fin?) u64(fin_off) ctx[24]
    RESUME_OK = u8(8) u64(rx_off) u8(fin?) u64(fin_off)
    RETUNE    = u8(9) u64(max_buffer)     # advisory replay-window resize

``RESUME``/``RESUME_OK`` open a link in each direction and are read as
fixed-size blobs (:data:`RESUME_SIZE`, :data:`RESUME_OK_SIZE`) before a
session is attached; everything else flows on an attached link.  ``ctx``
is the recovery's trace context (all-zero = untraced).
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from .. import obs
from ..obs import TraceContext
from ..obs.flight import FlightRecorder
from ..util.bytesbuf import ByteQueue, prepend, size, split
from ..util.sizes import SESSION_MAX_CHUNK, SESSION_REPLAY_BOUND, cut, pieces

__all__ = ["SessionCore", "SessionError", "SessionConfig", "ReplayBuffer",
           "Resume", "decode_resume", "decode_resume_ok", "MAX_CHUNK",
           "RESUME_SIZE", "RESUME_OK_SIZE", "ACTIVE", "RECOVERING", "FINISHED",
           "FAILED"]

F_DATA = 1
F_ACK = 2
F_PING = 3
F_PONG = 4
F_FIN = 5
F_FINACK = 6
F_RESUME = 7
F_RESUME_OK = 8
F_RETUNE = 9

_DATA_HDR = struct.Struct("!BI")
_OFF_HDR = struct.Struct("!BQ")
_RESUME_HDR = struct.Struct("!BQQBQ")
_RESUME_OK_HDR = struct.Struct("!BQBQ")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")

#: bytes that follow the kind byte of each frame an attached link carries
#: (DATA: its length field; the payload is a second parser step)
_BODY_SIZE = {F_DATA: _U32.size, F_PING: 0, **dict.fromkeys(
    (F_ACK, F_PONG, F_FIN, F_FINACK, F_RETUNE), _U64.size)}
#: parser step marker: the bytes awaited are a DATA payload
_PAYLOAD = -1

#: largest payload per DATA frame (also the replay-retransmit chunk size):
#: one full mux frame, so the layer above never costs two frames here
MAX_CHUNK = SESSION_MAX_CHUNK

#: what a fresh link's first read must fetch, per direction
RESUME_SIZE = _RESUME_HDR.size + TraceContext.WIRE_SIZE
RESUME_OK_SIZE = _RESUME_OK_HDR.size

ACTIVE = "active"
RECOVERING = "recovering"
FINISHED = "finished"
FAILED = "failed"


class SessionError(Exception):
    """Session protocol failure or unrecoverable session loss."""


@dataclass(frozen=True)
class SessionConfig:
    """Tuning knobs, settable from the spec layer (``session:ack=..,buf=..,hb=..``)."""

    #: delivered bytes after which an ACK goes out *on its own* — one that
    #: found no DATA frame to ride on; 0 leaves that to the replay bound
    ack_every: int = 0
    max_buffer: int = SESSION_REPLAY_BOUND
    heartbeat: float = 2.0
    dead_factor: float = 3.0
    resume_timeout: float = 20.0

    @property
    def dead_after(self) -> float:
        return self.heartbeat * self.dead_factor

    def ack_backstop(self, replay_bound: int) -> int:
        """Unacknowledged delivered bytes that force a standalone ACK: a
        quarter of the sender's replay bound, so a writer with no reverse
        traffic to carry its ACKs is released well before it parks;
        ``ack_every`` can only bring that forward."""
        quarter = max(1, replay_bound // 4)
        return min(self.ack_every, quarter) if self.ack_every else quarter

    @classmethod
    def from_layer(cls, layer) -> "SessionConfig":
        """Build from a ``session`` :class:`~repro.core.utilization.spec.LayerSpec`."""
        if layer is None:
            return cls()
        return cls(
            ack_every=int(layer.get("ack", cls.ack_every)),
            max_buffer=int(layer.get("buf", cls.max_buffer)),
            heartbeat=float(layer.get("hb", cls.heartbeat)),
        )


class ReplayBuffer:
    """Unacknowledged sent bytes: a byte window [start, end) over the stream.

    ``append`` extends the window as data is sent; ``ack(off)`` trims it
    up to a cumulative delivered offset.  Stale (non-monotone) acks are
    ignored; an ack beyond what was ever sent is a protocol violation.

    The window is the sent bytes themselves — the buffers a DATA frame's
    payload was handed down in — never copied until a resume asks for
    :meth:`unacked`: appending to one bytearray whose front acks have
    trimmed copies everything it still holds.
    """

    def __init__(self) -> None:
        self.start = 0
        self.size = 0
        #: ``(data, skip)``: the window holds ``data[skip:]``
        self._chunks: deque = deque()

    @property
    def end(self) -> int:
        return self.start + self.size

    def append(self, data, skip: int = 0) -> None:
        """Extend the window by ``data[skip:]`` (a frame's payload, kept
        without copying it out of the frame); ``data`` is one buffer or a
        buffer list, whose buffers are kept each."""
        if type(data) is not list:
            self._chunks.append((data, skip))
            self.size += len(data) - skip
            return
        for part in data:
            if skip < len(part):
                self._chunks.append((part, skip))
                self.size += len(part) - skip
                skip = 0
            else:
                skip -= len(part)

    def ack(self, off: int) -> int:
        """Trim to cumulative offset ``off``; returns bytes released."""
        released = cut = off - self.start
        if cut <= 0:
            return 0
        if cut > self.size:
            raise SessionError(f"ack beyond sent data: {off} > {self.end}")
        self.start = off
        self.size -= cut
        chunks = self._chunks
        while cut:
            data, skip = chunks[0]
            left = len(data) - skip
            if cut < left:
                chunks[0] = (data, skip + cut)
                break
            chunks.popleft()
            cut -= left
        return released

    def unacked(self) -> bytes:
        return b"".join(memoryview(data)[skip:] for data, skip in self._chunks)


class Resume(NamedTuple):
    """The offsets one side announces when a fresh link opens."""

    sid: int  #: 0 in a RESUME_OK, which the link it answers on identifies
    rx_off: int  #: bytes this side has delivered: where the peer resumes
    fin: Optional[int]  #: this side's FIN offset, once it is closing
    ctx: Optional[TraceContext]  #: the initiator's recovery span, if traced


def decode_resume(buf: bytes) -> Resume:
    """Parse the :data:`RESUME_SIZE` bytes an initiator opens a link with."""
    if len(buf) != RESUME_SIZE or buf[0] != F_RESUME:
        raise SessionError(f"expected RESUME, got {bytes(buf[:1])!r}")
    _, sid, rx_off, fin_flag, fin_off = _RESUME_HDR.unpack_from(buf)
    blob = buf[_RESUME_HDR.size:]
    ctx = TraceContext.decode(blob) if any(blob) else None
    return Resume(sid, rx_off, fin_off if fin_flag else None, ctx)


def decode_resume_ok(buf: bytes) -> Resume:
    """Parse the :data:`RESUME_OK_SIZE` bytes a responder answers with."""
    if len(buf) != RESUME_OK_SIZE or buf[0] != F_RESUME_OK:
        raise SessionError(f"expected RESUME_OK, got {bytes(buf[:1])!r}")
    _, rx_off, fin_flag, fin_off = _RESUME_OK_HDR.unpack(buf)
    return Resume(0, rx_off, fin_off if fin_flag else None, None)


class SessionCore:
    """One end of a survivable byte stream: bytes in through
    :meth:`receive_data`, frames out through :meth:`write`,
    :meth:`control_frames` and the resume calls, time in through
    :meth:`tick`.

    ``active`` while a link is attached, ``recovering`` from a link's death
    to the next :meth:`attach`; ends ``finished`` or ``failed``.  Close is
    per direction — tx: open → FIN sent → FINACKed; rx: open → FIN seen →
    FINACK sent — and the session finishes when both are done, or on EOF
    once tx is FINACKed.
    """

    INITIATOR = "initiator"
    RESPONDER = "responder"

    # what wake() reports
    WAKE_RX = "rx"            #: read() has data, EOF or a failure to deliver
    WAKE_WINDOW = "window"    #: write() may admit a chunk again, or will raise
    WAKE_STATE = "state"      #: state, or a direction's close progress, moved
    WAKE_CONTROL = "control"  #: control_frames() may have something to send
    #: the link generation moved — ``active``: read the link handed to
    #: attach(); ``recovering``: drop it and, as initiator, redial;
    #: ``finished``: close it; ``failed``: abort it
    WAKE_LINK = "link"

    #: raised at the application for use of a closed or failed session
    error_class: type = SessionError

    def __init__(self, sid: int, role: str,
                 config: Optional[SessionConfig] = None, *, now: float = 0.0,
                 attached: bool = True, peer: str = "",
                 ctx: Optional[TraceContext] = None, node: str = "",
                 flight: Optional[FlightRecorder] = None):
        if role not in (self.INITIATOR, self.RESPONDER):
            raise ValueError(f"bad session role {role!r}")
        self.sid = sid
        self.role = role
        self.peer = peer
        #: causal identity of the connect that created this session — resume
        #: spans are children of it, so a reconnect shows up in the same
        #: trace as the original transfer
        self.ctx = ctx
        self.node = node
        self.flight = flight
        self.config = config or SessionConfig()
        #: the peer's last advertised replay bound (RETUNE; informational)
        self.peer_max_buffer = 0
        self.reconnects = 0
        self.replayed_bytes = 0
        #: bumped when a link is abandoned and again when the next one is
        #: attached, so bytes from a stale pump are recognised and dropped
        self._gen = 0
        self._state = ACTIVE if attached else RECOVERING
        self._failure: Optional[Exception] = None
        self._announced = False
        # tx side
        self._replay = ReplayBuffer()
        self._tx_fin: Optional[int] = None
        self._tx_fin_acked = False
        self._close_deadline: Optional[float] = None
        self._replaying = 0
        # rx side
        self._rx = ByteQueue()
        self._rx_off = 0
        self._rx_fin: Optional[int] = None
        self._rx_finack_sent = False
        self._finack_in_flight = False
        self._last_ack_sent = 0
        self._last_rx = now
        self._broken_at = now
        # parser: bytes not yet consumed, what the next step awaits
        self._inbuf = bytearray()
        self._step: Optional[int] = None
        self._need = 1
        #: control frames owed to the peer: ack, pong, ping, retune, finack, fin
        self._owed: set = set()
        if attached:
            self._announce()

    def _announce(self) -> None:
        self._announced = True
        self._emit("session.established", self.ctx, {"role": self.role},
                   role=self.role, peer=self.peer)

    def wake(self, what: str) -> None:
        """Binding hook: condition ``what`` (a ``WAKE_*`` constant) may now
        hold.  A hint, not a promise: the woken waiter re-checks.  May read
        the core's state but must not feed it or call it back."""

    # -- metadata ----------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    @property
    def ended(self) -> bool:
        """Finished or failed: nothing more will be read or written."""
        return self._state in (FINISHED, FAILED)

    @property
    def acked_tx(self) -> int:
        """Cumulative sent bytes the peer has acknowledged delivered (what
        a rebalancing parallel stack need not retransmit elsewhere when
        this session cannot be resumed)."""
        return self._replay.start

    @property
    def replay_occupancy(self) -> float:
        """Replay-buffer fill fraction in [0, 1] (the tuner's signal)."""
        return min(1.0, self._replay.size / max(1, self.config.max_buffer))

    @property
    def rx_need(self) -> int:
        """How many more bytes the parser's next step awaits — a reader that
        asks its link for exactly this many never reads past a frame."""
        return self._need - len(self._inbuf)

    def set_max_buffer(self, max_buffer: int) -> None:
        """Retune the replay-buffer bound mid-stream (tuner-driven).

        Growth releases senders blocked on the old bound at once; shrink
        never drops buffered bytes, the window just admits nothing until
        acks drain it below the new bound.  The peer is told by an
        advisory RETUNE (each side's bound is locally enforced).
        """
        max_buffer = int(max_buffer)
        if max_buffer <= 0:
            raise ValueError(f"max_buffer must be positive: {max_buffer}")
        old = self.config.max_buffer
        if max_buffer == old:
            return
        self.config = replace(self.config, max_buffer=max_buffer)
        if max_buffer > old:
            self.wake(self.WAKE_WINDOW)
        obs.metrics().counter("session.retunes_total", role=self.role).inc()
        obs.event("session.retuned", ctx=self.ctx, node=self.node or None,
                  sid=f"{self.sid:016x}", old=old, new=max_buffer)
        if self._state == ACTIVE:
            self._owe("retune")  # advisory: not replayed across a recovery

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} {self.sid:016x} {self.role} "
                f"{self._state} tx={self._replay.end} rx={self._rx_off}>")

    # -- application side --------------------------------------------------------
    def write(self, data) -> Optional[tuple]:
        """Admit the head of ``data`` (one buffer or a buffer list) — at
        most :data:`MAX_CHUNK` bytes, never cut so as to leave a runt —
        into the replay buffer and return ``(frame, taken)``: the DATA
        frame to put on the link (a buffer list when its payload is large,
        :func:`~repro.util.bytesbuf.prepend`) and how much of ``data`` it
        carries.  Whatever was delivered and not yet acknowledged is
        acknowledged by an ACK in front of that DATA, in the same write.
        ``None`` while recovering or while the replay buffer is at
        ``max_buffer``: park until ``WAKE_WINDOW`` and ask again.

        The bytes are in the replay buffer *before* the write: if the link
        dies mid-frame they are retransmitted after resume.
        """
        if self._tx_fin is not None:
            raise self.error_class("send on closed session")
        if self._state != ACTIVE:
            self._check_usable()
            return None
        if self._replay.size >= self.config.max_buffer:
            return None
        total = len(data) if type(data) is not list else size(data)
        n = cut(total, MAX_CHUNK)
        header = _DATA_HDR.pack(F_DATA, n)
        if self._rx_off > self._last_ack_sent or "ack" in self._owed:
            self._owed.discard("ack")
            header = self._ack_frame() + header
        frame = prepend(header, data if n == total else split(data, n)[0])
        self._replay.append(frame, len(header))
        return frame, n

    def read(self, maxbytes: int) -> Optional[bytes]:
        """Up to ``maxbytes`` of delivered data, ``b""`` at end of stream
        (peer's FIN reached, or the session finished), ``None`` to wait for
        ``WAKE_RX``.  A large DATA payload is read as views of the buffer
        it arrived in (:class:`~repro.util.bytesbuf.ByteQueue`)."""
        if self._rx:
            return self._rx.take(maxbytes)
        if self._failure is not None:
            raise self.error_class(
                f"session {self.sid:016x} failed") from self._failure
        if self._state == FINISHED or (
                self._rx_fin is not None and self._rx_off >= self._rx_fin):
            return b""
        return None

    def shutdown(self, deadline: Optional[float] = None) -> None:
        """Close the local direction at the current offset: the FIN is owed
        like any control frame, and a replay carries it across a recovery.
        With a ``deadline`` (on :meth:`tick`'s clock) a session still
        lingering for its peer then is ended rather than kept."""
        if self.ended or self._tx_fin is not None:
            return
        self._tx_fin = self._replay.end
        self._close_deadline = deadline
        self._owe("fin")

    def _check_usable(self) -> None:
        if self._state == FAILED:
            raise self.error_class(
                f"session {self.sid:016x} failed") from self._failure
        if self._state == FINISHED:
            raise self.error_class("session closed")

    def fail(self, exc: Exception) -> None:
        """Unrecoverable: every parked caller gets ``exc`` (first wins)."""
        if self.ended:
            return
        self._state = FAILED
        self._failure = exc
        self._gen += 1
        self._emit("session.failed", self.ctx, {"error": type(exc).__name__},
                   role=self.role, error=f"{type(exc).__name__}: {exc}")
        self.wake(self.WAKE_LINK)
        self.wake(self.WAKE_RX)
        self.wake(self.WAKE_WINDOW)
        self._notify()

    # -- bytes in ----------------------------------------------------------------
    def receive_data(self, data, now: float,
                     gen: Optional[int] = None) -> None:
        """Apply bytes read off link generation ``gen`` (default: the
        current one), however they are fragmented.  Bytes from a link
        since abandoned are dropped.  A malformed frame or protocol
        violation fails the session and raises :class:`SessionError`.

        A DATA payload that lies wholly inside ``data`` is delivered as a
        view of it; only a frame split between two reads is finished in
        a buffer of its own."""
        if (gen is not None and gen != self._gen) or self.ended or not data:
            return
        buf = self._inbuf
        if buf:
            buf += data
            data = buf
        pos = 0
        step, need = self._step, self._need
        try:
            with memoryview(data) as view:
                total = len(view)
                while total - pos >= need:
                    end = pos + need
                    if step is None:
                        step = view[pos]
                        need = _BODY_SIZE.get(step)
                        if need is None:
                            raise SessionError(f"unexpected frame type {step}")
                        self._last_rx = now
                        if not need:  # PING, the only bodiless frame
                            self._owe("pong")
                            step, need = None, 1
                    elif step == F_DATA:
                        (need,) = _U32.unpack_from(view, pos)
                        if need == 0 or need > MAX_CHUNK:
                            raise SessionError(f"bad DATA length {need}")
                        step = _PAYLOAD
                    else:
                        if step == _PAYLOAD:
                            self._on_data(view[pos:end])
                        else:
                            self._on_offset(step, *_U64.unpack_from(view, pos))
                        step, need = None, 1
                    pos = end
                if data is not buf and pos < total:
                    buf += view[pos:]  # a frame the next read finishes
        except SessionError as exc:
            # replaced, not resized: the traceback may still hold a view
            self._inbuf = bytearray()
            self.fail(exc)
            raise
        self._step, self._need = step, need
        if data is buf:
            del buf[:pos]

    def _on_offset(self, kind: int, off: int) -> None:
        if kind == F_RETUNE:
            self.peer_max_buffer = off
        elif kind == F_FIN:
            self._on_fin(off)
        elif kind == F_FINACK:
            self._on_finack(off)
        elif self._replay.ack(off):  # ACK, PONG
            self.wake(self.WAKE_WINDOW)

    def _on_data(self, payload: memoryview) -> None:
        self._rx_off += len(payload)
        if self._rx_fin is not None and self._rx_off > self._rx_fin:
            raise SessionError("data past the peer's FIN offset")
        self._rx.put(payload)
        self.wake(self.WAKE_RX)
        self._owe_finack()
        # an ACK of its own only as a backstop: the next write carries one
        if self._rx_off - self._last_ack_sent >= self.config.ack_backstop(
                self.peer_max_buffer or self.config.max_buffer):
            self._owe("ack")

    def _on_fin(self, off: int) -> None:
        self._note_peer_fin(off)
        self.wake(self.WAKE_RX)
        self._owe_finack()
        self._notify()

    def _owe_finack(self) -> None:
        """FINACK is owed once everything up to the peer's FIN is delivered,
        and once per link: a repeated FIN (a closer racing the replay) is
        not answered again, so an end whose peer has already finished and
        closed the link has nothing left to write into it."""
        if (self._rx_fin is not None and self._rx_off >= self._rx_fin
                and not (self._rx_finack_sent or self._finack_in_flight)):
            self._owe("finack")

    def _note_peer_fin(self, off: Optional[int]) -> None:
        if off is None:
            return
        if off < self._rx_off:
            raise SessionError(
                f"peer FIN at {off} below delivered offset {self._rx_off}")
        self._rx_fin = off

    def _on_finack(self, off: int) -> None:
        if self._tx_fin is not None and off == self._tx_fin:
            self._replay.ack(off)
            self.wake(self.WAKE_WINDOW)
            self._tx_fin_acked = True
            self._notify()
            self._maybe_finish()

    # -- bytes out ---------------------------------------------------------------
    def control_frames(self) -> bytes:
        """Every control frame now owed, joined for one write; ``b""`` when
        there is none (park until ``WAKE_CONTROL``).  Follow a successful
        write with :meth:`control_sent`; after a failed one the link is
        gone and :meth:`attach` re-owes what still matters."""
        owed = self._owed
        if self._state != ACTIVE or not owed:
            return b""
        frames = []
        if "pong" in owed or "ack" in owed:
            frames.append(self._ack_frame(F_PONG if "pong" in owed else F_ACK))
            owed -= {"pong", "ack"}
        if "ping" in owed:
            frames.append(bytes((F_PING,)))
            owed.discard("ping")
        if "retune" in owed:
            frames.append(_OFF_HDR.pack(F_RETUNE, self.config.max_buffer))
            owed.discard("retune")
        if "finack" in owed:
            frames.append(_OFF_HDR.pack(F_FINACK, self._rx_fin))
            self._finack_in_flight = True
            owed.discard("finack")
        if "fin" in owed and not frames:
            # a write of its own, next turn if need be: segment boundaries
            # are simulated time, and a close's are part of the record
            frames.append(_OFF_HDR.pack(F_FIN, self._tx_fin))
            owed.discard("fin")
        return b"".join(frames)

    def _ack_frame(self, kind: int = F_ACK) -> bytes:
        self._last_ack_sent = self._rx_off
        return _OFF_HDR.pack(kind, self._rx_off)

    def control_sent(self) -> None:
        """What :meth:`control_frames` last returned is on the link."""
        if self._finack_in_flight:
            self._finack_in_flight = False
            if not self._rx_finack_sent:
                self._rx_finack_sent = True
                self._notify()
                self._maybe_finish()

    def _owe(self, what: str) -> None:
        if what not in self._owed:
            self._owed.add(what)
            self.wake(self.WAKE_CONTROL)

    def _notify(self) -> None:
        self.wake(self.WAKE_STATE)
        self.wake(self.WAKE_CONTROL)

    # -- time --------------------------------------------------------------------
    def tick(self, now: float) -> None:
        """Heartbeat, watchdog, close deadline; call every
        ``config.heartbeat`` seconds.  Delivered bytes no write has
        acknowledged since owe their ACK now.  A receive side idle for a
        heartbeat owes a PING (which also re-creates middlebox state from
        the quiet end); an initiator that heard nothing for ``dead_after``
        abandons the link on purpose: a silent stall never errors."""
        if self.ended:
            return
        if self._close_deadline is not None and now >= self._close_deadline:
            if self._tx_fin_acked:
                self._finish()  # the peer never closed its direction
            else:
                self.fail(SessionError(
                    f"close timed out with {self._replay.size} bytes unacked"))
            return
        if self._state != ACTIVE:
            return  # recovery paces itself
        if self._rx_off > self._last_ack_sent:
            self._owe("ack")
        idle = now - self._last_rx
        if idle >= self.config.dead_after and self.role == self.INITIATOR:
            obs.event("session.watchdog", sid=f"{self.sid:016x}",
                      idle=round(idle, 3))
            self.transport_broken(
                self._gen, SessionError(f"peer silent for {idle:.1f}s"), now)
        elif idle >= self.config.heartbeat:
            self._owe("ping")

    # -- link lifecycle ----------------------------------------------------------
    def transport_broken(self, gen: int, exc: BaseException,
                         now: float) -> None:
        """Link generation ``gen`` died (or is being abandoned).  A stale
        report is ignored; EOF after the local direction was FINACKed is
        the peer closing first; anything else starts a recovery."""
        if gen != self._gen or self._state != ACTIVE:
            return
        if isinstance(exc, EOFError) and self._tx_fin_acked:
            self._finish()
            return
        self._state = RECOVERING
        self._gen += 1
        self._broken_at = now
        self._emit("session.broken", self.ctx, {"error": type(exc).__name__},
                   role=self.role, at_tx=self._replay.end, at_rx=self._rx_off,
                   error=f"{type(exc).__name__}: {exc}")
        self.wake(self.WAKE_LINK)
        self._notify()

    def resume_request(self, ctx: Optional[TraceContext] = None) -> bytes:
        """Initiator: the RESUME a fresh link opens with.  ``ctx`` rides as
        a fixed trailer so the responder's records join the same trace."""
        fin = self._tx_fin
        return _RESUME_HDR.pack(
            F_RESUME, self.sid, self._rx_off, fin is not None, fin or 0
        ) + (ctx.encode() if ctx is not None
             else b"\0" * TraceContext.WIRE_SIZE)

    def resume_frames(self, peer: Resume) -> list:
        """What to write on the fresh link whose other end announced
        ``peer``, before :meth:`attach` lets anyone else write to it:
        as responder the RESUME_OK, then the replay the peer's delivered
        offset asks for (DATA in ``MAX_CHUNK`` pieces, FIN if closing), so
        replayed bytes keep their stream position.  Offsets no replay can
        satisfy fail the session.

        A finished responder still answers a peer that redials because the
        last FINACK died with its link — RESUME_OK and that FINACK, after
        which the caller drops the link instead of attaching it; no other
        ended session has anything to say."""
        frames = []
        if self.role == self.RESPONDER:
            fin = self._tx_fin
            frames.append(_RESUME_OK_HDR.pack(
                F_RESUME_OK, self._rx_off, fin is not None, fin or 0))
        if self.ended:
            if self._state == FAILED or not self._rx_finack_sent:
                raise SessionError(f"session {self.sid:016x} is {self._state}")
            return frames + [_OFF_HDR.pack(F_FINACK, self._rx_fin)]
        try:
            self._note_peer_fin(peer.fin)
            if peer.rx_off < self._replay.start:
                raise SessionError(
                    f"peer resumes at {peer.rx_off}, below the replay "
                    f"window start {self._replay.start}")
            if self._replay.ack(peer.rx_off):
                self.wake(self.WAKE_WINDOW)
        except SessionError as exc:
            self.fail(exc)
            raise
        pending = self._replay.unacked()
        frames += [
            _DATA_HDR.pack(F_DATA, end - start) + pending[start:end]
            for start, end in pieces(len(pending), MAX_CHUNK)
        ]
        if self._tx_fin is not None:
            frames.append(_OFF_HDR.pack(F_FIN, self._tx_fin))
        self._replaying = len(pending)
        return frames

    def attach(self, now: float, ctx: Optional[TraceContext] = None) -> None:
        """The link that carried :meth:`resume_frames` is now the session's.
        Every attach but the first completes one recovery, accounted under
        ``ctx`` (the initiator's resume span, or the responder's child of
        it): the invariant layer counts every ok ``session.resume`` span
        against ``session.reconnects_total``."""
        self._check_usable()
        if self._replaying:
            self.replayed_bytes += self._replaying
            obs.metrics().counter(
                "session.replayed_bytes_total", role=self.role
            ).inc(self._replaying)
            self._replaying = 0
        self._gen += 1
        self._state = ACTIVE
        self._last_rx = now
        self._finack_in_flight = False
        self._inbuf.clear()
        self._step, self._need = None, 1
        first = not self._announced
        if first:
            self._announce()
        self.wake(self.WAKE_LINK)
        self.wake(self.WAKE_WINDOW)
        self._notify()
        if first:
            return
        # let the peer trim its replay window even if no data flows soon
        self._owe("ack")
        if self._rx_fin is not None and self._rx_off >= self._rx_fin:
            self._owe("finack")
        self.reconnects += 1
        reg = obs.metrics()
        reg.counter("session.reconnects_total", role=self.role).inc()
        attrs = {}
        if self.role == self.INITIATOR:
            after = now - self._broken_at
            reg.histogram("session.resume_seconds").observe(after)
            attrs["after"] = round(after, 6)
        self._emit("session.resumed", ctx, {"reconnects": self.reconnects},
                   role=self.role, **attrs, reconnects=self.reconnects)

    def _maybe_finish(self) -> None:
        if self._tx_fin_acked and self._rx_finack_sent:
            self._finish()

    def _finish(self) -> None:
        if self.ended:
            return
        self._state = FINISHED
        self._emit("session.finished", self.ctx,
                   {"reconnects": self.reconnects}, role=self.role,
                   tx=self._replay.end, rx=self._rx_off,
                   reconnects=self.reconnects)
        self.wake(self.WAKE_LINK)
        self.wake(self.WAKE_RX)
        self._notify()

    # -- observability -----------------------------------------------------------
    def _emit(self, name: str, ctx: Optional[TraceContext], note: dict,
              **attrs) -> None:
        """One lifecycle record: a trace event, and a flight-recorder note
        (``note`` attrs; it falls back to the session's own context)."""
        sid = f"{self.sid:016x}"
        obs.event(name, ctx=ctx, node=self.node or None, sid=sid, **attrs)
        if self.flight is not None:
            self.flight.note(name, ctx=ctx or self.ctx, sid=sid, **note)
