"""Survivable sessions over real sockets: the live twin of SessionLink.

:class:`~repro.core.session.SessionLink` gives simulated channels a
replay buffer, cumulative acks and transparent reconnect.  This module
is the asyncio binding of the same contract for the live backend, so the
chaos harness can prove resume polarity against genuine TCP faults (a
proxy RST mid-stream) and not just simulated ones:

* every payload byte is appended to a replay buffer before it touches
  the wire; cumulative ``ACK`` frames from the peer trim it;
* when the transport dies, the initiator redials (through whatever
  gateway the harness interposed), renegotiates offsets with a
  ``HELLO``/``HELLO_OK`` exchange, and replays the gap — the
  application-visible byte stream continues exactly where it stopped;
* the responder side parks until the initiator's reconnect arrives at
  the :class:`AsyncSessionListener`, which routes it to the existing
  session by id;
* ``FIN`` carries the sender's final offset, and a graceful close waits
  until the peer has acked every byte, so "the transfer completed" means
  the bytes are *there*, not merely written.

Wire format (own framing over the raw socket): ``u8 type, u32 len,
body``.  ``HELLO`` carries the 16-byte session id plus the dialer's
receive offset; ``HELLO_OK`` answers with the acceptor's receive offset;
``DATA`` is ``u64 offset + payload``; ``ACK`` and ``FIN`` carry a single
``u64`` offset.  Duplicate ``DATA`` (replay overlap) is deduplicated by
offset; a forward gap is a protocol violation and kills the transport,
which simply triggers another resume.

Observability matches the sim layer: each successful resume records one
``session.resume`` span with ``outcome=ok`` and increments
``session.reconnects_total`` (role-labelled), and replayed bytes land in
``session.replayed_bytes_total`` — so the chaos invariant suite and
report stats work unchanged on live runs.
"""

from __future__ import annotations

import asyncio
import struct
import time
from typing import Awaitable, Callable, Optional

from .. import obs
from ..obs import fmt_id, next_id
from .transport import LiveListener, LiveSocket
from .wire import ExactReads

__all__ = ["AsyncSessionLink", "AsyncSessionListener", "AsyncSessionError"]

T_HELLO = 1
T_HELLO_OK = 2
T_DATA = 3
T_ACK = 4
T_FIN = 5

_HDR = struct.Struct("!BI")
_U64 = struct.Struct("!Q")

#: send a cumulative ACK at least this often (bytes of new payload)
ACK_EVERY = 32 * 1024
#: replay chunk granularity on resume
REPLAY_CHUNK = 64 * 1024
#: largest acceptable frame body (a DATA frame is never bigger than a
#: replay chunk plus its offset header)
MAX_FRAME = REPLAY_CHUNK + 64

#: per-attempt handshake budget: a gateway silently black-holing the
#: HELLO must time the attempt out, not hang the resume loop forever
HANDSHAKE_TIMEOUT = 3.0

#: graceful-close watchdog: if the cumulative ack makes no progress for
#: this long, kill the transport to force a resume + replay (covers a
#: black-holed FIN/ACK tail, which never trips the gap detector)
ACK_STALL_TIMEOUT = 2.0


class AsyncSessionError(Exception):
    """Session protocol failure (bad handshake, unrecoverable loss)."""


async def _write_frame(sock: LiveSocket, kind: int, body: bytes) -> None:
    await sock.send_all(_HDR.pack(kind, len(body)) + body)


async def _read_frame(sock: LiveSocket) -> tuple:
    header = await sock.recv_exactly(_HDR.size)
    kind, length = _HDR.unpack(header)
    if length > MAX_FRAME:
        raise AsyncSessionError(f"oversized session frame ({length} bytes)")
    body = await sock.recv_exactly(length) if length else b""
    return kind, body


class AsyncSessionLink(ExactReads):
    """One survivable byte stream; exposes the LiveSocket API."""

    INITIATOR = "initiator"
    RESPONDER = "responder"

    def __init__(
        self,
        session_id: bytes,
        role: str,
        node: str = "?",
        dial: Optional[Callable[[], Awaitable[LiveSocket]]] = None,
        max_attempts: int = 8,
        retry_delay: float = 0.05,
        ctx=None,
    ):
        self.session_id = session_id
        self.role = role
        self.node = node
        self.reconnects = 0
        self.replayed_bytes = 0
        self.state = "connecting"
        self._dial = dial
        self._max_attempts = max_attempts
        self._retry_delay = retry_delay
        self._ctx = ctx
        self._sock: Optional[LiveSocket] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._recover_task: Optional[asyncio.Task] = None
        # send side: [base, sent) lives in the replay buffer until acked
        self._sent = 0
        self._base = 0
        self._acked = 0
        self._replay = bytearray()
        self._fin_sent = False
        self._final = 0
        # receive side
        self._recv = 0
        self._buf = bytearray()
        self._fin_at: Optional[int] = None
        self._last_ack_sent = 0
        # coordination
        self._ready = asyncio.Event()
        self._buf_event = asyncio.Event()
        self._ack_event = asyncio.Event()
        self._closed = False

    # -- construction ------------------------------------------------------
    @classmethod
    async def connect(
        cls,
        dial: Callable[[], Awaitable[LiveSocket]],
        node: str = "initiator",
        ctx=None,
        **kwargs,
    ) -> "AsyncSessionLink":
        """Dial, perform the HELLO handshake, return a connected link."""
        session_id = fmt_id(next_id()).encode("ascii")
        link = cls(
            session_id, cls.INITIATOR, node=node, dial=dial,
            ctx=ctx or obs.current(), **kwargs,
        )
        sock = await dial()
        await _write_frame(sock, T_HELLO, session_id + _U64.pack(0))
        kind, body = await asyncio.wait_for(
            _read_frame(sock), timeout=HANDSHAKE_TIMEOUT
        )
        if kind != T_HELLO_OK:
            raise AsyncSessionError(f"expected HELLO_OK, got frame type {kind}")
        link._attach(sock)
        link._ready.set()
        link.state = "connected"
        obs.event(
            "session.established", ctx=link._ctx, node=node,
            session=session_id.decode("ascii"), backend="live",
        )
        return link

    # -- socket plumbing ---------------------------------------------------
    def _attach(self, sock: LiveSocket) -> None:
        old_sock, old_reader = self._sock, self._reader_task
        self._sock = sock
        if old_reader is not None:
            old_reader.cancel()
        if old_sock is not None and old_sock is not sock:
            old_sock.close()
        self._reader_task = asyncio.ensure_future(self._read_loop(sock))

    def _stream_done(self) -> bool:
        sent_done = self._fin_sent and self._acked >= self._final
        recv_done = self._fin_at is not None and self._recv >= self._fin_at
        return sent_done or recv_done

    def _connection_lost(self) -> None:
        if self._closed or self.state in ("finished", "failed"):
            return
        if self._stream_done():
            self.state = "finished"
            self._wake_all()
            return
        self._ready.clear()
        self.state = "reconnecting"
        if self.role == self.INITIATOR:
            if self._recover_task is None or self._recover_task.done():
                self._recover_task = asyncio.ensure_future(self._recover())
        # the responder parks: the listener attaches the reconnect

    def _wake_all(self) -> None:
        self._buf_event.set()
        self._ack_event.set()
        self._ready.set()

    def _fail(self, why: str) -> None:
        self.state = "failed"
        self._failure = why
        self._wake_all()

    # -- reader ------------------------------------------------------------
    async def _read_loop(self, sock: LiveSocket) -> None:
        try:
            while True:
                kind, body = await _read_frame(sock)
                if kind == T_DATA:
                    await self._on_data(
                        _U64.unpack(body[:8])[0], body[8:], sock
                    )
                elif kind == T_ACK:
                    self._on_ack(_U64.unpack(body)[0])
                elif kind == T_FIN:
                    await self._on_fin(_U64.unpack(body)[0], sock)
                elif kind == T_HELLO_OK:
                    continue  # stale handshake residue; offsets rule
                else:
                    raise AsyncSessionError(f"unexpected frame type {kind}")
        except asyncio.CancelledError:
            return
        except (EOFError, ConnectionError, OSError, AsyncSessionError):
            pass
        if sock is self._sock and not self._closed:
            self._connection_lost()

    async def _on_data(self, offset: int, payload: bytes, sock: LiveSocket) -> None:
        if offset > self._recv:
            # a forward gap can only mean a broken resume; kill the
            # transport and let the resume machinery renegotiate
            sock.abort()
            return
        skip = self._recv - offset
        if skip >= len(payload):
            return  # pure duplicate from a replay overlap
        chunk = payload[skip:]
        self._buf.extend(chunk)
        self._recv += len(chunk)
        self._buf_event.set()
        done = self._fin_at is not None and self._recv >= self._fin_at
        if done or self._recv - self._last_ack_sent >= ACK_EVERY:
            await self._send_ack(sock)

    async def _on_fin(self, final: int, sock: LiveSocket) -> None:
        self._fin_at = final
        self._buf_event.set()
        if self._recv >= final:
            await self._send_ack(sock)

    async def _send_ack(self, sock: LiveSocket) -> None:
        self._last_ack_sent = self._recv
        try:
            await _write_frame(sock, T_ACK, _U64.pack(self._recv))
        except (ConnectionError, OSError):
            pass  # the reader will observe the death and recover

    def _on_ack(self, offset: int) -> None:
        if offset <= self._acked:
            return
        self._acked = offset
        drop = min(offset - self._base, len(self._replay))
        if drop > 0:
            del self._replay[:drop]
            self._base += drop
        self._ack_event.set()

    # -- resume ------------------------------------------------------------
    async def _recover(self) -> None:
        t0 = time.time()
        last = "exhausted attempts"
        # own span identity, parented on the stage/root span, so the
        # resume shows up as a child in the assembled cross-node tree
        span_ctx = self._ctx.child() if self._ctx is not None else None
        for attempt in range(self._max_attempts):
            if self._closed or self._stream_done():
                self.state = "finished"
                self._wake_all()
                return
            if attempt:
                await asyncio.sleep(self._retry_delay * attempt)
            sock = None
            try:
                sock = await asyncio.wait_for(
                    self._dial(), timeout=HANDSHAKE_TIMEOUT
                )
                await _write_frame(
                    sock, T_HELLO, self.session_id + _U64.pack(self._recv)
                )
                kind, body = await asyncio.wait_for(
                    _read_frame(sock), timeout=HANDSHAKE_TIMEOUT
                )
                if kind != T_HELLO_OK:
                    raise AsyncSessionError(
                        f"expected HELLO_OK, got frame type {kind}"
                    )
                peer_recv = _U64.unpack(body)[0]
                replayed = await self._resume_send_path(sock, peer_recv)
            except (
                ConnectionError,
                OSError,
                EOFError,
                AsyncSessionError,
                asyncio.TimeoutError,
            ) as exc:
                last = f"{type(exc).__name__}: {exc}"
                if sock is not None and sock is not self._sock:
                    sock.close()
                continue
            self.reconnects += 1
            self.replayed_bytes += replayed
            reg = obs.metrics()
            reg.counter(
                "session.reconnects_total", role=self.role,
                node=self.node, backend="live",
            ).inc()
            reg.counter(
                "session.replayed_bytes_total", node=self.node, backend="live"
            ).inc(replayed)
            obs.record_span(
                "session.resume", t0, time.time(), ctx=span_ctx,
                node=self.node, outcome="ok", attempt=attempt,
                replayed=replayed, backend="live",
            )
            return
        obs.record_span(
            "session.resume", t0, time.time(), ctx=span_ctx,
            node=self.node, outcome="error", error=last, backend="live",
        )
        self._fail(f"resume failed: {last}")

    async def _resume_send_path(self, sock: LiveSocket, peer_recv: int) -> int:
        """Attach ``sock`` and replay everything the peer is missing."""
        if peer_recv < self._base or peer_recv > self._sent:
            raise AsyncSessionError(
                f"peer wants offset {peer_recv} outside replay window "
                f"[{self._base}, {self._sent}]"
            )
        self._attach(sock)
        start = peer_recv - self._base
        pending = bytes(self._replay[start:])
        offset = peer_recv
        for i in range(0, len(pending), REPLAY_CHUNK):
            chunk = pending[i : i + REPLAY_CHUNK]
            await _write_frame(sock, T_DATA, _U64.pack(offset) + chunk)
            offset += len(chunk)
        if self._fin_sent:
            await _write_frame(sock, T_FIN, _U64.pack(self._final))
        self.state = "connected"
        self._ready.set()
        return len(pending)

    # -- responder-side attach (driven by the listener) --------------------
    async def _accept_attach(self, sock: LiveSocket) -> None:
        await _write_frame(sock, T_HELLO_OK, _U64.pack(self._recv))
        self._attach(sock)
        self._ready.set()
        self.state = "connected"

    async def _resume_attach(self, sock: LiveSocket, peer_recv: int) -> None:
        await _write_frame(sock, T_HELLO_OK, _U64.pack(self._recv))
        replayed = await self._resume_send_path(sock, peer_recv)
        self.reconnects += 1
        self.replayed_bytes += replayed
        reg = obs.metrics()
        reg.counter(
            "session.reconnects_total", role=self.role,
            node=self.node, backend="live",
        ).inc()
        if replayed:
            reg.counter(
                "session.replayed_bytes_total", node=self.node, backend="live"
            ).inc(replayed)
        obs.event(
            "session.attached", ctx=self._ctx, node=self.node,
            session=self.session_id.decode("ascii"), replayed=replayed,
            backend="live",
        )

    # -- the socket API ----------------------------------------------------
    async def send_all(self, data: bytes) -> None:
        if self._closed or self._fin_sent:
            raise AsyncSessionError("session closed for sending")
        if self.state == "failed":
            raise AsyncSessionError(f"session failed: {self._failure}")
        offset = self._sent
        self._replay.extend(data)
        self._sent += len(data)
        await self._ready.wait()
        if self.state == "failed":
            raise AsyncSessionError(f"session failed: {self._failure}")
        try:
            await _write_frame(
                self._sock, T_DATA, _U64.pack(offset) + bytes(data)
            )
        except (ConnectionError, OSError):
            # the bytes are safe in the replay buffer; resume delivers them
            self._connection_lost()

    async def recv(self, maxbytes: int) -> bytes:
        while not self._buf:
            if self._fin_at is not None and self._recv >= self._fin_at:
                return b""
            if self.state == "failed":
                raise EOFError(f"session failed: {self._failure}")
            if self._closed:
                return b""
            self._buf_event.clear()
            await self._buf_event.wait()
        take = bytes(self._buf[:maxbytes])
        del self._buf[: len(take)]
        return take

    async def aclose(self, timeout: float = 20.0) -> None:
        """Graceful close: FIN, then wait until the peer acked everything."""
        if self._closed:
            return
        if self._sent > 0 or self.role == self.INITIATOR:
            if not self._fin_sent:
                self._fin_sent = True
                self._final = self._sent
                try:
                    await self._ready.wait()
                    await _write_frame(
                        self._sock, T_FIN, _U64.pack(self._final)
                    )
                except (ConnectionError, OSError):
                    self._connection_lost()
            deadline = time.monotonic() + timeout
            while self._acked < self._final and self.state != "failed":
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._teardown()
                    raise AsyncSessionError(
                        f"close timed out with {self._final - self._acked} "
                        "bytes unacked"
                    )
                before = self._acked
                self._ack_event.clear()
                try:
                    await asyncio.wait_for(
                        self._ack_event.wait(),
                        timeout=min(remaining, ACK_STALL_TIMEOUT),
                    )
                except asyncio.TimeoutError:
                    # no ack progress: a silent drop ate the FIN or the
                    # tail DATA — force a resume, which replays both
                    if (
                        self._acked == before
                        and self.state == "connected"
                        and self._sock is not None
                    ):
                        self._sock.abort()
                    continue
            if self.state == "failed":
                self._teardown()
                raise AsyncSessionError(f"session failed: {self._failure}")
        self.state = "finished"
        self._teardown()

    def _teardown(self) -> None:
        self._closed = True
        if self._recover_task is not None:
            self._recover_task.cancel()
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self._sock is not None:
            self._sock.close()
        self._wake_all()

    def close(self) -> None:
        """Sync close (driver-stack compatible): schedules the graceful one."""
        if not self._closed:
            asyncio.ensure_future(self.aclose())

    def abort(self) -> None:
        """Hard kill of the *current transport* (not the session)."""
        if self._sock is not None:
            self._sock.abort()


class AsyncSessionListener:
    """Accepts session handshakes; routes reconnects to live sessions."""

    def __init__(self, listener: LiveListener, node: str = "responder"):
        self.listener = listener
        self.node = node
        self.sessions: dict[bytes, AsyncSessionLink] = {}
        self._accepts: asyncio.Queue = asyncio.Queue()
        self._task = asyncio.ensure_future(self._accept_loop())

    @property
    def addr(self):
        return self.listener.addr

    async def accept(self) -> AsyncSessionLink:
        """The next *new* session (reconnects never surface here)."""
        return await self._accepts.get()

    async def _accept_loop(self) -> None:
        while True:
            sock = await self.listener.accept()
            asyncio.ensure_future(self._handshake(sock))

    async def _handshake(self, sock: LiveSocket) -> None:
        try:
            kind, body = await _read_frame(sock)
            if kind != T_HELLO or len(body) != 24:
                raise AsyncSessionError("expected HELLO")
            session_id = bytes(body[:16])
            peer_recv = _U64.unpack(body[16:])[0]
            link = self.sessions.get(session_id)
            if link is None:
                link = AsyncSessionLink(
                    session_id, AsyncSessionLink.RESPONDER, node=self.node,
                    ctx=obs.current(),
                )
                self.sessions[session_id] = link
                await link._accept_attach(sock)
                self._accepts.put_nowait(link)
            else:
                await link._resume_attach(sock, peer_recv)
        except (EOFError, ConnectionError, OSError, AsyncSessionError):
            sock.close()

    def close(self) -> None:
        self._task.cancel()
        self.listener.close()
        for link in self.sessions.values():
            link._teardown()
        self.sessions.clear()
