"""Survivable sessions over real sockets: the asyncio binding of SessionCore.

:mod:`repro.core.session_core` is the session protocol — one wire
format, replay buffer, cumulative acks, offset negotiation, heartbeat,
watchdog and two-direction close — and the simulator runs it through
:class:`~repro.core.session.SessionLink`.  This module runs the very same
state machine over anything with the live socket surface
(``send_all``/``recv``/``recv_exactly``/``close``/``abort``: a
``LiveSocket``, a relay-routed link), so the chaos harness can prove
resume polarity against genuine TCP faults (a proxy RST mid-stream) and
not just simulated ones.  It adds only IO:

* :meth:`AsyncSessionLink.connect` dials and opens the link with
  ``RESUME`` for a fresh session id at offset 0, answered by
  ``RESUME_OK`` — one round trip, the same exchange every later
  reconnect repeats with the offsets reached by then;
* when the transport dies, the initiator redials (through whatever
  gateway the harness interposed) under a bounded retry loop, one
  ``session.resume`` span per recovery; the responder parks until the
  reconnect arrives at its :class:`AsyncSessionListener`, which routes it
  to the surviving session by id;
* a reader task feeds the core, a control task writes what it owes, a
  timer task calls ``tick``; callers park on ``asyncio.Event``\\ s the
  core wakes.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Optional

from .. import obs
from ..core.session_core import (
    ACTIVE,
    FAILED,
    FINISHED,
    RECOVERING,
    RESUME_OK_SIZE,
    RESUME_SIZE,
    Resume,
    SessionCore,
    SessionError,
    decode_resume,
    decode_resume_ok,
)
from ..obs import next_id
from .transport import LiveListener, LiveSocket
from .wire import ExactReads

__all__ = ["AsyncSessionLink", "AsyncSessionListener", "AsyncSessionError"]

#: per-attempt budget for the dial and for the RESUME/RESUME_OK exchange:
#: a gateway silently black-holing either must time the attempt out, not
#: hang the resume loop forever
HANDSHAKE_TIMEOUT = 3.0

#: redial backoff: attempt ``n`` waits ``n * RETRY_DELAY`` first
RETRY_DELAY = 0.05

#: how long a link closed with the sync :meth:`AsyncSessionLink.close`
#: may linger for its peer (``aclose`` takes its own)
CLOSE_TIMEOUT = 20.0

#: per read of the transport: more than one full DATA frame
_READ_SIZE = 1 << 17

#: binding-private wake kind: the transport is free for the next writer
_WAKE_TX = "tx"

#: what a dead or misbehaving transport raises
_TRANSPORT_ERRORS = (EOFError, OSError)
#: what one failed RESUME exchange raises, on either side (the initiator's
#: next attempt may still succeed)
_RETRYABLE = (*_TRANSPORT_ERRORS, SessionError, asyncio.TimeoutError)

_now = time.monotonic


class AsyncSessionError(SessionError):
    """Session failure on the live backend (bad handshake, unrecoverable loss)."""


class AsyncSessionLink(SessionCore, ExactReads):
    """One survivable byte stream; exposes the LiveSocket API."""

    error_class = AsyncSessionError

    def __init__(
        self,
        sid: int,
        role: str,
        node: str = "?",
        dial: Optional[Callable[[], Awaitable[LiveSocket]]] = None,
        max_attempts: int = 8,
        ctx=None,
    ):
        super().__init__(sid, role, now=_now(), attached=False, ctx=ctx,
                         node=node)
        self._dial = dial
        self._max_attempts = max_attempts
        self._sock: Optional[LiveSocket] = None
        #: a writer holds the transport; the others park on ``_WAKE_TX``
        self._sending = False
        #: wake kind -> the event callers parked on it share
        self._waiters: dict = {}
        self._tasks: set = set()
        self._timer: Optional[asyncio.TimerHandle] = None

    @classmethod
    async def connect(
        cls,
        dial: Callable[[], Awaitable[LiveSocket]],
        node: str = "initiator",
        ctx=None,
        **kwargs,
    ) -> "AsyncSessionLink":
        """Dial, open a new session on the link, return it connected."""
        link = cls(next_id(), cls.INITIATOR, node=node, dial=dial,
                   ctx=ctx or obs.current(), **kwargs)
        sock = await dial()
        try:
            await link._resume_initiator(sock, None)
        except BaseException as exc:
            sock.close()
            if isinstance(exc, SessionError):
                raise AsyncSessionError(str(exc)) from exc
            raise
        return link

    # -- the socket API ----------------------------------------------------
    async def send_all(self, data: bytes) -> None:
        view = memoryview(data)
        offset = 0
        while offset < len(view):
            out = self.write(view[offset:])
            if out is None:
                # recovering, or backpressure: acks must release replay space
                await self._wait(self.WAKE_WINDOW)
                continue
            frame, taken = out
            offset += taken
            await self._send(frame)

    async def recv(self, maxbytes: int) -> bytes:
        try:
            while (data := self.read(maxbytes)) is None:
                await self._wait(self.WAKE_RX)
        except AsyncSessionError as exc:
            # the socket contract: a dead stream reads as a transport error
            raise EOFError(str(exc)) from exc
        return data

    async def aclose(self, timeout: float = CLOSE_TIMEOUT) -> None:
        """Graceful close: FIN, then wait until the peer has acked it.

        Returns once the local direction is FINACKed — "the transfer
        completed" means the bytes are *there* — while the link lingers
        in the background until the peer's FIN, EOF or the deadline.
        """
        self.shutdown(_now() + timeout)
        try:
            await asyncio.wait_for(self._tx_closed(), timeout)
        except asyncio.TimeoutError:
            self.fail(AsyncSessionError(
                f"close timed out with {self._replay.size} bytes unacked"))
        if self._state == FAILED:
            raise AsyncSessionError(f"session failed: {self._failure}")

    def close(self) -> None:
        """Sync close (driver-stack compatible): starts the graceful one."""
        self.shutdown(_now() + CLOSE_TIMEOUT)

    def abort(self) -> None:
        """Hard kill of the *current transport* (not the session)."""
        if self._sock is not None:
            self._sock.abort()

    # -- waiters -----------------------------------------------------------
    async def _wait(self, what: str) -> None:
        """Park until the core's next ``wake(what)``.  The caller tested
        its condition with no ``await`` since, so clearing the event here
        cannot lose a wake-up."""
        event = self._waiters.get(what)
        if event is None:
            event = self._waiters[what] = asyncio.Event()
        event.clear()
        await event.wait()

    def wake(self, what: str) -> None:
        event = self._waiters.get(what)
        if event is not None:
            event.set()
        elif what == self.WAKE_LINK:
            self._link_changed()
        elif what == self.WAKE_CONTROL and self._owed and self._state == ACTIVE:
            # the first control frame owed starts the task that writes them
            self._waiters[what] = asyncio.Event()
            self._spawn(self._control_loop())

    async def _tx_closed(self) -> None:
        while not (self._tx_fin_acked or self.ended):
            await self._wait(self.WAKE_STATE)

    def _spawn(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _link_changed(self) -> None:
        state = self._state
        if state == ACTIVE:
            if self._timer is None:
                # a session shorter than one heartbeat never needs the task
                self._timer = asyncio.get_running_loop().call_later(
                    self.config.heartbeat,
                    lambda: self._spawn(self._heartbeat_loop()))
            self._spawn(self._pump(self._sock, self._gen))
            return
        if self._sock is not None:
            if state == FINISHED:
                self._sock.close()
            else:
                self._sock.abort()
        if state != RECOVERING:
            if self._timer is not None:
                self._timer.cancel()
            for task in self._tasks:
                task.cancel()
        elif self.role == self.INITIATOR:
            self._spawn(self._recovery())

    # -- the writers: callers (send_all) and the control loop ----------------
    async def _send(self, data: bytes) -> bool:
        """Write ``data`` to the current link, one writer at a time; False
        when that link was replaced while waiting for the turn (the
        recovery replays) or died under the write."""
        gen = self._gen
        while self._sending:
            await self._wait(_WAKE_TX)
        if gen != self._gen:
            return False
        self._sending = True
        try:
            try:
                await self._sock.send_all(data)
            finally:
                self._sending = False
                self.wake(_WAKE_TX)
        except _TRANSPORT_ERRORS as exc:
            self.transport_broken(gen, exc, _now())
            return False
        return True

    async def _control_loop(self) -> None:
        while not self.ended:
            frames = self.control_frames()
            if not frames:
                await self._wait(self.WAKE_CONTROL)
            elif await self._send(frames):
                self.control_sent()

    async def _heartbeat_loop(self) -> None:
        while not self.ended:
            self.tick(_now())
            await asyncio.sleep(self.config.heartbeat)

    # -- inbound pump ------------------------------------------------------
    async def _pump(self, sock: LiveSocket, gen: int) -> None:
        try:
            while gen == self._gen:
                data = await sock.recv(_READ_SIZE)
                if not data:
                    raise EOFError("transport closed by the peer")
                self.receive_data(data, _now(), gen)
        except SessionError:
            pass  # protocol violation: the core failed the session
        except _TRANSPORT_ERRORS as exc:
            self.transport_broken(gen, exc, _now())

    # -- recovery ----------------------------------------------------------
    async def _recovery(self) -> None:
        t0 = time.time()
        outcome = {"outcome": "failed", "error": "exhausted attempts"}
        # own span identity, parented on the stage/root span, so the
        # resume shows up as a child in the assembled cross-node tree
        span_ctx = self.ctx.child() if self.ctx is not None else None
        for attempt in range(self._max_attempts):
            if self._state != RECOVERING:
                return
            if attempt:
                await asyncio.sleep(RETRY_DELAY * attempt)
            sock = None
            try:
                sock = await asyncio.wait_for(self._dial(), HANDSHAKE_TIMEOUT)
                await self._resume_initiator(sock, span_ctx)
            except Exception as exc:
                outcome["error"] = f"{type(exc).__name__}: {exc}"
                if sock is not None:
                    sock.close()
                if isinstance(exc, _RETRYABLE):
                    continue
                break  # a dial that raises anything else will not improve
            outcome = {"outcome": "ok", "attempt": attempt}
            break
        obs.record_span(
            "session.resume", t0, time.time(), ctx=span_ctx, node=self.node,
            sid=f"{self.sid:016x}", role=self.role, **outcome,
        )
        if "error" in outcome:
            self.fail(AsyncSessionError(
                f"session {self.sid:016x} could not be resumed: "
                f"{outcome['error']}"))

    async def _resume_initiator(self, sock: LiveSocket, ctx) -> None:
        async def negotiate() -> Resume:
            await sock.send_all(self.resume_request(ctx))
            return decode_resume_ok(await sock.recv_exactly(RESUME_OK_SIZE))

        peer = await asyncio.wait_for(negotiate(), HANDSHAKE_TIMEOUT)
        await self._complete_resume(sock, peer, ctx)

    async def _reattach(self, sock: LiveSocket, peer: Resume) -> None:
        """Responder side: adopt the link a RESUME arrived on.

        Tolerates a session that never noticed the fault (silent stall):
        the surviving link is deliberately broken first.  An ended session
        adopts nothing: it answers, or raises and the link is dropped.
        """
        self.transport_broken(
            self._gen, SessionError("peer re-established"), _now())
        await self._complete_resume(
            sock, peer, peer.ctx.child() if peer.ctx is not None else None)

    async def _complete_resume(self, sock: LiveSocket, peer: Resume,
                               ctx) -> None:
        for frame in self.resume_frames(peer):
            await sock.send_all(frame)
        if self.ended:
            # finished: the peer lacked only the FINACK just repeated, and
            # hangs up on reading it; there is nothing to attach
            try:
                await asyncio.wait_for(_until_eof(sock), HANDSHAKE_TIMEOUT)
            finally:
                sock.close()
            return
        self._sock = sock
        self.attach(_now(), ctx)


async def _until_eof(sock: LiveSocket) -> None:
    while await sock.recv(_READ_SIZE):
        pass


class AsyncSessionListener:
    """Accepts session links; routes reconnects to the surviving session.

    Every accepted connection opens with ``RESUME``: a known session id is
    a reconnect and goes to that session, an unknown one at offset 0 is a
    new session and surfaces through :meth:`accept`, and an unknown one
    further in belongs to a session this listener never had — the
    connection is dropped, and the initiator's retries exhaust.  Ended
    sessions stay known until :meth:`close`, so a late redial is answered
    by the session it belongs to and its id is never taken for a new one.
    """

    def __init__(self, listener: LiveListener, node: str = "responder"):
        self.listener = listener
        self.node = node
        self.sessions: dict[int, AsyncSessionLink] = {}
        self._accepts: asyncio.Queue = asyncio.Queue()
        self._handshakes: set = set()
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
            task = asyncio.ensure_future(self._handshake(sock))
            self._handshakes.add(task)
            task.add_done_callback(self._handshakes.discard)

    async def _handshake(self, sock: LiveSocket) -> None:
        try:
            peer = decode_resume(await sock.recv_exactly(RESUME_SIZE))
            link = self.sessions.get(peer.sid)
            if link is not None:
                await link._reattach(sock, peer)
                return
            if peer.rx_off:
                raise SessionError(f"RESUME for unknown session {peer.sid:016x}")
            link = AsyncSessionLink(
                peer.sid, AsyncSessionLink.RESPONDER, node=self.node,
                ctx=obs.current())
            await link._reattach(sock, peer)
            self.sessions[peer.sid] = link
            self._accepts.put_nowait(link)
        except _RETRYABLE:
            sock.close()

    def close(self) -> None:
        self._task.cancel()
        for task in self._handshakes:
            task.cancel()
        self.listener.close()
        for link in list(self.sessions.values()):
            link.fail(AsyncSessionError("session listener closed"))
        self.sessions.clear()
