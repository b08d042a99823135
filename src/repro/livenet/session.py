"""Survivable sessions over real sockets.

:mod:`repro.core.session_core` is the session protocol and
:class:`~repro.core.session.SessionLink` its binding — data path, control
and heartbeat loops, inbound pump, parking, the RESUME exchange under its
deadline — for both backends.  :class:`AsyncSessionLink` names the asyncio
runtime and keeps what is establishment on real sockets, over anything
with the live socket surface (``send_all``/``recv``/``recv_exactly``/
``close``/``abort``: a ``LiveSocket``, a relay-routed link), so the chaos
harness can prove resume polarity against genuine TCP faults (a proxy RST
mid-stream) and not just simulated ones:

* :meth:`AsyncSessionLink.connect` dials and opens the link with
  ``RESUME`` for a fresh session id at offset 0, answered by
  ``RESUME_OK`` — one round trip, the same exchange every later
  reconnect repeats with the offsets reached by then;
* when the transport dies, the initiator redials (through whatever
  gateway the harness interposed) under a bounded retry loop, one
  ``session.resume`` span per recovery; the responder parks until the
  reconnect arrives at its :class:`AsyncSessionListener`, which routes it
  to the surviving session by id.
"""

from __future__ import annotations

import asyncio
import time
from types import coroutine
from typing import Awaitable, Callable, Optional

from .. import obs
from ..core.runtime import ASYNCIO
from ..core.session import SessionLink
from ..core.session_core import (
    FAILED,
    RECOVERING,
    RESUME_SIZE,
    Resume,
    SessionConfig,
    SessionCore,
    SessionError,
    decode_resume,
)
from ..obs import next_id
from .transport import LiveListener, LiveSocket

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

#: what one failed RESUME exchange raises, on either side (the initiator's
#: next attempt may still succeed): a dead or misbehaving transport, a
#: missed deadline (an ``OSError`` too), a refusal
_RETRYABLE = (EOFError, OSError, SessionError)

_now = ASYNCIO.now


class AsyncSessionError(SessionError):
    """Session failure on the live backend (bad handshake, unrecoverable loss)."""


async def _task(steps):
    """Root of every task a session starts: per-layer attribution
    (``benchmarks/perf``) follows the file a task's coroutine is defined in."""
    return await steps


class AsyncSessionLink(SessionLink):
    """One survivable byte stream; exposes the LiveSocket API."""

    error_class = AsyncSessionError
    runtime = ASYNCIO

    def __init__(
        self,
        sid: int,
        role: str,
        node: str = "?",
        dial: Optional[Callable[[], Awaitable[LiveSocket]]] = None,
        max_attempts: int = 8,
        ctx=None,
    ):
        self._dial = dial
        self._max_attempts = max_attempts
        self._tasks: set = set()
        self._bind(None)
        SessionCore.__init__(
            self, sid, role, SessionConfig(resume_timeout=HANDSHAKE_TIMEOUT),
            now=_now(), attached=False, ctx=ctx, node=node)

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
        raw = await dial()
        try:
            await link._bounded_resume(raw, link._resume_initiator(raw, None))
        except SessionError as exc:
            raise AsyncSessionError(str(exc)) from exc
        link._start_loops()
        return link

    # -- the socket API ----------------------------------------------------
    @coroutine
    def recv(self, maxbytes: int):
        try:
            return (yield from super().recv(maxbytes))
        except AsyncSessionError as exc:
            # the socket contract: a dead stream reads as a transport error
            raise EOFError(str(exc)) from exc

    async def aclose(self, timeout: float = CLOSE_TIMEOUT) -> None:
        """Graceful close: FIN, then wait until the peer has acked it.

        Returns once the local direction is FINACKed — "the transfer
        completed" means the bytes are *there* — while the link lingers
        in the background until the peer's FIN, EOF or the deadline.
        """
        self.shutdown(_now() + timeout)
        try:
            await self.runtime.bounded(self._tx_closed(), timeout)
        except TimeoutError:
            self.fail(AsyncSessionError(
                f"close timed out with {self._replay.size} bytes unacked"))
        if self._state == FAILED:
            raise AsyncSessionError(f"session failed: {self._failure}")

    def close(self) -> None:
        """Sync close (driver-stack compatible): starts the graceful one,
        which a silent peer cannot keep lingering past its deadline."""
        self.shutdown(_now() + CLOSE_TIMEOUT)

    def abort(self) -> None:
        """Hard kill of the *current transport* (not the session)."""
        if self._raw is not None:
            self._raw.abort()

    async def _tx_closed(self) -> None:
        while not (self._tx_fin_acked or self.ended):
            await self._wait(self.WAKE_STATE)

    def _spawn(self, steps, name: str):
        task = self.runtime.spawn(_task(steps), name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _ended(self) -> None:
        for task in self._tasks:
            task.cancel()

    @coroutine
    def _read(self, raw):
        """As much as has arrived: reading exactly what the parser awaits
        costs ``rpc_routed`` ≈ 12 % of its round trip (measured, ISSUE 23)."""
        data = yield from raw.recv(_READ_SIZE)
        if not data:
            raise EOFError("transport closed by the peer")
        return data

    # -- recovery ----------------------------------------------------------
    @coroutine
    def _recovery(self):
        t0 = time.time()
        outcome = {"outcome": "failed", "error": "exhausted attempts"}
        # own span identity, parented on the stage/root span, so the
        # resume shows up as a child in the assembled cross-node tree
        span_ctx = self.ctx.child() if self.ctx is not None else None
        for attempt in range(self._max_attempts):
            if self._state != RECOVERING:
                return
            if attempt:
                yield from self.runtime.sleep(RETRY_DELAY * attempt)
            try:
                raw = yield from self.runtime.bounded(
                    self._dial(), HANDSHAKE_TIMEOUT)
                yield from self._bounded_resume(
                    raw, self._resume_initiator(raw, span_ctx))
            except Exception as exc:
                outcome["error"] = f"{type(exc).__name__}: {exc}"
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

    async def _adopt(self, raw, peer: Resume) -> None:
        """Responder side: adopt the link a RESUME arrived on.

        Tolerates a session that never noticed the fault (silent stall):
        the surviving link is deliberately broken first.  An ended session
        adopts nothing: it answers — finished, the peer lacked only the
        FINACK repeated here, and hangs up on reading it — or raises and
        the link is dropped.
        """
        if self.ended:
            try:
                for frame in self.resume_frames(peer):
                    await raw.send_all(frame)
                await self.runtime.bounded(_until_eof(raw), HANDSHAKE_TIMEOUT)
            finally:
                raw.close()
            return
        self.transport_broken(
            self._gen, SessionError("peer re-established"), _now())
        await self._complete_resume(
            raw, peer, peer.ctx.child() if peer.ctx is not None else None)


async def _until_eof(raw) -> None:
    while await raw.recv(_READ_SIZE):
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
        self._task = ASYNCIO.spawn(self._accept_loop(), "session-accept")

    @property
    def addr(self):
        return self.listener.addr

    async def accept(self) -> AsyncSessionLink:
        """The next *new* session (reconnects never surface here)."""
        return await self._accepts.get()

    async def _accept_loop(self) -> None:
        while True:
            sock = await self.listener.accept()
            task = ASYNCIO.spawn(self._handshake(sock), "session-handshake")
            self._handshakes.add(task)
            task.add_done_callback(self._handshakes.discard)

    async def _handshake(self, sock: LiveSocket) -> None:
        try:
            peer = decode_resume(await sock.recv_exactly(RESUME_SIZE))
            link = self.sessions.get(peer.sid)
            if link is not None:
                await link._adopt(sock, peer)
                return
            if peer.rx_off:
                raise SessionError(f"RESUME for unknown session {peer.sid:016x}")
            link = AsyncSessionLink(
                peer.sid, AsyncSessionLink.RESPONDER, node=self.node,
                ctx=obs.current())
            await link._adopt(sock, peer)
            link._start_loops()
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
