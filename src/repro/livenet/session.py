"""Survivable sessions over real sockets.

:mod:`repro.core.session_core` is the session protocol and
:class:`~repro.core.session.SessionLink` its binding — data path, control
and heartbeat loops, inbound push or pump, parking, the RESUME exchange
under its deadline, the initiator's recovery and the responder's
re-attach — for both backends.  :class:`AsyncSessionLink` names the
asyncio runtime and keeps what is establishment on real sockets, over
anything with the live socket surface (``send_all``/``recv``/
``recv_exactly``/``close``/``abort``: a ``LiveSocket``, a relay-routed
link), so the chaos harness can prove resume polarity against genuine
TCP faults (a proxy RST mid-stream) and not just simulated ones:

* :meth:`AsyncSessionLink.connect` dials and opens the link with
  ``RESUME`` for a fresh session id at offset 0, answered by
  ``RESUME_OK`` — one round trip, the same exchange every later
  reconnect repeats with the offsets reached by then;
* when the transport dies, the shared recovery redials (through whatever
  gateway the harness interposed) under :data:`REDIAL_POLICY`, one
  ``session.resume`` span per recovery; the responder parks until the
  reconnect arrives at its :class:`AsyncSessionListener`, which routes it
  to the surviving session by id.

A ``LiveIbis`` port with a ``session`` layer builds its sessions through
the shared factory instead, and resumes them the simulator's way: a
``sessres:<sid>`` service link and the node's data-request exchange.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from .. import obs
from ..core.retry import RetryPolicy
from ..core.runtime import ASYNCIO
from ..core.session import SessionLink, read_resume
from ..core.session_core import FAILED, SessionConfig, SessionError
from ..obs import next_id
from .transport import LiveListener, LiveSocket

__all__ = ["AsyncSessionLink", "AsyncSessionListener", "AsyncSessionError"]

#: per-attempt budget for the dial and for the RESUME/RESUME_OK exchange:
#: a gateway silently black-holing either must time the attempt out, not
#: hang the resume loop forever
HANDSHAKE_TIMEOUT = 3.0

#: how a :meth:`AsyncSessionLink.connect` session redials: eight attempts,
#: ≈ 1.5 s of backoff in all — loopback faults heal in milliseconds
REDIAL_POLICY = RetryPolicy(
    max_attempts=8, base_delay=0.05, multiplier=1.5, max_delay=0.5, jitter=0.0
)

#: how long a link closed with the sync :meth:`AsyncSessionLink.close`
#: may linger for its peer (``aclose`` takes its own)
CLOSE_TIMEOUT = 20.0

#: per read of the transport: more than one full DATA frame
_READ_SIZE = 1 << 17

#: what one failed RESUME exchange raises at the listener: a dead or
#: misbehaving transport, a missed deadline (an ``OSError`` too), a refusal
_RETRYABLE = (EOFError, OSError, SessionError)

_now = ASYNCIO.now


class AsyncSessionError(SessionError):
    """Session failure on the live backend (bad handshake, unrecoverable loss)."""


async def _task(steps):
    """Root of every task a session starts: per-layer attribution
    (``benchmarks/perf``) follows the file a task's coroutine is defined in.
    A task cancelled before its first step never awaits ``steps``, so the
    spawner closes ``steps`` once the task is done: unrun, not unawaited."""
    return await steps


class AsyncSessionLink(SessionLink):
    """One survivable byte stream; exposes the LiveSocket API."""

    error_class = AsyncSessionError
    runtime = ASYNCIO

    def __init__(self, *args, **kwargs):
        self._tasks: set = set()
        super().__init__(*args, **kwargs)

    @classmethod
    async def connect(
        cls,
        dial: Callable[[], Awaitable[LiveSocket]],
        node: str = "initiator",
        ctx=None,
        retry_policy: RetryPolicy = REDIAL_POLICY,
    ) -> "AsyncSessionLink":
        """Dial, open a new session on the link, return it connected;
        every recovery redials through ``dial`` under ``retry_policy``."""
        link = cls(
            None, next_id(), cls.INITIATOR,
            config=SessionConfig(resume_timeout=HANDSHAKE_TIMEOUT),
            reconnect=lambda _session: ASYNCIO.bounded(dial(), HANDSHAKE_TIMEOUT),
            retry_policy=retry_policy, ctx=ctx or obs.current(), node=node,
        )
        raw = await dial()
        try:
            await link._bounded_resume(raw, link._resume_initiator(raw, None))
        except SessionError as exc:
            raise AsyncSessionError(str(exc)) from exc
        link._start_loops()
        return link

    # -- the socket API ----------------------------------------------------
    def _read_error(self) -> Exception:
        """The socket contract: a dead stream reads as a transport error."""
        exc = super()._read_error()
        eof = EOFError(str(exc))
        eof.__cause__ = exc
        return eof

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
        task.add_done_callback(lambda _task: steps.close())  # see _task
        return task

    def _ended(self) -> None:
        super()._ended()
        for task in self._tasks:
            task.cancel()

    async def _read(self, raw):
        """As much as has arrived: reading exactly what the parser awaits
        costs ``rpc_routed`` ≈ 12 % of its round trip (measured, ISSUE 23)."""
        data = await raw.recv(_READ_SIZE)
        if not data:
            raise EOFError("transport closed by the peer")
        return data


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
            peer = await read_resume(sock)
            link = self.sessions.get(peer.sid)
            if link is not None:
                await link._reattach(sock, peer)
                return
            if peer.rx_off:
                raise SessionError(f"RESUME for unknown session {peer.sid:016x}")
            link = AsyncSessionLink(
                None, peer.sid, AsyncSessionLink.RESPONDER,
                config=SessionConfig(resume_timeout=HANDSHAKE_TIMEOUT),
                ctx=obs.current(), node=self.node)
            await link._reattach(sock, peer)
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
