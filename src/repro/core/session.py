"""Survivable sessions: mid-stream link recovery with offset negotiation.

The paper separates connection *establishment* from link *utilization*
(§3–§4), but an established link still dies with the one physical
connection it started on: a NAT table flush, a relay crash or an abrupt
peer drop mid-transfer severs the stream and the bytes in flight are
gone.  GridFTP answers this with restart markers and MPWide with
reconnecting wide-area paths; this module is the reproduction's version
of that cure.

:class:`SessionLink` wraps any established data :class:`~repro.core.links.Link`
with

* a session id and per-direction delivered-byte counters,
* a bounded replay buffer of unacknowledged bytes, trimmed by periodic
  cumulative acks carried on the same stream (control frames interleave
  with data frames),
* transparent re-establishment on transport error: the initiator re-runs
  the decision-tree factory (through the shared
  :class:`~repro.core.retry.RetryPolicy` backoff), sends
  ``RESUME <sid, rx_off>``, the responder's :class:`SessionRegistry`
  re-attaches the surviving session state, both sides trim their replay
  buffers to the peer's delivered offset and retransmit the rest.

The logical stream above (a utilization driver stack, an IPL port
channel) never observes the fault — ``send_all``/``recv`` simply stall
during recovery and the byte stream resumes exactly where it broke, so
delivery stays byte-identical and FIFO.

The protocol itself — wire format, replay and ack arithmetic, close,
heartbeat and watchdog — lives in :mod:`repro.core.session_core`; this
module is its one binding, written as generator-based coroutines over
:mod:`repro.core.runtime`: the tasks that move bytes between the link and
the core (the inbound pump; the writers — callers and the control loop —
taking turns on the raw link), the heartbeat timer, the parking of callers
until the core wakes them, and the RESUME exchange under its deadline.
Re-establishment is per backend: here the simulator's, under the retry
policy and through the node's :class:`SessionRegistry`;
:mod:`repro.livenet.session` names the asyncio runtime and redials real
sockets.
"""

from __future__ import annotations

from types import coroutine
from typing import Callable, Generator, Optional

from .. import obs
from ..obs import TraceContext
from ..obs.flight import FlightRecorder
from .links import Link, transport_errors
from .retry import RetryPolicy, retrying
from .runtime import Bound
from .session_core import (
    ACTIVE,
    FINISHED,
    MAX_CHUNK,
    RECOVERING,
    RESUME_OK_SIZE,
    RESUME_SIZE,
    ReplayBuffer,
    Resume,
    SessionConfig,
    SessionCore,
    SessionError,
    decode_resume,
    decode_resume_ok,
)

__all__ = [
    "SessionLink",
    "SessionError",
    "SessionConfig",
    "SessionRegistry",
    "ReplayBuffer",
    "RESUME_POLICY",
    "MAX_CHUNK",
]

#: backoff for re-running establishment after a mid-stream fault; total
#: nominal delay ~15s so recovery outlives short outages but exhausts
#: well inside a chaos run's drain window
RESUME_POLICY = RetryPolicy(
    max_attempts=6, base_delay=0.5, multiplier=2.0, max_delay=8.0, jitter=0.25
)

#: binding-private wake kind: the raw link is free for the next writer
_WAKE_TX = "tx"


class SessionLink(Bound, SessionCore, Link):
    """A logical stream that survives the death of its physical link.

    ``reconnect`` (initiator only) is a generator ``reconnect(session) ->
    Link`` that re-runs establishment to the same peer; the responder
    side is passive and re-attached through its node's
    :class:`SessionRegistry`.
    """

    def __init__(
        self,
        raw: Link,
        sid: int,
        role: str,
        config: Optional[SessionConfig] = None,
        reconnect: Optional[Callable[["SessionLink"], Generator]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        peer: str = "",
        ctx: Optional[TraceContext] = None,
        node: str = "",
        flight: Optional[FlightRecorder] = None,
    ):
        if role == self.INITIATOR and reconnect is None:
            raise ValueError("initiator sessions need a reconnect callable")
        self._reconnect = reconnect
        self._retry_policy = retry_policy or RESUME_POLICY
        self._resume_ctx: Optional[TraceContext] = None
        self._registry: Optional["SessionRegistry"] = None
        self._bind(raw)
        SessionCore.__init__(self, sid, role, config, now=self.runtime.now(),
                             peer=peer, ctx=ctx, node=node, flight=flight)
        self._start_pump()
        self._start_loops()

    def _bind(self, raw: Optional[Link]) -> None:
        """The binding's own state, around the core's."""
        self._raw = raw
        #: a writer holds the raw link; the others park on ``_WAKE_TX``
        self._sending = False
        #: wake kind -> whoever is parked on it
        self._waiters: dict = {}
        self._transport = transport_errors()

    def _start_loops(self) -> None:
        tag = f"{self.sid:x}-{self.role[0]}"
        self._spawn(self._control_loop(), f"session-ctl-{tag}")
        self._spawn(self._heartbeat_loop(), f"session-hb-{tag}")

    # -- metadata ----------------------------------------------------------------
    @property
    def sim(self):
        return self._raw.sim

    @property
    def method(self) -> str:  # type: ignore[override]
        return self._raw.method

    @property
    def native_tcp(self) -> bool:  # type: ignore[override]
        return self._raw.native_tcp

    @property
    def relayed(self) -> bool:  # type: ignore[override]
        return self._raw.relayed

    @property
    def raw(self) -> Link:
        """The current physical link (changes across recoveries)."""
        return self._raw

    # -- Link interface ----------------------------------------------------------
    @coroutine
    def send_all(self, data: bytes) -> Generator:
        view = memoryview(data)
        offset = 0
        while offset < len(view):
            out = self.write(view[offset:])
            if out is None:
                # recovering, or backpressure: acks must release replay space
                yield from self._wait(self.WAKE_WINDOW)
                continue
            frame, taken = out
            offset += taken
            yield from self._send(frame)

    @coroutine
    def recv(self, maxbytes: int) -> Generator:
        while (data := self.read(maxbytes)) is None:
            yield from self._wait(self.WAKE_RX)
        return data

    def close(self) -> None:
        """Graceful close: FIN at the current offset, then linger until the
        peer has everything (FINACK) and has finished its own direction."""
        self.shutdown()

    def abort(self) -> None:
        self.fail(SessionError("session aborted"))

    # -- waiters -----------------------------------------------------------------
    def _wait(self, what: str):
        """Park until the core's next ``wake(what)``."""
        return self.runtime.park(self._waiters, what)

    def wake(self, what: str) -> None:
        if what == self.WAKE_LINK:
            self._link_changed()
        self.runtime.unpark(self._waiters, what)

    def _link_changed(self) -> None:
        state = self._state
        if state == ACTIVE:
            self._start_pump()
            return
        if self._raw is not None:
            try:
                if state == FINISHED:
                    self._raw.close()
                else:
                    self._raw.abort()
            except Exception:
                pass
        if state != RECOVERING:
            self._ended()
        elif self.role == self.INITIATOR:
            self._spawn(self._recovery(), f"session-recover-{self.sid:x}")

    def _ended(self) -> None:
        """Finished or failed: leave whatever kept the session reachable."""
        if self._registry is not None:
            self._registry.remove(self.sid)

    # -- the writers: callers (send_all) and the control loop ----------------------
    @coroutine
    def _send(self, data: bytes) -> Generator:
        """Write ``data`` to the current link, one writer at a time; False
        when that link was replaced while waiting for the turn (the
        recovery replays) or died under the write."""
        gen = self._gen
        while self._sending:
            yield from self._wait(_WAKE_TX)
        if gen != self._gen:
            return False
        self._sending = True
        try:
            try:
                yield from self._raw.send_all(data)
            finally:
                self._sending = False
                self.wake(_WAKE_TX)
        except self._transport as exc:
            self.transport_broken(gen, exc, self.runtime.now())
            return False
        return True

    @coroutine
    def _control_loop(self) -> Generator:
        while not self.ended:
            frames = self.control_frames()
            if not frames:
                yield from self._wait(self.WAKE_CONTROL)
            elif (yield from self._send(frames)):
                self.control_sent()

    @coroutine
    def _heartbeat_loop(self) -> Generator:
        hb = self.config.heartbeat
        while not self.ended:
            yield from self.runtime.sleep(hb)
            self.tick(self.runtime.now())

    # -- inbound pump ------------------------------------------------------------
    def _start_pump(self) -> None:
        self._spawn(
            self._pump(self._raw, self._gen),
            f"session-pump-{self.sid:x}-{self.role[0]}-g{self._gen}")

    def _read(self, raw: Link) -> Generator:
        """The pump's next read.  Exactly what the parser awaits, never
        past a frame: with a larger read the simulated TCP sees different
        reads and ``wan_transfer`` + ``link_down`` moves 23 timestamps
        (measured, ISSUE 23)."""
        return raw.recv_exactly(self.rx_need)

    @coroutine
    def _pump(self, raw: Link, gen: int) -> Generator:
        now = self.runtime.now
        try:
            while gen == self._gen:
                data = yield from self._read(raw)
                self.receive_data(data, now(), gen)
        except SessionError:
            pass  # protocol violation: the core failed the session
        except self._transport as exc:
            self.transport_broken(gen, exc, now())

    # -- recovery ----------------------------------------------------------------
    def _recovery(self) -> Generator:
        # Each recovery is one child span of the session's originating
        # trace; the same ctx rides the re-establishment handshake and the
        # RESUME frame so relay/responder records join the tree.
        resume_ctx = self.ctx.child() if self.ctx is not None else None
        self._resume_ctx = resume_ctx  # ``reconnect`` dials under it
        with obs.span(
            "session.resume",
            ctx=resume_ctx,
            node=self.node or None,
            sid=f"{self.sid:016x}",
            role=self.role,
        ) as span:
            retry_on = self._transport + (
                TimeoutError,
                SessionError,
                _establishment_errors(),
            )

            def attempt(_i: int) -> Generator:
                if self._state != RECOVERING:
                    raise _ResumeAborted("session no longer recovering")
                raw = yield from self._reconnect(self)
                yield from self._bounded_resume(
                    raw, self._resume_initiator(raw, resume_ctx))

            try:
                yield from retrying(
                    self.runtime,
                    attempt,
                    self._retry_policy,
                    retry_on=retry_on,
                    key=f"session:{self.sid:x}",
                    name="session.reconnect",
                )
            except _ResumeAborted:
                span.set(outcome="aborted")
                return
            except Exception as exc:
                span.set(outcome="failed")
                self.fail(
                    SessionError(f"session {self.sid:016x} could not be resumed")
                )
                obs.event(
                    "session.resume_exhausted",
                    sid=f"{self.sid:016x}",
                    error=f"{type(exc).__name__}: {exc}",
                )
                return
            span.set(outcome="ok")

    @coroutine
    def _bounded_resume(self, raw: Link, steps: Generator) -> Generator:
        """Run one side's resume over ``raw`` under ``resume_timeout``;
        a link that did not become the session's is aborted."""
        try:
            yield from self.runtime.bounded(steps, self.config.resume_timeout)
        except BaseException:
            try:
                raw.abort()
            except Exception:
                pass
            raise

    @coroutine
    def _resume_initiator(self, raw: Link, ctx) -> Generator:
        yield from raw.send_all(self.resume_request(ctx))
        peer = decode_resume_ok((yield from raw.recv_exactly(RESUME_OK_SIZE)))
        yield from self._complete_resume(raw, peer, ctx)

    def _resume_responder(self, raw: Link) -> Generator:
        peer = decode_resume((yield from raw.recv_exactly(RESUME_SIZE)))
        if peer.sid != self.sid:
            raise SessionError(f"bad RESUME (sid {peer.sid:016x})")
        yield from self._complete_resume(
            raw, peer, peer.ctx.child() if peer.ctx is not None else None)

    @coroutine
    def _complete_resume(self, raw: Link, peer: Resume, ctx) -> Generator:
        for frame in self.resume_frames(peer):
            yield from raw.send_all(frame)
        self._raw = raw
        self.attach(self.runtime.now(), ctx)

    def _reattach(self, raw: Link) -> Generator:
        """Responder side: adopt a re-established link (from the registry).

        Tolerates a session that never noticed the fault (silent stall):
        the surviving link is deliberately broken first.
        """
        if self.ended:
            raise SessionError(f"session {self.sid:016x} is {self._state}")
        self.transport_broken(
            self._gen, SessionError("peer re-established"), self.runtime.now())
        try:
            yield from self._bounded_resume(raw, self._resume_responder(raw))
        except BaseException as exc:
            obs.event(
                "session.reattach_failed",
                sid=f"{self.sid:016x}",
                error=f"{type(exc).__name__}: {exc}",
            )
            # stay in RECOVERING: the initiator retries


class _ResumeAborted(Exception):
    """Internal: recovery loop noticed the session is no longer recovering."""


def _establishment_errors():
    from .brokering import EstablishmentError

    return EstablishmentError


class SessionRegistry:
    """Per-node session table: tracks live sessions and serves re-attachment.

    The initiator of a broken session opens a routed link tagged
    ``sessres:<sid>`` to the responder's node; the registry's accept loop
    runs the establishment responder over it and hands the resulting raw
    link back to the surviving :class:`SessionLink`.
    """

    def __init__(self, node) -> None:
        self.node = node
        self.sim = node.sim
        self._sessions: dict[int, SessionLink] = {}
        self._acceptor = None
        self._closed = False

    def add(self, session: SessionLink) -> None:
        self._sessions[session.sid] = session
        session._registry = self
        if session.role == SessionLink.RESPONDER:
            self.ensure_acceptor()

    def get(self, sid: int) -> Optional[SessionLink]:
        return self._sessions.get(sid)

    def remove(self, sid: int) -> None:
        self._sessions.pop(sid, None)

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self):
        return iter(list(self._sessions.values()))

    def ensure_acceptor(self) -> None:
        if self._acceptor is None and not self._closed:
            self._acceptor = self.sim.process(
                self._accept_loop(), name=f"session-acceptor-{self.node.node_id}"
            )

    def close(self) -> None:
        """Node shutdown: abort whatever is still alive."""
        self._closed = True
        for session in list(self._sessions.values()):
            session.abort()
        self._sessions.clear()

    def _accept_loop(self) -> Generator:
        from .dispatch import RESUME_PREFIX

        while not self._closed:
            service = yield from self.node.dispatcher.accept_resume()
            try:
                sid = int(service.open_payload[len(RESUME_PREFIX) :], 16)
            except ValueError:
                service.close()
                continue
            self.sim.process(
                self._serve(sid, service), name=f"session-reattach-{sid:x}"
            )

    def _serve(self, sid: int, service) -> Generator:
        session = self._sessions.get(sid)
        if session is None or session.ended:
            obs.event("session.resume_unknown", sid=f"{sid:016x}")
            service.close()
            return
        try:
            raw = yield from self.node.broker.respond(service)
        except Exception as exc:
            obs.event(
                "session.reattach_failed",
                sid=f"{sid:016x}",
                error=f"{type(exc).__name__}: {exc}",
            )
            service.close()
            return
        service.close()
        yield from session._reattach(raw)
