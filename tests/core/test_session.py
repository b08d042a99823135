"""Survivable sessions: one set of scripts over both bindings.

The protocol-level cases (``*Cases``) are scripts written once against
the harness in ``tests/dual.py`` and run over both bindings:
``TestSessionLink`` / ``TestReplayRetune`` on the simulator's
:class:`~repro.core.session.SessionLink` over an in-memory pipe, so
faults are injected with byte precision — no network stack in the way —
and their ``...Live`` twins on
:class:`~repro.livenet.session.AsyncSessionLink` over real loopback
sockets.  The protocol itself is tested without either in
``tests/session/test_core.py``; the end-to-end recovery matrix (real
middleboxes, real faults) lives in ``tests/chaos/test_resume.py`` and
``tests/core/test_middlebox_matrix.py``.
"""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.links import Link
from repro.core.retry import RetryPolicy
from repro.core.session import (
    MAX_CHUNK,
    ReplayBuffer,
    SessionConfig,
    SessionError,
    SessionLink,
)
from repro.livenet import (
    AsyncSessionLink,
    AsyncSessionListener,
    live_connect,
    live_listen,
)
from repro.simnet.engine import Simulator
from repro.simnet.tcp import TcpError
from repro.tune.knobs import StackKnobs

from .. import dual


class _PipeEnd(Link):
    """Half of an in-memory duplex pipe with injectable faults.

    ``break_both`` severs the pipe with a transport error (both ends see
    it); ``silent = True`` swallows outbound bytes without erroring —
    the shape of a middlebox eating packets.
    """

    method = "pipe"
    native_tcp = True

    def __init__(self, sim, delay: float = 0.05):
        self._simulator = sim
        self._delay = delay
        self.peer: "_PipeEnd" = None  # type: ignore[assignment]
        self._buf = bytearray()
        self._waiters: list = []
        self._broken = None
        self._eof = False
        self.silent = False

    @property
    def sim(self):
        return self._simulator

    def send_all(self, data: bytes):
        if self._broken is not None:
            raise self._broken
        yield self._simulator.timeout(self._delay)
        if self._broken is not None:
            raise self._broken
        if self.silent:
            return
        if self.peer._broken is not None or self.peer._eof:
            raise EOFError("pipe peer is gone")
        self.peer._buf.extend(data)
        self.peer._wake()

    def recv(self, maxbytes: int):
        while True:
            if self._buf:
                take = bytes(self._buf[:maxbytes])
                del self._buf[: len(take)]
                return take
            if self._broken is not None:
                raise self._broken
            if self._eof:
                return b""
            ev = self._simulator.event()
            self._waiters.append(ev)
            yield ev

    def _wake(self, exc=None) -> None:
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            if exc is not None:
                ev.fail(exc)
                ev.defused = True
            else:
                ev.succeed()

    def close(self) -> None:
        self._eof = True
        self._wake()
        if self.peer is not None and not self.peer._eof:
            self.peer._eof = True
            self.peer._wake()

    def abort(self) -> None:
        exc = EOFError("pipe aborted")
        self._broken = exc
        self._wake(exc)
        if self.peer is not None and self.peer._broken is None:
            self.peer._eof = True
            self.peer._wake()

    def break_both(self, exc=None) -> None:
        exc = exc or TcpError("pipe severed")
        for end in (self, self.peer):
            end._broken = exc
            end._wake(exc)


def _pipe_pair(sim) -> tuple[_PipeEnd, _PipeEnd]:
    a, b = _PipeEnd(sim), _PipeEnd(sim)
    a.peer, b.peer = b, a
    return a, b


_FAST_RETRY = RetryPolicy(
    max_attempts=4, base_delay=0.05, multiplier=1.5, max_delay=0.2, jitter=0.0
)

_CONFIG = SessionConfig(ack_every=4096, max_buffer=1 << 16, heartbeat=0.5)

_SID = 0xD0C


class SimSessions(dual.SimHarness):
    """Scripts get ``(h, initiator session, responder session)`` over an
    in-memory pipe; every reconnect builds a fresh pipe and hands the far
    end to the responder's ``_reattach`` — the same shape the factory
    layer provides over the real network."""

    def run(self, script, *, config=_CONFIG, until=600):
        self.config = config
        self.refuse = False
        return super().run(script, until=until)

    def setup(self):
        sim = Simulator()
        a, b = _pipe_pair(sim)
        self.responder = SessionLink(
            b, sid=_SID, role=SessionLink.RESPONDER, config=self.config)

        def reconnect(_session):
            if self.refuse:
                raise TcpError("no path to peer")
            na, nb = _pipe_pair(sim)
            sim.process(self.responder._reattach(nb), name="test-reattach")
            return na
            yield  # pragma: no cover - makes this a generator

        initiator = SessionLink(
            a, sid=_SID, role=SessionLink.INITIATOR, config=self.config,
            reconnect=reconnect, retry_policy=_FAST_RETRY)
        return sim, initiator, self.responder

    @staticmethod
    def break_link(link):
        link.raw.break_both()

    @staticmethod
    def mute(link):
        """This end's outbound bytes vanish without an error."""
        link.raw.silent = True

    def refuse_reconnects(self):
        self.refuse = True

    def forget(self, responder):
        """The responder's node loses the session: the next reconnect
        meets a fresh one that has delivered nothing."""
        _, b = _pipe_pair(self.sim)
        self.responder = SessionLink(
            b, sid=_SID, role=SessionLink.RESPONDER, config=self.config)


class _MutableSock:
    """A live socket whose outbound bytes can be swallowed without an
    error — the shape of a middlebox eating packets."""

    def __init__(self, sock):
        self._sock = sock
        self.silent = False

    async def send_all(self, data):
        if not self.silent:
            await self._sock.send_all(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _MutableListener:
    def __init__(self, listener):
        self._listener = listener
        self.addr = listener.addr

    async def accept(self):
        return _MutableSock(await self._listener.accept())

    def close(self):
        self._listener.close()


class LiveSessions(dual.LiveHarness):
    """Scripts get ``(h, initiator session, responder session)`` over
    loopback TCP; reconnects redial the same listener."""

    def run(self, script, *, config=_CONFIG, until=None):
        self.config = config
        self.refuse = False
        return super().run(script)

    @contextlib.asynccontextmanager
    async def setup(self):
        listener = await live_listen()
        self.listener = AsyncSessionListener(_MutableListener(listener))

        async def dial():
            if self.refuse:
                raise ConnectionRefusedError("no path to peer")
            return _MutableSock(await live_connect(listener.addr))

        initiator = await AsyncSessionLink.connect(
            dial, node="ini", max_attempts=4)
        responder = await self.listener.accept()
        initiator.config = responder.config = self.config
        try:
            yield (initiator,), (responder,)
        finally:
            initiator.fail(SessionError("test over"))
            self.listener.close()

    @staticmethod
    def break_link(link):
        link.abort()

    @staticmethod
    def mute(link):
        link._raw.silent = True

    def refuse_reconnects(self):
        self.refuse = True

    def forget(self, responder):
        del self.listener.sessions[responder.sid]


@pytest.fixture
def sessions(request):
    return request.cls.harness()


async def _drain(h, rx) -> bytes:
    chunks = []
    while (data := await h.recv(rx, 65536)):
        chunks.append(data)
    return b"".join(chunks)


async def _transfer(h, tx, rx, payload: bytes, chunk: int = 1 << 15,
                    before=None) -> bytes:
    """Stream ``payload`` over ``tx`` in ``chunk``-sized writes (``before(i)``
    runs ahead of write ``i``), close, and return what ``rx`` received
    before it closed in turn."""
    async def sender():
        for i, off in enumerate(range(0, len(payload), chunk)):
            if before is not None:
                await before(i)
            await h.send(tx, payload[off : off + chunk])
        tx.close()

    async def receiver():
        got = await _drain(h, rx)
        rx.close()
        return got

    _, got = await h.gather(sender(), receiver())
    return got


def _both_finished(ini, res):
    return lambda: ini.state == "finished" and res.state == "finished"


class SessionLinkCases:
    def test_round_trip_and_graceful_close(self, sessions):
        payload = bytes(range(256)) * 300

        async def script(h, ini, res):
            got = await _transfer(h, ini, res, payload)
            await h.until(_both_finished(ini, res))
            return got, ini.reconnects

        assert sessions.run(script) == (payload, 0)

    def test_one_large_write_is_chunked_and_delivered(self, sessions):
        # no frame the peer's own parser would reject can be produced:
        # 70 000 B is just past the old live frame cap, 1 MiB far past it
        async def script(h, ini, res):
            for size in (70_000, 1 << 20):
                payload = bytes(range(251)) * (size // 251 + 1)
                _, got = await h.gather(
                    h.send(ini, payload[:size]), h.recv_exactly(res, size))
                assert got == payload[:size]
            return ini.reconnects, res.reconnects

        assert sessions.run(script) == (0, 0)

    def test_mid_stream_break_is_survived_and_replayed(self, sessions):
        payload = bytes(range(256)) * 2000  # 16 writes of 32 KiB

        async def script(h, ini, res):
            async def before(i):
                if i == 3:
                    h.mute(ini)  # this write is lost with the link ...
                if i == 4:
                    h.break_link(ini)  # ... so the resume must replay it

            got = await _transfer(h, ini, res, payload, before=before)
            await h.until(_both_finished(ini, res))
            return got, ini.reconnects, res.reconnects, ini.replayed_bytes

        got, ini_reconnects, res_reconnects, replayed = sessions.run(script)
        assert got == payload
        assert (ini_reconnects, res_reconnects) == (1, 1)
        assert replayed > 0

    def test_repeated_breaks_each_resume(self, sessions):
        payload = bytes(range(256)) * 2000

        async def script(h, ini, res):
            async def before(i):
                if i in (3, 7, 11):
                    h.break_link(ini)

            got = await _transfer(h, ini, res, payload, before=before)
            return got, ini.reconnects

        assert sessions.run(script) == (payload, 3)

    def test_silent_stall_trips_the_watchdog(self, sessions):
        payload = bytes(range(256)) * 2000

        async def script(h, ini, res):
            async def trip():
                await h.sleep(1.0)  # the sender runs into the silence
                # no transport error will ever come: only the clock can
                # tell, and the clock is an input
                ini.tick(h.now() + ini.config.dead_after)

            async def before(i):
                # Muted from the sender's own turn, not from a poller that
                # a fast loopback transfer can outrun.  Write 3 was admitted
                # to the 64 KiB replay buffer, so more than 32 KiB is acked;
                # from here nothing more can be, so at most two further
                # writes fit and the rest of the payload must wait for the
                # watchdog to redial.
                if i == 4:
                    assert ini.acked_tx > 1 << 15
                    h.mute(ini)
                    h.mute(res)
                    h.spawn(trip())

            got = await _transfer(h, ini, res, payload, before=before)
            return got, ini.reconnects

        got, reconnects = sessions.run(script)
        assert got == payload
        assert reconnects >= 1  # the watchdog, not a transport error

    def test_break_during_close_still_finishes(self, sessions):
        # The FIN itself must survive recovery: sever the link after the
        # sender has closed but (possibly) before the FINACK round-trips.
        payload = b"tail" * 10_000

        async def script(h, ini, res):
            async def sender():
                await h.send(ini, payload)
                ini.close()
                h.break_link(ini)

            async def receiver():
                got = await _drain(h, res)
                res.close()
                return got

            _, got = await h.gather(sender(), receiver())
            await h.until(_both_finished(ini, res))
            return got

        assert sessions.run(script) == payload

    def test_resume_exhaustion_fails_the_session(self, sessions):
        async def script(h, ini, res):
            h.refuse_reconnects()
            h.break_link(ini)
            with pytest.raises(SessionError):
                for _ in range(8):
                    await h.send(ini, b"x" * 25_000)
            await h.until(lambda: ini.state == "failed")

        sessions.run(script)

    def test_resume_below_the_replay_window_start_fails_typed(self, sessions):
        # The peer lost its state: it would resume at an offset whose bytes
        # were acknowledged and dropped long ago.  Replaying from what is
        # left would silently skip them; the session must fail instead.
        async def script(h, ini, res):
            h.spawn(_drain(h, res))
            await h.send(ini, b"x" * 50_000)
            await h.until(lambda: ini.acked_tx > 0)
            h.forget(res)
            h.break_link(ini)
            with pytest.raises(SessionError):
                for _ in range(8):
                    await h.send(ini, b"y" * 25_000)
            await h.until(lambda: ini.state == "failed")
            return str(ini._failure)

        assert "below the replay window start" in sessions.run(script)

    def test_send_after_close_raises(self, sessions):
        async def script(h, ini, res):
            await _transfer(h, ini, res, b"done")
            with pytest.raises(SessionError):
                await h.send(ini, b"more")

        sessions.run(script)

    def test_backpressure_bounds_the_replay_buffer(self, sessions):
        payload = bytes(range(256)) * 2000
        high_water: list[int] = []

        async def script(h, ini, res):
            async def before(i):
                high_water.append(ini._replay.size)

            return await _transfer(h, ini, res, payload, chunk=8192,
                                   before=before)

        assert sessions.run(script) == payload
        assert max(high_water) <= _CONFIG.max_buffer + MAX_CHUNK


class ReplayRetuneCases:
    """Tuner-driven mid-stream resize of the replay-window bound."""

    @staticmethod
    def _quiet(max_buffer: int) -> SessionConfig:
        return SessionConfig(ack_every=2048, max_buffer=max_buffer,
                             heartbeat=30.0)

    def test_growth_wakes_a_blocked_sender(self, sessions):
        payload = bytes(range(256)) * 4096  # 1 MiB, >> the window

        async def script(h, ini, res):
            h.spawn(h.send(ini, payload))
            h.spawn(_drain(h, res))
            await h.until(lambda: ini.acked_tx >= 4 * MAX_CHUNK)
            # Silence the responder's acks: the window can only drain by
            # having its bound grown, never by acknowledgement.
            h.mute(res)
            await h.sleep(1.0)
            stalled_at, acked_at = ini._replay.end, ini._replay.start
            assert ini._replay.size >= 8192
            await h.sleep(1.0)
            assert ini._replay.end == stalled_at  # genuinely parked
            # Shrink first: nothing is dropped and nothing is admitted.
            knobs = StackKnobs(session=ini)
            knobs.set("replay_buffer", 1024)
            await h.sleep(1.0)
            assert ini._replay.end == stalled_at
            # Grow well past the stalled window (each admitted chunk may
            # overshoot the bound by up to MAX_CHUNK).
            knobs.set("replay_buffer", ini._replay.size + 4 * MAX_CHUNK)
            assert knobs.get("replay_buffer") == ini.config.max_buffer
            await h.until(lambda: ini._replay.end > stalled_at)
            # The grown bound released the sender without any ack arriving.
            assert ini._replay.start == acked_at

        sessions.run(script, config=self._quiet(8192))

    def test_shrink_keeps_buffered_bytes(self, sessions):
        payload = bytes(range(256)) * 1024

        async def script(h, ini, res):
            async def before(i):
                if i == 2:
                    buffered = ini._replay.size
                    ini.set_max_buffer(4096)
                    assert ini.config.max_buffer == 4096
                    assert ini._replay.size == buffered  # nothing dropped

            return await _transfer(h, ini, res, payload, before=before)

        assert sessions.run(script, config=self._quiet(1 << 16)) == payload

    def test_retune_is_advertised_to_the_peer(self, sessions):
        payload = bytes(range(256)) * 1024

        async def script(h, ini, res):
            async def before(i):
                if i == 4:
                    # Retune mid-stream: the advisory RETUNE frame rides
                    # the active session.
                    ini.set_max_buffer(123456)

            await _transfer(h, ini, res, payload, before=before)
            return res.peer_max_buffer

        assert sessions.run(script, config=self._quiet(1 << 16)) == 123456

    def test_occupancy_signal_in_unit_range(self, sessions):
        async def script(h, ini, res):
            h.spawn(h.send(ini, bytes(64 * 1024)))
            await h.sleep(0.5)
            return ini.replay_occupancy

        assert 0.0 <= sessions.run(script, config=self._quiet(8192)) <= 1.0

    def test_rejects_nonpositive(self, sessions):
        async def script(h, ini, res):
            with pytest.raises(ValueError):
                ini.set_max_buffer(0)

        sessions.run(script)


class TestSessionLink(SessionLinkCases):
    harness = SimSessions


class TestReplayRetune(ReplayRetuneCases):
    harness = SimSessions


@pytest.mark.livenet
class TestSessionLinkLive(SessionLinkCases):
    harness = LiveSessions


@pytest.mark.livenet
class TestReplayRetuneLive(ReplayRetuneCases):
    harness = LiveSessions


class TestReplayBuffer:
    def test_basic_window(self):
        buf = ReplayBuffer()
        buf.append(b"hello")
        buf.append(b" world")
        assert (buf.start, buf.end, buf.size) == (0, 11, 11)
        assert buf.ack(5) == 5
        assert buf.unacked() == b" world"
        assert buf.ack(3) == 0  # stale ack: ignored
        assert buf.start == 5
        with pytest.raises(SessionError):
            buf.ack(12)

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.binary(min_size=0, max_size=64),
                st.floats(min_value=0.0, max_value=1.25),
            ),
            max_size=50,
        )
    )
    def test_bookkeeping_under_arbitrary_interleavings(self, ops):
        """The window is always the exact unacked suffix of the stream.

        Bytes are appended and acked in arbitrary interleavings (acks may
        be stale, current, or past the end); after every operation the
        buffer must equal ``stream[start:]``, ``end`` must equal the
        total bytes ever appended, and ``start`` must be monotone — the
        bookkeeping a resume relies on to replay exactly the gap.
        """
        buf = ReplayBuffer()
        stream = b""
        prev_start = 0
        for op in ops:
            if isinstance(op, bytes):
                buf.append(op)
                stream += op
            else:
                target = int(op * len(stream))
                if target > buf.end:
                    with pytest.raises(SessionError):
                        buf.ack(target)
                else:
                    before = buf.start
                    released = buf.ack(target)
                    assert released == max(0, target - before)
            assert buf.end == len(stream)
            assert buf.unacked() == stream[buf.start :]
            assert prev_start <= buf.start <= buf.end
            prev_start = buf.start

    @settings(max_examples=60, deadline=None)
    @given(
        chunks=st.lists(st.tuples(st.binary(max_size=40), st.integers(0, 9)),
                        max_size=8),
        tail=st.lists(st.binary(max_size=40), max_size=4),
    )
    def test_every_ack_offset_matches_the_bytearray_model(self, chunks, tail):
        """Chunks kept whole (each behind a header it skips) give what one
        front-trimmed bytearray gave, at every ack offset and for appends
        after it."""
        total = sum(len(chunk) for chunk, _ in chunks)
        for off in range(total + 1):
            buf, model = ReplayBuffer(), bytearray()
            for chunk, header in chunks:
                buf.append(b"h" * header + chunk, header)
                model += chunk
            assert buf.ack(off) == off
            del model[:off]
            assert buf.unacked() == bytes(model)
            for chunk in tail:
                buf.append(chunk)
                model += chunk
            assert (buf.start, buf.size, buf.end) == (
                off, len(model), off + len(model))
            assert buf.unacked() == bytes(model)
            assert buf.ack(buf.end) == len(model)
            assert (buf.size, buf.unacked()) == (0, b"")
