"""Received bytes go up by push: relay client > session > mux in one call.

A routed link and a session link hold what they receive in a core and
hand it to the one consumer attached to them (``links.feed``), inside
the call that received it: the relay client's reader feeds the session's
parser, which feeds the mux's.  Every case runs on both bindings
(``tests/dual.py``): two clients registered at one relay, on the
simulator and on loopback.
"""

import asyncio

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.runtime import SimRuntime
from repro.core.session import SessionError, SessionLink
from repro.core.session_core import SessionCore
from repro.livenet.mux import AsyncMuxEndpoint
from repro.livenet.session import AsyncSessionLink
from repro.mux import MuxCore, MuxEndpoint
from repro.mux.frames import MuxProtocolError
from repro.util.bytesbuf import joined
from repro.util.framing import WireError

from .. import dual


class SimPush(dual.SimRelay):
    session_class = SessionLink
    mux_class = MuxEndpoint

    def run(self, script, **kw):
        """The script, with every process the bindings spawn recorded."""
        self._spawned = []
        spawn = SimRuntime.spawn

        def recorded(runtime, coro, name):
            self._spawned.append(spawn(runtime, coro, name))
            return self._spawned[-1]

        SimRuntime.spawn = recorded
        try:
            return super().run(script, **kw)
        finally:
            SimRuntime.spawn = spawn

    def tasks(self):
        return [process.name for process in self._spawned
                if process.is_alive]


class LivePush(dual.LiveRelay):
    session_class = AsyncSessionLink
    mux_class = AsyncMuxEndpoint

    def tasks(self):
        return [task.get_name() for task in asyncio.all_tasks()]


HARNESSES = [SimPush, LivePush]


async def _no_redial(_session):
    raise AssertionError("this case never redials")


def _sessions(h, raw_a, raw_b, reconnect=_no_redial):
    """An initiator over ``raw_a`` and a responder over ``raw_b``, both
    attached: a session's first RESUME is not what is tested here."""
    cls = h.session_class
    return (cls(raw_a, 7, cls.INITIATOR, reconnect=reconnect),
            cls(raw_b, 7, cls.RESPONDER))


def _prefixed(bodies) -> bytes:
    return b"".join(len(body).to_bytes(4, "big") + body for body in bodies)


def _cut(data: bytes, cuts) -> list:
    points = sorted({c for c in cuts if 0 < c < len(data)})
    return [data[i:j] for i, j in zip([0, *points], [*points, len(data)])]


def _session_stream(pieces) -> bytes:
    """The session DATA frames that carry ``pieces``, one each, as a peer
    session writes them."""
    writer = SessionCore(7, SessionCore.INITIATOR)
    frames = []
    for piece in pieces:
        frame, taken = writer.write(piece)
        assert taken == len(piece)
        frames.append(joined(frame))
    return b"".join(frames)


class _Frames(MuxCore):
    """A mux parser that keeps the frame bodies it is fed."""

    def __init__(self):
        super().__init__(MuxCore.RESPONDER)
        self.bodies = []

    def feed(self, body):
        self.bodies.append(bytes(body))


@pytest.mark.parametrize("harness", HARNESSES)
class TestPushedFrames:
    @settings(max_examples=12, deadline=None)
    @given(bodies=st.lists(st.binary(min_size=1, max_size=200), min_size=1,
                           max_size=6),
           mux_cuts=st.lists(st.integers(1, 1200), max_size=6),
           routed_cuts=st.lists(st.integers(1, 1300), max_size=6))
    @example(bodies=[b"abc", b"defgh"], mux_cuts=[2, 9], routed_cuts=[1, 3])
    def test_a_frame_stream_cut_anywhere_is_fed_as_the_pump_reads_it(
            self, harness, bodies, mux_cuts, routed_cuts):
        """A mux frame stream, cut at arbitrary points (inside a length
        prefix too) into session DATA payloads whose frames are cut again
        into routed messages: the frames the push feeds are the frames, in
        order, that a pump reading ``recv_exactly(rx_need)`` off the same
        session gets."""
        stream = _prefixed(bodies)
        routed = _cut(_session_stream(_cut(stream, mux_cuts)), routed_cuts)

        async def script(h, a, b):
            pushed, pumped = _Frames(), _Frames()
            links = []
            for _ in range(2):
                link = await h.open(a, "node1")
                links.append((link, await h.accept(b)))
            (out_push, in_push), (out_pump, in_pump) = links
            session = h.session_class(in_push, 7, SessionLink.RESPONDER)
            session.push_to(pushed.receive_data, lambda exc: None)
            reader = h.session_class(in_pump, 8, SessionLink.RESPONDER)
            for message in routed:
                await h.send(out_push, message)
                await h.send(out_pump, message)
            while len(pumped.bodies) < len(bodies):
                pumped.receive_data(
                    await h.recv_exactly(reader, pumped.rx_need))
            await h.until(lambda: len(pushed.bodies) == len(bodies))
            return pushed.bodies, pumped.bodies

        assert harness().run(script) == (bodies, bodies)

    def test_what_the_split_frame_buffer_hands_on_survives_its_reuse(
            self, harness):
        """Session frames split across routed messages are finished in the
        session's one reused buffer; what a consumer is handed out of it
        and keeps stays what was sent (it is ``frozen``: a view of the
        buffer would change under it, or keep it from being reused)."""
        payloads = [bytes([i]) * (300 + 5000 * (i % 2)) for i in range(1, 7)]
        stream = _session_stream(payloads)
        routed = _cut(stream, range(97, len(stream), 2039))

        async def script(h, a, b):
            link = await h.open(a, "node1")
            session = h.session_class(await h.accept(b), 7,
                                      SessionLink.RESPONDER)
            kept = []
            session.push_to(kept.append, lambda exc: None)
            for message in routed:
                await h.send(link, message)
            await h.until(lambda: sum(map(len, kept)) == len(b"".join(payloads)))
            return [bytes(part) for part in kept]

        assert harness().run(script) == payloads


@pytest.mark.parametrize("harness", HARNESSES)
class TestPushFailures:
    @pytest.mark.parametrize("bad, error", [
        ((9).to_bytes(4, "big") + b"\xee" * 9, MuxProtocolError),  # no such kind
        (b"\xff\xff\xff\xff", WireError),  # a length past MAX_FRAME
    ], ids=["malformed", "oversized"])
    def test_a_bad_pushed_frame_fails_mux_and_session_and_the_reader_serves_on(
            self, harness, bad, error):
        """A bad mux frame pushed up from the relay client's reader fails
        the mux endpoint and the session under it, and nothing else: a
        second routed link on the same relay client keeps delivering."""
        async def script(h, a, b):
            out_a = await h.open(a, "node1")
            other = await h.open(a, "node1")
            in_a = await h.accept(b)
            other_in = await h.accept(b)
            ini, resp = _sessions(h, out_a, in_a)
            endpoint = h.mux_class(resp, MuxEndpoint.RESPONDER)
            endpoint._start_rx()
            await h.send(ini, bad)
            await h.until(lambda: not endpoint.alive)
            with pytest.raises(SessionError):
                resp.write(b"more")  # failed, or closed under the endpoint
            await h.send(other, b"still here")
            return (type(endpoint._error), await h.recv_exactly(other_in, 10),
                    b.connected)

        assert harness().run(script) == (error, b"still here", True)

    def test_a_fin_ahead_of_the_last_data_ends_the_mux_after_it(
            self, harness):
        """The peer's FIN can reach the session before the DATA it counts
        (a close from another task takes the write turn first): the end
        goes up right after that last payload, so the mux endpoint above
        takes the frame it carries and then fails with the carrier's EOF
        instead of waiting for more."""
        opener = MuxCore(MuxCore.INITIATOR)
        opens = []
        for tag in (b"first", b"last"):
            opener.open(tag)
            opens.append(_prefixed([joined(opener.next_frame())]))
        writer = SessionCore(7, SessionCore.INITIATOR)
        first, last = (joined(writer.write(payload)[0]) for payload in opens)
        writer.shutdown()
        closing = b"".join(iter(writer.control_frames, b""))

        async def script(h, a, b):
            link = await h.open(a, "node1")
            session = h.session_class(await h.accept(b), 7,
                                      SessionLink.RESPONDER)
            endpoint = h.mux_class(session, MuxEndpoint.RESPONDER)
            endpoint._start_rx()
            for message in (first, closing, last):
                await h.send(link, message)
            await h.until(lambda: not endpoint.alive, timeout=10)
            return ([bytes(channel.tag) for channel in endpoint._incoming],
                    type(endpoint._error))

        assert harness().run(script) == ([b"first", b"last"], EOFError)

    def test_a_routed_eof_starts_recovery_and_leaves_no_reader_parked(
            self, harness):
        """The peer closes the routed link under a session: the session's
        end of it reads the EOF as a pushed end and recovers (it redials);
        nothing is parked on the old link and no session pump exists."""
        async def script(h, a, b):
            redials = []

            async def redial(session):
                redials.append(session.state)
                await h.sleep(3600)

            link = await h.open(a, "node1")
            peer = await h.accept(b)
            ini, resp = _sessions(h, link, peer, reconnect=redial)
            peer.close()
            await h.until(lambda: redials)
            return (redials, ini.state, len(link._readers), link._push,
                    [n for n in h.tasks() if n.startswith("session-pump-")])

        assert harness().run(script) == (
            ["recovering"], "recovering", 0, None, [])

    def test_a_session_failure_fails_every_mux_channel(self, harness):
        """A session that fails under a mux endpoint hands it its failure
        as the end of the carrier: every channel's reader gets it, and no
        mux rx pump exists."""
        async def script(h, a, b):
            link = await h.open(a, "node1")
            ini, resp = _sessions(h, link, await h.accept(b))
            ends = await h.gather(
                h.mux_class.establish(ini, MuxEndpoint.INITIATOR),
                h.mux_class.establish(resp, MuxEndpoint.RESPONDER))
            pairs = [await h.gather(ends[0].open_channel(),
                                    ends[1].accept_channel())
                     for _ in range(2)]
            ini.fail(SessionError("the session failed"))
            errors = []
            for channel, _ in pairs:
                try:
                    await h.recv(channel, 1)
                except Exception as exc:
                    errors.append(type(exc))
            return (errors, ends[0].alive,
                    [n for n in h.tasks() if n.startswith("mux-rx:")])

        errors, alive, pumps = harness().run(script)
        assert len(errors) == 2 and not alive and pumps == []
