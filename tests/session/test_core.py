"""SessionCore with no simulator and no event loop.

Two cores are wired back to back through a :class:`Wire` that holds the
bytes in flight, so every protocol decision (ack cadence, backpressure,
retune, close in every order, negotiation, watchdog) is tested as plain
function calls with time passed in by hand, and a hypothesis state machine
explores arbitrary interleavings — writes, fragment deliveries, cuts at any
byte, duplicate reconnects, retunes, closes, clock advances — against an
external model of what a byte stream must do.
"""

import copy
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import session_core as sc
from repro.core.session_core import (
    MAX_CHUNK,
    SessionConfig,
    SessionCore,
    SessionError,
    decode_resume,
    decode_resume_ok,
)
from repro.util.bytesbuf import joined
from repro.util.sizes import MIN_TAIL

CFG = SessionConfig(ack_every=1024, max_buffer=8192, heartbeat=1.0)

DATA, ACK, PING, PONG, FIN, FINACK, RESUME, RESUME_OK, RETUNE = range(1, 10)


class Core(SessionCore):
    """A core whose only binding is a log of what it was told to wake."""

    def __init__(self, *args, **kwargs):
        self.wakes = []
        super().__init__(*args, **kwargs)

    def wake(self, what):
        self.wakes.append(what)


def kinds(blob: bytes) -> list:
    """The frame kinds in a well-formed byte string, in order."""
    out, pos = [], 0
    while pos < len(blob):
        kind = blob[pos]
        out.append(kind)
        pos += 1 + sc._BODY_SIZE[kind]
        if kind == DATA:
            pos += struct.unpack_from("!I", blob, pos - 4)[0]
    return out


class Wire:
    """Both cores' link: the writes in flight, per direction, in order."""

    def __init__(self, config=CFG):
        self.now = 0.0
        self.a = Core(7, Core.INITIATOR, config)
        self.b = Core(7, Core.RESPONDER, config)
        #: writes heading *to* each core, oldest first
        self.flight = {self.a: [], self.b: []}
        #: the generation each core's reader was started for
        self.reader_gen = {self.a: 0, self.b: 0}

    def peer(self, core):
        return self.b if core is self.a else self.a

    def send(self, src, data: bytes):
        assert src.state == sc.ACTIVE, "a binding writes only to a live link"
        # a buffer list reaches the link as one write, as a socket joins it
        self.flight[self.peer(src)].append(bytes(joined(data)))

    def write(self, src, data: bytes) -> int:
        """What ``send_all`` does until it would park; returns bytes taken."""
        view, offset = memoryview(data), 0
        while offset < len(view):
            out = src.write(view[offset:])
            if out is None:
                break
            frame, taken = out
            offset += taken
            self.send(src, frame)
        return offset

    def shut(self, src):
        src.shutdown()

    def close(self, src):
        """``close`` and the control-loop turn its FIN leaves on."""
        src.shutdown()
        self.flush(src)

    def flush(self, src):
        """The control loop's turns, until nothing is owed."""
        sent = b""
        while (frames := src.control_frames()):
            self.send(src, frames)
            src.control_sent()
            sent += frames
        return sent

    def deliver(self, dst, nbytes=None):
        """Hand ``dst`` the oldest write in flight, or with ``nbytes`` just
        that many bytes of the stream, whatever frames they straddle."""
        queue = self.flight[dst]
        if nbytes is None:
            data = queue.pop(0)
        else:
            blob = b"".join(queue)
            data, rest = blob[:nbytes], blob[nbytes:]
            queue[:] = [rest] if rest else []
        dst.receive_data(data, self.now, self.reader_gen[dst])

    def pump(self):
        """Shuttle until both sides are quiet."""
        moved = True
        while moved:
            moved = False
            for core in (self.a, self.b):
                moved |= bool(self.flush(core))
                while self.flight[core]:
                    self.deliver(core)
                    moved = True

    def cut(self, *cores):
        """The link dies: bytes in flight are gone; ``cores`` notice."""
        for queue in self.flight.values():
            queue.clear()
        for core in cores or (self.a, self.b):
            core.transport_broken(core._gen, OSError("cut"), self.now)

    def resume(self):
        """One reconnect: RESUME / RESUME_OK, replay, attach."""
        a, b = self.a, self.b
        for queue in self.flight.values():
            queue.clear()
        for core in (a, b):  # an end that never noticed is told now
            core.transport_broken(core._gen, SessionError("re-established"),
                                  self.now)
        request = decode_resume(a.resume_request())
        assert request.sid == b.sid
        reply, *replay_b = b.resume_frames(request)
        replay_a = a.resume_frames(decode_resume_ok(reply))
        for core, frames in ((b, replay_b), (a, replay_a)):
            core.attach(self.now)
            self.reader_gen[core] = core._gen
            for frame in frames:
                self.send(core, frame)


def read_all(core) -> bytes:
    chunks = []
    while (chunk := core.read(1 << 20)):
        chunks.append(chunk)
    return b"".join(chunks)


def payload(n: int) -> bytes:
    return bytes(i * 7 % 251 for i in range(n))


class TestStream:
    def test_round_trip_both_ways(self):
        w = Wire()
        assert w.write(w.a, b"hello") == 5 and w.write(w.b, b"ok") == 2
        w.pump()
        assert w.b.read(100) == b"hello" and w.a.read(100) == b"ok"
        assert w.b.read(100) is None  # nothing yet, not EOF
        assert sc.SessionCore.WAKE_RX in w.b.wakes

    def test_a_write_is_one_frame_up_to_max_chunk_and_never_a_runt(self):
        w = Wire(SessionConfig(max_buffer=1 << 22))
        tail = MIN_TAIL
        for size, want in (
            (70_000, [MAX_CHUNK, 70_000 - MAX_CHUNK]),
            (MAX_CHUNK, [MAX_CHUNK]),  # a full frame of the layer above
            (MAX_CHUNK + 5, [MAX_CHUNK + 5 - tail, tail]),
            (2 * MAX_CHUNK + 70, [MAX_CHUNK, MAX_CHUNK + 70 - tail, tail]),
        ):
            data = payload(size)
            assert w.write(w.a, data) == size
            assert [len(f) - 5 for f in w.flight[w.b]] == want
            w.pump()
            assert read_all(w.b) == data

    def test_with_no_reverse_traffic_acks_follow_the_backstop(self):
        # ack= caps the backstop; without it a quarter of the replay bound
        for config, every in ((CFG, CFG.ack_every),
                              (SessionConfig(max_buffer=8192), 8192 // 4)):
            w = Wire(config)
            for _ in range(16):
                w.write(w.a, payload(every // 4))
            acks = []
            while w.flight[w.b]:
                w.deliver(w.b)
                acks.append(kinds(w.flush(w.b)))
            # one cumulative ack per backstop of delivered bytes, none between
            assert acks == [[], [], [], [ACK]] * 4
            w.pump()
            assert w.a.acked_tx == 4 * every

    def test_with_reverse_traffic_every_ack_rides_a_write(self):
        w = Wire(SessionConfig(max_buffer=1 << 20))
        backstop = w.b.config.ack_backstop(1 << 20)
        request, rounds = payload(3000), 200
        assert rounds * 3000 > 2 * backstop  # alone, b would have ACKed twice
        on_their_own = []
        for i in range(rounds):
            w.write(w.a, request)
            w.write(w.b, b"reply")  # b has something to say anyway
            assert kinds(w.flight[w.a][-1]) == ([ACK, DATA] if i else [DATA])
            for core in (w.b, w.a):
                while w.flight[core]:
                    w.deliver(core)
                on_their_own += kinds(w.flush(core))
        assert on_their_own == []
        w.write(w.a, b"last")  # a's turn to acknowledge b's last reply
        w.pump()
        assert w.b.acked_tx == rounds * 5
        # a lacks only the ACK of what b has received since its last reply
        assert w.a.acked_tx == (rounds - 1) * 3000

    def test_a_tick_acknowledges_what_no_write_has(self):
        w = Wire()
        w.write(w.a, payload(CFG.ack_every - 1))  # below the backstop
        w.pump()
        assert w.a.acked_tx == 0 and w.flush(w.b) == b""
        w.b.tick(0.1)
        assert kinds(w.flush(w.b)) == [ACK]
        w.pump()
        assert w.a.acked_tx == CFG.ack_every - 1
        w.b.tick(0.2)  # nothing new: nothing owed
        assert w.flush(w.b) == b""

    def test_after_a_resume_the_first_write_carries_the_ack(self):
        w = Wire()
        w.write(w.a, payload(500))
        w.pump()
        w.cut()
        w.resume()  # attach owes the ACK; the first write takes it along
        assert w.write(w.b, b"back") == 4
        assert kinds(w.flight[w.a][-1]) == [ACK, DATA]
        assert ACK not in kinds(w.flush(w.b))
        w.pump()
        assert w.a.acked_tx == 500 and read_all(w.a) == b"back"

    def test_backpressure_parks_the_writer_at_max_buffer(self):
        w = Wire()
        data = payload(3 * CFG.max_buffer)
        taken = w.write(w.a, data)
        assert CFG.max_buffer <= taken < CFG.max_buffer + MAX_CHUNK
        assert w.a.write(b"more") is None and w.a.replay_occupancy == 1.0
        w.a.wakes.clear()
        w.pump()  # delivery, then the acks come back
        assert Core.WAKE_WINDOW in w.a.wakes
        assert w.a.write(b"more") is not None

    def test_stale_generation_bytes_are_dropped(self):
        w = Wire()
        w.write(w.a, b"first")
        stale_gen, (frame,) = w.reader_gen[w.b], w.flight[w.b]
        w.cut()
        w.resume()
        w.b.receive_data(frame, w.now, stale_gen)  # the old pump, late
        w.pump()
        assert read_all(w.b) == b"first"  # once, from the replay

    def test_half_a_frame_from_the_dead_link_is_forgotten(self):
        w = Wire()
        w.write(w.a, payload(3000))
        w.deliver(w.b, 100)  # the header and some payload, then the cut
        assert w.b.rx_need == 3000 - 95
        w.cut()
        w.resume()
        assert w.b.rx_need == 1
        w.pump()
        assert read_all(w.b) == payload(3000)

    def test_use_after_close_or_failure_raises(self):
        w = Wire()
        w.close(w.a)
        with pytest.raises(SessionError, match="closed session"):
            w.a.write(b"x")
        w.b.fail(SessionError("boom"))
        with pytest.raises(SessionError):
            w.b.write(b"x")
        with pytest.raises(SessionError):
            w.b.read(10)


class TestRetune:
    def test_shrink_keeps_bytes_then_growth_wakes_the_writer(self):
        w = Wire()
        w.write(w.a, payload(6000))
        w.a.set_max_buffer(1024)
        assert w.a._replay.size == 6000  # nothing dropped
        assert w.a.write(b"x") is None  # draining: no new admissions
        w.a.wakes.clear()
        w.a.set_max_buffer(1 << 16)
        assert Core.WAKE_WINDOW in w.a.wakes and w.a.write(b"x") is not None

    def test_retune_is_advertised_once_and_only_when_active(self):
        w = Wire()
        w.a.set_max_buffer(4096)
        assert kinds(w.flush(w.a)) == [RETUNE]
        w.pump()
        assert w.b.peer_max_buffer == 4096
        w.cut()
        w.a.set_max_buffer(2048)  # recovering: advisory, not worth replaying
        w.resume()
        assert RETUNE not in kinds(w.flush(w.a))

    def test_rejects_nonpositive_and_ignores_no_change(self):
        w = Wire()
        with pytest.raises(ValueError):
            w.a.set_max_buffer(0)
        w.a.set_max_buffer(CFG.max_buffer)
        assert w.flush(w.a) == b""


def _close_orders(w: Wire, moves: tuple = ()):
    """Every order in which the two closes, the deliveries and each end's
    control-loop turns can still happen from ``w``; yields the wires on
    which nothing is left to do."""
    steps = []
    for name in ("a", "b"):
        core = getattr(w, name)
        if core._tx_fin is None and core.state == sc.ACTIVE:
            steps.append((w.shut, name))
        if w.flight[core]:
            steps.append((w.deliver, name))
        if core._owed and core.state == sc.ACTIVE:
            steps.append((w.flush, name))
    if not steps:
        yield w, moves
    for action, name in steps:
        nxt = copy.deepcopy(w)
        getattr(nxt, action.__name__)(getattr(nxt, name))
        yield from _close_orders(nxt, moves + (f"{action.__name__} {name}",))


class TestClose:
    def test_both_ends_finish_under_every_interleaving(self):
        """Two closes, two FINs, two FINACKs, in every causal order: both
        ends reach ``finished`` by protocol alone — no tick is ever needed."""
        ends = list(_close_orders(Wire()))
        assert len(ends) > 50  # the interleavings really were explored
        for w, moves in ends:
            assert (w.a.state, w.b.state) == (sc.FINISHED, sc.FINISHED), moves
            assert Core.WAKE_LINK in w.a.wakes and Core.WAKE_LINK in w.b.wakes

    def test_one_sided_close_lingers_for_the_peer(self):
        w = Wire()
        w.write(w.a, b"tail")
        w.close(w.a)
        w.pump()
        assert w.a._tx_fin_acked and w.a.state == sc.ACTIVE  # lingering
        assert read_all(w.b) == b"tail" and w.b.read(10) == b""  # EOF
        w.close(w.b)
        w.pump()
        assert (w.a.state, w.b.state) == (sc.FINISHED, sc.FINISHED)

    def test_eof_after_finack_is_the_peer_closing_first(self):
        w = Wire()
        w.close(w.a)
        w.pump()
        w.a.transport_broken(w.a._gen, EOFError("peer closed"), w.now)
        assert w.a.state == sc.FINISHED and w.a.read(10) == b""

    def test_eof_before_finack_is_a_fault(self):
        w = Wire()
        w.close(w.a)  # FIN still in flight
        w.a.transport_broken(w.a._gen, EOFError("gone"), w.now)
        assert w.a.state == sc.RECOVERING

    def test_fin_survives_a_cut_and_is_answered_once_per_link(self):
        w = Wire()
        w.write(w.a, b"tail")
        w.cut()
        w.close(w.a)  # while recovering: the FIN stays owed
        w.resume()  # the replay carries DATA then FIN
        assert kinds(b"".join(w.flight[w.b])) == [DATA, FIN]
        assert FIN in kinds(w.flush(w.a))  # the control loop's, racing it
        sent = []
        while w.flight[w.b]:
            w.deliver(w.b)
            sent += kinds(w.flush(w.b))
        assert sent.count(FINACK) == 1
        w.pump()
        assert w.a._tx_fin_acked

    def test_finack_lost_with_the_link_is_sent_again_after_resume(self):
        w = Wire()
        w.close(w.a)
        w.deliver(w.b)
        assert kinds(w.flush(w.b)) == [FINACK]
        w.cut()  # ... which never arrives
        w.close(w.b)
        w.resume()
        w.pump()
        assert (w.a.state, w.b.state) == (sc.FINISHED, sc.FINISHED)

    def test_finished_responder_repeats_a_finack_lost_with_the_last_link(self):
        w = Wire()
        w.write(w.a, b"one way")
        w.close(w.b)
        w.pump()  # b's direction is closed and FINACKed; b lingers
        w.close(w.a)
        w.deliver(w.b)
        assert kinds(w.flush(w.b)) == [FINACK] and w.b.state == sc.FINISHED
        w.cut(w.a)  # ... and the FINACK is lost with the link
        reply, finack = w.b.resume_frames(decode_resume(w.a.resume_request()))
        assert kinds(finack) == [FINACK] and w.b.state == sc.FINISHED
        for frame in w.a.resume_frames(decode_resume_ok(reply)):
            assert kinds(frame) == [FIN]  # all delivered: nothing to replay
        w.a.attach(w.now)
        w.a.receive_data(finack, w.now)
        assert w.a.state == sc.FINISHED and w.a.reconnects == 1

    def test_other_ended_sessions_have_no_answer_to_a_redial(self):
        w = Wire()
        w.close(w.b)
        w.pump()
        w.b.transport_broken(w.b._gen, EOFError("peer gone"), w.now)
        assert w.b.state == sc.FINISHED  # by EOF: the peer's FIN never came
        request = decode_resume(w.a.resume_request())
        with pytest.raises(SessionError, match="is finished"):
            w.b.resume_frames(request)
        w.a.fail(SessionError("boom"))
        with pytest.raises(SessionError, match="is failed"):
            w.a.resume_frames(sc.Resume(0, 0, None, None))

    def test_close_deadline_ends_a_lingering_session(self):
        w = Wire(SessionConfig(heartbeat=100.0))  # the watchdog stays out of it
        w.a.shutdown(deadline=10.0)
        w.pump()
        w.a.tick(9.0)
        assert w.a.state == sc.ACTIVE
        w.a.tick(10.0)
        assert w.a.state == sc.FINISHED  # FINACKed: done, not failed

    def test_close_deadline_fails_an_unacked_close(self):
        w = Wire()
        w.write(w.a, b"never acked")
        w.a.shutdown(deadline=10.0)
        w.a.tick(10.0)
        assert w.a.state == sc.FAILED
        with pytest.raises(SessionError):
            w.a.read(1)


class TestNegotiation:
    def _broken(self):
        w = Wire()
        w.write(w.a, payload(3000))
        w.pump()
        assert w.a.acked_tx == 3000
        w.write(w.a, payload(500))
        w.cut()
        return w

    def test_resume_replays_exactly_the_gap(self):
        w = self._broken()
        w.resume()
        w.pump()
        assert read_all(w.b) == payload(3000) + payload(500)
        assert (w.a.reconnects, w.b.reconnects) == (1, 1)
        assert (w.a.replayed_bytes, w.b.replayed_bytes) == (500, 0)

    def test_resume_below_the_replay_window_start_fails_the_session(self):
        w = self._broken()
        assert w.a._replay.start > 0
        amnesiac, = Core(7, Core.RESPONDER, CFG).resume_frames(
            sc.Resume(7, 0, None, None))
        amnesiac = decode_resume_ok(amnesiac)
        with pytest.raises(SessionError, match="below the replay window"):
            w.a.resume_frames(amnesiac)
        assert w.a.state == sc.FAILED  # typed and final, never a silent skip

    def test_ack_beyond_sent_fails_the_session(self):
        w = self._broken()
        with pytest.raises(SessionError, match="beyond sent"):
            w.a.resume_frames(sc.Resume(0, 10**9, None, None))
        assert w.a.state == sc.FAILED

    def test_fin_below_delivered_fails_the_session(self):
        w = self._broken()
        with pytest.raises(SessionError, match="below delivered"):
            w.b.resume_frames(sc.Resume(7, 0, 10, None))
        assert w.b.state == sc.FAILED

    def test_data_past_fin_fails_the_session(self):
        w = Wire()
        w.close(w.a)
        w.pump()
        rogue = struct.pack("!BI", DATA, 3) + b"xyz"
        with pytest.raises(SessionError, match="past the peer's FIN"):
            w.b.receive_data(rogue, w.now)
        assert w.b.state == sc.FAILED and Core.WAKE_LINK in w.b.wakes

    @pytest.mark.parametrize("blob", [
        bytes([0]), bytes([RESUME]), bytes([RESUME_OK]), bytes([99]),
        struct.pack("!BI", DATA, 0),
        # named: its bytes, pytest's default id, move with MAX_CHUNK
        pytest.param(struct.pack("!BI", DATA, MAX_CHUNK + 1),
                     id="data-too-long"),
        struct.pack("!BQ", ACK, 1),
    ])
    def test_malformed_stream_fails_the_session(self, blob):
        w = Wire()
        with pytest.raises(SessionError):
            w.b.receive_data(blob, w.now)
        assert w.b.state == sc.FAILED

    def test_handshake_blobs_are_checked(self):
        a = Core(7, Core.INITIATOR, CFG)
        request = a.resume_request()
        reply, = Core(7, Core.RESPONDER, CFG).resume_frames(
            decode_resume(request))
        assert len(request) == sc.RESUME_SIZE and len(reply) == sc.RESUME_OK_SIZE
        assert decode_resume(request) == sc.Resume(7, 0, None, None)
        for bad in (reply + bytes(len(request) - len(reply)), request[:-1]):
            with pytest.raises(SessionError):
                decode_resume(bad)
        with pytest.raises(SessionError):
            decode_resume_ok(request[: sc.RESUME_OK_SIZE])

    def test_first_attach_announces_and_owes_nothing(self):
        fresh = Core(9, Core.INITIATOR, CFG, attached=False)
        assert fresh.state == sc.RECOVERING and fresh.write(b"x") is None
        assert fresh.resume_frames(sc.Resume(0, 0, None, None)) == []
        fresh.attach(0.0)
        assert fresh.state == sc.ACTIVE and fresh.control_frames() == b""
        assert fresh.reconnects == 0


class TestTime:
    def test_idle_receive_side_pings_and_the_pong_feeds_the_watchdog(self):
        w = Wire()
        w.now = CFG.heartbeat
        w.a.tick(w.now)
        assert kinds(w.flush(w.a)) == [PING]
        w.deliver(w.b)
        assert kinds(w.flush(w.b)) == [PONG]
        w.deliver(w.a)
        w.a.tick(w.now + CFG.heartbeat / 2)  # heard from: nothing owed
        assert w.flush(w.a) == b""

    def test_silent_initiator_link_is_abandoned_by_the_watchdog(self):
        w = Wire()
        w.a.wakes.clear()
        w.a.tick(CFG.dead_after)
        assert w.a.state == sc.RECOVERING and Core.WAKE_LINK in w.a.wakes
        w.a.tick(10 * CFG.dead_after)  # recovery paces itself
        assert w.a.state == sc.RECOVERING

    def test_responder_never_abandons_it_only_pings(self):
        w = Wire()
        w.b.tick(10 * CFG.dead_after)
        assert w.b.state == sc.ACTIVE and kinds(w.flush(w.b)) == [PING]


# -- the interleaving property -------------------------------------------------

END = ("a", "b")


class SessionMachine(RuleBasedStateMachine):
    """Arbitrary application calls, deliveries, faults and clock steps on a
    back-to-back pair, checked against what a byte stream must do."""

    def __init__(self):
        super().__init__()
        self.w = Wire()
        self.sent = {"a": bytearray(), "b": bytearray()}
        self.got = {"a": bytearray(), "b": bytearray()}
        self.acked = {"a": 0, "b": 0}
        self.buffered = {"a": 0, "b": 0}

    def core(self, end):
        return getattr(self.w, end)

    def alive(self):
        return all(c.state in (sc.ACTIVE, sc.RECOVERING)
                   for c in (self.w.a, self.w.b))

    @rule(end=st.sampled_from(END), data=st.binary(min_size=1, max_size=3000))
    def write(self, end, data):
        core = self.core(end)
        if core._tx_fin is not None or core.state in (sc.FINISHED, sc.FAILED):
            with pytest.raises(SessionError):
                core.write(data)
            return
        taken = self.w.write(core, data)
        self.sent[end] += data[:taken]

    @rule(end=st.sampled_from(END), n=st.integers(1, 5000))
    def read(self, end, n):
        core = self.core(end)
        if core.state == sc.FAILED:
            return
        self.got[end] += core.read(n) or b""

    @rule(end=st.sampled_from(END),
          n=st.one_of(st.integers(1, 16), st.integers(1, 4000)))
    def deliver_fragment(self, end, n):
        core = self.core(end)
        if self.w.flight[core]:
            self.w.deliver(core, n)

    @rule(end=st.sampled_from(END))
    def flush(self, end):
        self.w.flush(self.core(end))

    @rule(n=st.one_of(st.integers(0, 16), st.integers(0, 4000)),
          who=st.sampled_from(["a", "b", "both"]))
    def cut(self, n, who):
        """Deliver a prefix, lose the rest; one end may not notice."""
        for end in END:
            if self.w.flight[self.core(end)]:
                self.w.deliver(self.core(end), n)
        self.w.cut(*(self.core(e) for e in (END if who == "both" else who)))

    @precondition(lambda self: self.alive())
    @rule(twice=st.booleans())
    def resume(self, twice):
        self.w.resume()
        if twice:  # a duplicate reconnect replaces the first
            self.w.resume()

    @rule(end=st.sampled_from(END), size=st.integers(256, 20000))
    def retune(self, end, size):
        self.core(end).set_max_buffer(size)

    @rule(end=st.sampled_from(END))
    def close(self, end):
        self.w.close(self.core(end))

    @rule(dt=st.floats(0.1, 5.0), end=st.sampled_from(END))
    def advance(self, dt, end):
        self.w.now += dt
        self.core(end).tick(self.w.now)

    @invariant()
    def delivery_is_an_exact_prefix(self):
        for end, other in (("a", "b"), ("b", "a")):
            got, sent = self.got[end], self.sent[other]
            assert sent[: len(got)] == got

    @invariant()
    def replay_buffer_stays_bounded_and_acks_monotone(self):
        for end in END:
            core = self.core(end)
            size = core._replay.size
            # never grows past the bound; above it only while a shrink drains
            bound = core.config.max_buffer + MAX_CHUNK - 1
            assert size <= max(bound, self.buffered[end])
            self.buffered[end] = size
            assert core.acked_tx >= self.acked[end]
            assert core.acked_tx <= core._replay.end
            self.acked[end] = core.acked_tx

    @invariant()
    def nothing_is_emitted_after_the_end(self):
        for end in END:
            core = self.core(end)
            if core.state in (sc.FINISHED, sc.FAILED):
                assert core.control_frames() == b""

    def teardown(self):
        """Whatever happened, a reconnect and a quiet wire deliver it all."""
        w = self.w
        # nothing here breaks the protocol, so nothing may fail; and an end
        # only finishes once both directions are complete
        assert sc.FAILED not in (w.a.state, w.b.state)
        if self.alive():
            w.resume()
            w.pump()
            if w.a._tx_fin is not None and w.b._tx_fin is not None:
                assert (w.a.state, w.b.state) == (sc.FINISHED, sc.FINISHED)
        for end, other in (("a", "b"), ("b", "a")):
            self.got[end] += read_all(self.core(end))
            assert self.got[end] == self.sent[other]


SessionMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None)
TestSessionMachine = SessionMachine.TestCase


# -- the parser is total -------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(chunks=st.lists(st.binary(max_size=200), max_size=30))
def test_arbitrary_bytes_raise_only_session_error(chunks):
    core = Core(7, Core.RESPONDER, CFG)
    for chunk in chunks:
        try:
            core.receive_data(chunk, 0.0)
        except SessionError:
            assert core.state == sc.FAILED
        # never more than one frame's worth waiting for its tail
        assert len(core._inbuf) <= MAX_CHUNK + 9


@settings(max_examples=200, deadline=None)
@given(
    writes=st.lists(st.binary(min_size=1, max_size=400), min_size=1, max_size=8),
    cuts=st.lists(st.integers(1, 64), max_size=80),
)
def test_delivery_does_not_depend_on_how_bytes_are_split(writes, cuts):
    w = Wire(SessionConfig(ack_every=128, max_buffer=1 << 20))
    w.write(w.b, b"r" * 100)
    w.pump()  # a owes 100 bytes' ACK, below the backstop: its write carries it
    for data in writes:
        w.write(w.a, data)
    assert kinds(w.flight[w.b][0]) == [ACK, DATA]
    w.close(w.a)
    w.a.set_max_buffer(4096)
    w.flush(w.a)
    stream = b"".join(w.flight[w.b])
    w.flight[w.b].clear()
    pos = 0
    for size in cuts + [len(stream)]:
        w.b.receive_data(stream[pos : pos + size], 0.0)
        assert w.b.rx_need >= 1
        pos += size
    assert read_all(w.b) == b"".join(writes) and w.b.acked_tx == 100
    assert w.b._rx_fin == len(b"".join(writes)) and w.b.peer_max_buffer == 4096


def test_an_ack_prefixed_data_frame_parses_split_at_every_byte():
    w = Wire()
    w.write(w.a, payload(700))
    w.pump()
    w.write(w.b, payload(300))
    (blob,) = w.flight[w.a]
    assert kinds(blob) == [ACK, DATA] and w.a.acked_tx == 0
    for split in range(len(blob) + 1):
        a = copy.deepcopy(w.a)
        a.receive_data(blob[:split], 0.0)
        a.receive_data(blob[split:], 0.0)
        assert a.acked_tx == 700 and read_all(a) == payload(300)
        assert a.rx_need == 1


@settings(max_examples=150, deadline=None)
@given(
    max_buffer=st.one_of(st.sampled_from([1 << 16, 1 << 20]),
                         st.integers(64, 1 << 18)),
    ack=st.one_of(st.sampled_from([0, 1 << 16]), st.integers(1, 1 << 19)),
    writes=st.lists(st.integers(1, 100_000), min_size=1, max_size=8),
)
# the 64 KiB replay buffer of the watchdog test, and the old fixed cadence
@example(max_buffer=1 << 16, ack=4096, writes=[25_000] * 8)
@example(max_buffer=1 << 16, ack=1 << 16, writes=[70_000, 70_000])
def test_the_backstop_fires_before_a_one_way_writer_parks(
        max_buffer, ack, writes):
    """No reverse traffic, no tick: the standalone ACK alone keeps a writer
    whose frames are delivered as it writes them from ever seeing
    ``None``, and releases one that ran ahead into the bound."""
    w = Wire(SessionConfig(ack_every=ack, max_buffer=max_buffer))
    for size in writes:
        view, offset = memoryview(bytes(size)), 0
        while offset < size:
            out = w.a.write(view[offset:])
            assert out is not None, "parked with nothing in flight"
            data, taken = out
            offset += taken
            w.send(w.a, data)
            w.pump()
            assert w.a._replay.size < max(1, max_buffer // 4)
    w.write(w.a, bytes(2 * max_buffer + MAX_CHUNK))
    assert w.a.write(b"x") is None
    w.pump()
    assert w.a.write(b"x") is not None
