"""MuxCore with no simulator and no event loop.

Two cores are wired back to back — ``b.feed(a.next_frame())`` — so every
protocol decision (ids, credit, retune, close handshake, violations) is
tested as plain function calls, and a hypothesis property explores
arbitrary interleavings of application calls and frame delivery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.mux import (
    DEFAULT_WINDOW,
    MuxCore,
    MuxError,
    MuxProtocolError,
    RoundRobinScheduler,
    Scheduler,
    WeightedScheduler,
)
from repro.mux import frames as f
from repro.mux.core import LONE_DATA_PAYLOAD, MAX_DATA_PAYLOAD

W = 4096


class RecordingCore(MuxCore):
    """A core whose only binding is a log of what it was told to wake."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.wakes = []

    def wake(self, what, channel=None):
        self.wakes.append((what, channel.channel_id if channel else None))


def pair(window=W, cls=MuxCore):
    return (cls(MuxCore.INITIATOR, window=window, node="a"),
            cls(MuxCore.RESPONDER, window=window, node="b"))


def pump(a, b):
    """Shuttle frames both ways until neither side has anything to send."""
    moved = True
    while moved:
        moved = False
        for src, dst in ((a, b), (b, a)):
            while (frame := src.next_frame()) is not None:
                dst.feed(frame)
                moved = True


def open_pair(a, b, **kw):
    """One accepted channel: ``(opener's end, acceptor's end)``."""
    tx, _ = a.open(**kw)
    pump(a, b)
    rx = b.accept()
    pump(a, b)
    assert tx._accepted and rx is not None
    return tx, rx


def read_all(channel, step=1 << 20):
    chunks = []
    while (chunk := channel.read(step)):
        chunks.append(chunk)
    return b"".join(chunks)


def counter(name, node, channel):
    return obs.metrics().counter(name, node=node, channel=str(channel)).value


class TestChannels:
    def test_open_accept_and_data_both_ways(self):
        a, b = pair()
        tx, rx = open_pair(a, b, tag=b"greeting")
        assert rx.tag == b"greeting" and rx.channel_id == tx.channel_id == 1
        tx.write(b"hello")
        rx.write(b"ok")
        pump(a, b)
        assert rx.read(100) == b"hello" and tx.read(100) == b"ok"
        assert rx.read(100) is None  # nothing yet, not EOF

    def test_id_parity_lets_both_sides_open(self):
        a, b = pair()
        ids_a = [a.open()[0].channel_id for _ in range(2)]
        ids_b = [b.open()[0].channel_id for _ in range(2)]
        pump(a, b)
        assert ids_a == [1, 3] and ids_b == [2, 4]
        assert sorted(c.channel_id for c in (a.accept(), a.accept())) == [2, 4]
        assert sorted(c.channel_id for c in (b.accept(), b.accept())) == [1, 3]

    def test_accept_filters_by_tag_and_match(self):
        a, b = pair()
        for tag in (b"x:1", b"y:1", b"x:2"):
            a.open(tag=tag)
        pump(a, b)
        assert b.accept(tag=b"nope") is None
        assert b.accept(tag=b"y:1").tag == b"y:1"
        assert b.accept(match=lambda t: t.startswith(b"x:")).tag == b"x:1"
        assert b.accept().tag == b"x:2"
        with pytest.raises(ValueError):
            b.accept(tag=b"x", match=lambda t: True)

    def test_open_carries_a_child_trace_context(self):
        a, b = pair()
        ctx = obs.TraceContext.new()
        tx, wire_ctx = a.open(ctx=ctx)
        pump(a, b)
        rx = b.accept()
        assert tx.ctx is ctx
        assert rx.ctx.trace_id == wire_ctx.trace_id == ctx.trace_id

    def test_control_frames_go_before_data(self):
        a, b = pair()
        tx, rx = open_pair(a, b)
        tx.write(b"x" * 100)
        a.open(tag=b"second")  # queued after the write, sent before it
        kinds = []
        while (frame := a.next_frame()) is not None:
            kinds.append(f.decode_frame(frame).kind)
            b.feed(frame)
        assert kinds == [f.T_OPEN, f.T_DATA]

    def test_data_is_cut_into_scheduler_turns(self):
        a, b = pair(window=1 << 20)
        tx, rx = open_pair(a, b)
        other, _ = open_pair(a, b)
        tx.write(b"t" * (3 * MAX_DATA_PAYLOAD))
        other.write(b"o" * (3 * MAX_DATA_PAYLOAD))
        turns = []
        while (frame := a.next_frame()) is not None:
            decoded = f.decode_frame(frame)
            assert len(decoded.payload) <= MAX_DATA_PAYLOAD
            turns.append(decoded.channel)
        assert turns == [1, 3, 1, 3, 1, 3]  # round robin: nobody sends twice


class TestCredit:
    def test_sender_stalls_at_the_window_until_the_reader_drains(self):
        a, b = pair()
        tx, rx = open_pair(a, b)
        payload = bytes(range(256)) * 64  # 16 KiB through a 4 KiB window
        tx.write(payload)
        pump(a, b)
        assert tx._tx_credit == 0 and tx._tx_buffered == len(payload) - W
        got = bytearray()
        while len(got) < len(payload):
            chunk = rx.read(777)
            assert chunk, "reader starved with bytes still buffered upstream"
            got += chunk
            pump(a, b)
        assert bytes(got) == payload and tx._tx_buffered == 0
        reg = obs.metrics()
        assert reg.counter("mux.backpressure_waits", node="a").value >= 1
        assert reg.counter("mux.backpressure_waits", node="b").value == 0

    def test_sent_never_exceeds_window_plus_grants(self):
        a, b = pair()
        tx, rx = open_pair(a, b)
        total = 50_000
        tx.write(b"y" * total)
        got = 0
        while got < total:
            pump(a, b)
            sent = counter("mux.tx_bytes", "a", 1)
            assert sent <= counter("mux.credit_granted", "b", 1)
            got += len(rx.read(1000) or b"")
        pump(a, b)
        assert counter("mux.tx_bytes", "a", 1) == total
        assert counter("mux.rx_bytes", "b", 1) == total
        assert counter("mux.sched_turns", "a", 1) >= total // MAX_DATA_PAYLOAD

    def test_backpressure_counts_episodes_not_frames(self):
        a, b = pair(window=1024)
        tx, rx = open_pair(a, b)
        waits = obs.metrics().counter("mux.backpressure_waits", node="a")
        tx.write(b"z" * 1024)  # exactly the window: nothing left buffered
        pump(a, b)
        assert waits.value == 0
        tx.write(b"z" * 10)    # zero credit and bytes to send: one episode
        tx.write(b"z" * 10)    # still the same episode
        pump(a, b)
        assert waits.value == 1
        read_all(rx)
        pump(a, b)             # credit came back and the bytes went out
        assert tx._tx_buffered == 0 and waits.value == 1

    def test_a_parked_sender_is_granted_what_was_consumed(self):
        window = 1 << 18
        a, b = pair(window=window)
        tx, rx = open_pair(a, b)
        tx.write(b"p" * (window + 5000))  # more than the window: it parks
        pump(a, b)
        assert tx._tx_credit == 0 and tx._tx_buffered == 5000
        assert rx.read(4) == b"pppp"      # a header-sized read earns nothing:
        assert b.next_frame() is None     # no silly-window CREDIT
        got = rx.read(MAX_DATA_PAYLOAD)
        # a contended quantum consumed — far below half the window — is
        # granted at once, because the peer cannot send at all
        grant = f.decode_frame(b.next_frame())
        assert grant.kind == f.T_CREDIT and grant.grant == 4 + len(got)
        assert 4 + len(got) < window // 4

    def test_grants_come_per_half_window_while_the_peer_still_has_credit(self):
        window = 1 << 18
        a, b = pair(window=window)
        tx, rx = open_pair(a, b)
        grants = []
        for _ in range(64):
            tx.write(b"g" * (1 << 14))
            pump(a, b)
            read_all(rx)
            while (frame := b.next_frame()) is not None:
                grants.append(f.decode_frame(frame).grant)
                a.feed(frame)
        assert grants == [window // 2] * (64 * (1 << 14) // (window // 2))

    def test_retune_growth_grants_immediately(self):
        a, b = pair(window=1 << 14)
        tx, rx = open_pair(a, b)
        rx.retune_window(1 << 15)
        pump(a, b)
        assert rx._rx_window == 1 << 15 and tx._tx_credit == 1 << 15
        assert tx.peer_rx_window == 1 << 15
        # the window it opened with, then the growth
        assert counter("mux.credit_granted", "b", 1) == 1 << 15
        assert obs.metrics().counter(
            "mux.window_retunes_total", node="b").value == 1

    def test_retune_shrink_withholds_grants_until_the_debt_drains(self):
        a, b = pair(window=1 << 15)
        tx, rx = open_pair(a, b)
        rx.retune_window(1 << 14)
        pump(a, b)
        debt = (1 << 15) - (1 << 14)
        assert rx._grant_debt == debt and tx._tx_credit == 1 << 15
        tx.write(b"d" * (1 << 16))
        delivered = 0
        while delivered < 1 << 16:
            pump(a, b)
            delivered += len(read_all(rx))
        assert rx._grant_debt == 0
        # the sender was held to the old allowance, then the new window
        assert counter("mux.tx_bytes", "a", 1) <= counter(
            "mux.credit_granted", "b", 1)

    def test_retune_rejects_nonpositive_and_ignores_no_change(self):
        a, b = pair()
        tx, rx = open_pair(a, b)
        with pytest.raises(ValueError):
            rx.retune_window(0)
        rx.retune_window(W)
        assert b.next_frame() is None


class TestTurns:
    def test_a_lone_channel_sends_a_whole_write_in_one_frame(self):
        a, b = pair(window=DEFAULT_WINDOW)
        tx, rx = open_pair(a, b)
        tx.write(b"w" * 65540)  # a default block behind tcp_block's header
        sizes = []
        while (frame := a.next_frame()) is not None:
            sizes.append(len(f.decode_frame(frame).payload))
            b.feed(frame)
        assert sizes == [65540]
        tx.write(b"w" * (LONE_DATA_PAYLOAD + MAX_DATA_PAYLOAD))
        sizes = []
        while (frame := a.next_frame()) is not None:
            sizes.append(len(f.decode_frame(frame).payload))
            b.feed(frame)
        assert sizes == [LONE_DATA_PAYLOAD, MAX_DATA_PAYLOAD]

    def test_a_second_ready_channel_brings_the_small_quantum_back_at_once(self):
        a, b = pair(window=DEFAULT_WINDOW)
        tx, rx = open_pair(a, b)
        other, _ = open_pair(a, b)
        tx.write(b"t" * (3 * LONE_DATA_PAYLOAD))
        first = f.decode_frame(a.next_frame())
        assert len(first.payload) == LONE_DATA_PAYLOAD  # nobody else waits
        other.write(b"o" * 10)                          # ... now somebody does
        turns = []
        while (frame := a.next_frame()) is not None:
            decoded = f.decode_frame(frame)
            turns.append((decoded.channel, len(decoded.payload)))
        assert turns[0] == (tx.channel_id, MAX_DATA_PAYLOAD)
        assert turns[1] == (other.channel_id, 10)
        # and alone again, the rest goes out in lone quanta
        assert turns[2] == (tx.channel_id, LONE_DATA_PAYLOAD)

    def test_no_cut_leaves_a_runt(self):
        a, b = pair(window=DEFAULT_WINDOW)
        tx, rx = open_pair(a, b)
        other, _ = open_pair(a, b)
        tx.write(b"t" * (4 * MAX_DATA_PAYLOAD + 4))  # the 4-byte tail of old
        other.write(b"o" * (4 * MAX_DATA_PAYLOAD + 4))
        sizes = []
        while (frame := a.next_frame()) is not None:
            sizes.append(len(f.decode_frame(frame).payload))
        assert sum(sizes) == 2 * (4 * MAX_DATA_PAYLOAD + 4)
        assert max(sizes) <= MAX_DATA_PAYLOAD and min(sizes) >= 1024

    @pytest.mark.parametrize("scheduler", [RoundRobinScheduler,
                                           WeightedScheduler])
    def test_lone_is_asked_of_the_scheduler(self, scheduler):
        sched = scheduler()
        assert Scheduler().lone() is False  # the safe default
        for cid in (1, 3):
            sched.add(cid)
        sched.set_ready(1, True)
        assert sched.pick() == 1 and sched.lone()
        sched.set_ready(3, True)
        sched.pick()
        assert not sched.lone()
        sched.set_ready(3, False)
        assert sched.pick() == 1 and sched.lone()


class TestClose:
    def test_graceful_close_waits_for_buffered_bytes(self):
        a, b = pair()
        tx, rx = open_pair(a, b)
        tx.write(b"q" * (3 * W))
        tx.close()
        with pytest.raises(MuxError):
            tx.write(b"more")
        got = bytearray()
        while True:
            pump(a, b)
            chunk = rx.read(1 << 20)
            if chunk == b"":
                break
            got += chunk or b""
        assert bytes(got) == b"q" * (3 * W)  # CLOSE came after the data
        rx.close()
        pump(a, b)
        assert a.channels_open == b.channels_open == 0
        assert tx.read(10) == b""

    def test_abort_discards_and_fails_the_peer(self):
        a, b = pair()
        tx, rx = open_pair(a, b)
        tx.write(b"q" * (3 * W))
        pump(a, b)   # one window's worth gets through
        tx.abort()   # the other two are discarded unsent
        pump(a, b)
        assert tx._tx_buffered == 0
        assert rx.read(1 << 20) == b"q" * W  # already delivered: readable
        with pytest.raises(MuxError, match="peer aborted"):
            rx.read(10)

    def test_half_close_still_reads_and_grants_but_a_closed_peer_gets_nothing(self):
        a, b = pair()
        tx, rx = open_pair(a, b)
        tx.close()
        pump(a, b)
        rx.write(b"r" * (2 * W))  # a closed its half only: b may still send
        got = 0
        while got < 2 * W:        # two windows: a must keep granting credit
            pump(a, b)
            got += len(tx.read(1 << 20) or b"")
        assert counter("mux.credit_granted", "a", 1) >= W
        rx.retune_window(8 * W)   # rx's peer has closed: nothing to announce
        assert b.next_frame() is None and rx._rx_window == 8 * W

    def test_close_when_idle_only_after_a_channel_has_lived(self):
        a, b = pair()
        a.close_when_idle = True
        assert not a.idle  # a fresh endpoint is not an idle one
        tx, rx = open_pair(a, b)
        tx.close()
        rx.close()
        pump(a, b)
        assert a.idle and not b.idle

    def test_endpoint_close_fails_channels_and_refuses_use(self):
        a, b = pair()
        tx, rx = open_pair(a, b)
        a.close()
        a.close()  # idempotent
        assert not a.alive and a.channels_open == 0
        for call in (lambda: tx.write(b"x"), lambda: tx.read(1), a.open,
                     a.accept):
            with pytest.raises(MuxError):
                call()

    def test_gauge_tracks_the_channel_table(self):
        a, b = pair()
        gauge = obs.metrics().gauge("mux.channels_open", node="b")
        tx, rx = open_pair(a, b)
        open_pair(a, b)
        assert gauge.value == 2
        tx.close()
        rx.close()
        pump(a, b)
        assert gauge.value == 1


VIOLATIONS = {
    "credit overrun": lambda: f.encode_data(1, b"x" * (W + 1)),
    "OPEN with the opener's own parity": lambda: f.encode_open(2, W),
    "duplicate OPEN": lambda: f.encode_open(1, W),
    "DATA for an unknown channel": lambda: f.encode_data(99, b"x"),
    "ACCEPT for an unknown channel": lambda: f.encode_accept(99, W),
    "HELLO after establishment": lambda: f.encode_hello(),
    "unknown frame type": lambda: b"\xee\x00\x00\x00\x01",
    "truncated frame": lambda: f.encode_data(1, b"abc")[:-1],
}


class TestViolations:
    @pytest.mark.parametrize("name", sorted(VIOLATIONS))
    def test_violation_fails_every_channel(self, name):
        a, b = pair()
        tx, rx = open_pair(a, b)
        other_tx, other_rx = open_pair(a, b)
        with pytest.raises(MuxProtocolError):
            b.feed(VIOLATIONS[name]())
        assert not b.alive
        for channel in (rx, other_rx):
            with pytest.raises(MuxProtocolError):
                channel.read(1)
            with pytest.raises(MuxProtocolError):
                channel.write(b"x")
        with pytest.raises(MuxProtocolError):
            b.open()

    def test_frames_racing_our_close_are_harmless(self):
        a, b = pair()
        tx, rx = open_pair(a, b)
        tx.close()
        rx.close()
        pump(a, b)
        for late in (f.encode_credit(1, 10), f.encode_window(1, 10),
                     f.encode_close(1)):
            a.feed(late)
        assert a.alive

    def test_garbled_trace_context_does_not_cost_the_channel(self):
        a, b = pair()
        b.feed(f.encode_open(1, W, b"tag", b"\xff\xfe not a context"))
        assert b.accept().ctx is None


class TestWakeContract:
    def test_each_condition_is_reported_to_the_binding(self):
        a, b = pair(cls=RecordingCore)
        tx, _ = a.open()
        assert a.wakes == [("tx", None)]
        pump(a, b)
        assert ("incoming", None) in b.wakes
        rx = b.accept()
        pump(a, b)
        assert ("accepted", 1) in a.wakes
        tx.write(b"x" * 10)
        pump(a, b)
        assert ("rx", 1) in b.wakes and ("drained", 1) in a.wakes

    def test_drained_only_once_the_frame_was_handed_to_the_carrier(self):
        a, b = pair(cls=RecordingCore)
        tx, rx = open_pair(a, b)
        tx.write(b"x" * 10)
        frame = a.next_frame()
        assert f.decode_frame(frame).kind == f.T_DATA
        assert tx._tx_buffered == 0 and ("drained", 1) not in a.wakes
        assert counter("mux.tx_bytes", "a", 1) == 0
        assert a.next_frame() is None  # asking again acknowledges the write
        assert ("drained", 1) in a.wakes
        assert counter("mux.tx_bytes", "a", 1) == 10

    def test_failure_wakes_every_kind_of_waiter(self):
        a, b = pair(cls=RecordingCore)
        tx, rx = open_pair(a, b)
        del b.wakes[:]
        b.fail(EOFError("carrier died"))
        assert {("drained", 1), ("rx", 1), ("accepted", 1), ("tx", None),
                ("incoming", None)} <= set(b.wakes)
        with pytest.raises(EOFError):
            rx.read(1)


# -- arbitrary interleavings ---------------------------------------------------

CHANNELS = 3
SIDES = ("a", "b")

_side = st.sampled_from(SIDES)
_chan = st.integers(0, CHANNELS - 1)
OPS = st.one_of(
    st.tuples(st.just("write"), _side, _chan, st.integers(1, 3 * W)),
    st.tuples(st.just("read"), _side, _chan, st.integers(1, 2 * W)),
    st.tuples(st.just("retune"), _side, _chan,
              st.sampled_from([W // 4, W // 2, W, 2 * W, 4 * W])),
    st.tuples(st.just("close"), _side, _chan),
    st.tuples(st.just("produce"), _side, st.integers(1, 4)),
    st.tuples(st.just("deliver"), _side, st.integers(1, 4)),
)


class Harness:
    """Two cores, two in-order wires, and a model of what must hold."""

    def __init__(self):
        a, b = pair()
        self.cores = {"a": a, "b": b}
        self.wire = {"a": [], "b": []}          # frames produced, undelivered
        self.closed_on_wire = {"a": set(), "b": set()}
        self.data_sent = {}                      # (side, cid) -> DATA bytes
        self.credit_seen = {}                    # (side, cid) -> CREDIT rcvd
        self.written = {}                        # (side, i) -> bytes written
        self.received = {}                       # (side, i) -> bytes read
        self.locally_closed = set()
        self.chans = {"a": [], "b": []}
        for _ in range(CHANNELS):
            tx, rx = open_pair(a, b)
            self.chans["a"].append(tx)
            self.chans["b"].append(rx)
        self.serial = 0

    @staticmethod
    def peer(side):
        return "b" if side == "a" else "a"

    def produce(self, side, n=1):
        """Move up to ``n`` frames from the core onto its wire; how many."""
        for produced in range(n):
            frame = self.cores[side].next_frame()
            if frame is None:
                return produced
            decoded = f.decode_frame(frame)
            cid = decoded.channel
            # CLOSE is a half-close: the closer still reads, so CREDIT and
            # WINDOW may follow it, but never DATA or a second CLOSE
            assert (cid not in self.closed_on_wire[side]
                    or decoded.kind in (f.T_CREDIT, f.T_WINDOW)), (
                f"{side} produced {decoded.name} for channel {cid} "
                "after its own CLOSE")
            if decoded.kind == f.T_CLOSE:
                self.closed_on_wire[side].add(cid)
            elif decoded.kind == f.T_DATA:
                key = (side, cid)
                sent = self.data_sent.get(key, 0) + len(decoded.payload)
                self.data_sent[key] = sent
                assert sent <= W + self.credit_seen.get(key, 0), (
                    f"{side} overran channel {cid}'s credit")
            self.wire[side].append(frame)
        return n

    def deliver(self, side, n=1):
        """Feed up to ``n`` frames off the wire to the peer; how many."""
        for delivered in range(n):
            if not self.wire[side]:
                return delivered
            frame = self.wire[side].pop(0)
            decoded = f.decode_frame(frame)
            if decoded.kind == f.T_CREDIT:
                key = (self.peer(side), decoded.channel)
                self.credit_seen[key] = (
                    self.credit_seen.get(key, 0) + decoded.grant)
            self.cores[self.peer(side)].feed(frame)
        return n

    def write(self, side, i, n):
        if (side, i) in self.locally_closed:
            return
        data = bytes((self.serial + k) % 251 for k in range(n))
        self.serial += n
        self.chans[side][i].write(data)
        self.written.setdefault((side, i), bytearray()).extend(data)

    def read(self, side, i, maxbytes):
        chunk = self.chans[side][i].read(maxbytes)
        if chunk:
            self.received.setdefault((side, i), bytearray()).extend(chunk)
        return bool(chunk)

    def close(self, side, i):
        self.chans[side][i].close()
        self.locally_closed.add((side, i))

    def settle(self):
        """Run everything to quiescence, draining every receive buffer."""
        progress = True
        while progress:
            progress = False
            for side in SIDES:
                if self.produce(side, 1 << 30) or self.deliver(side, 1 << 30):
                    progress = True
                for i in range(CHANNELS):
                    while self.read(side, i, 1 << 20):
                        progress = True

    def check_delivery(self, exact):
        for side in SIDES:
            for i in range(CHANNELS):
                sent = bytes(self.written.get((side, i), b""))
                got = bytes(self.received.get((self.peer(side), i), b""))
                if exact:
                    assert got == sent
                else:
                    assert sent.startswith(got)


@settings(max_examples=120)
@given(st.lists(OPS, max_size=120))
def test_any_interleaving_delivers_in_order_under_credit(ops):
    h = Harness()
    for op, side, *args in ops:
        if op == "retune":
            h.chans[side][args[0]].retune_window(args[1])
        else:
            getattr(h, op)(side, *args)
        h.check_delivery(exact=False)
    h.settle()
    h.check_delivery(exact=True)
    # a shrink's debt is paid off by consumption: keep the open channels
    # flowing and it must reach zero
    for side in SIDES:
        for i, channel in enumerate(h.chans[side]):
            if channel._grant_debt and not (
                    {(side, i), (h.peer(side), i)} & h.locally_closed):
                h.write(h.peer(side), i,
                        channel._grant_debt + 2 * channel._rx_window)
    h.settle()
    h.check_delivery(exact=True)
    for side in SIDES:
        for i, channel in enumerate(h.chans[side]):
            if not {(side, i), (h.peer(side), i)} & h.locally_closed:
                assert channel._grant_debt == 0
    # a channel both sides closed is gone: nothing is produced for it
    for i in range(CHANNELS):
        if {("a", i), ("b", i)} <= h.locally_closed:
            for side in SIDES:
                h.chans[side][i].retune_window(8 * W)
                assert h.chans[side][i].read(1) == b""
                assert h.cores[side].next_frame() is None
    assert all(core.alive for core in h.cores.values())
