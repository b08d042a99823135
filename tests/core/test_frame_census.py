"""Frame census of the routed stack: a budget no simulator or loop decides.

A mux core over a session core over a routed channel through a relay core
— the four sans-IO machines of ``relay > session > mux`` joined by plain
function calls, the way each core's own suite joins two of its kind.  The
relay's cost is per frame (paper §3.4), so what the layers above it emit
per MiB is a structural fact of the protocols, and it is pinned here the
way PR 19 pinned modexp bits and PR 20 calls per transmission: counted,
host-independent, with a bound ≈ 15 % above what the tree reaches.

Before the control-frame cadence was fixed this census read 129 relay
frames per MiB, half of them ≤ 64 bytes, and more than one credit stall
per block.
"""

import collections

import pytest

from repro import obs
from repro.core import relay_core as rc
from repro.core import session_core as sc
from repro.core.relay_core import RelayClientCore, RelayCore
from repro.core.session_core import SessionConfig, SessionCore
from repro.mux import MuxCore, WeightedScheduler
from repro.mux import frames as mf
from repro.mux.core import LONE_DATA_PAYLOAD, MAX_DATA_PAYLOAD
from repro.simnet.crossval import PROFILES
from repro.util import sizes
from repro.util.bytesbuf import joined, size
from repro.util.framing import frame

MIB = 1 << 20
#: a default block behind tcp_block's u32 length
WRITE = sizes.DEFAULT_BLOCK + 4

# what the tree reaches with one channel and a reader that keeps up: per
# MiB 16 DATA + 1.75 CREDIT = 17.75 frames at every layer (one CREDIT per
# half of the 16-block window), 0 standalone ACKs, 353 bytes that are not
# the application's
MAX_FRAMES_PER_MIB = 20
MAX_CONTROL_BYTES_PER_MIB = 405
#: CREDITs per MiB: 1.75 reached
MAX_CREDITS_PER_MIB = 2


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(obs.MetricsRegistry())
    yield
    obs.set_registry(previous)


class End:
    """One node: its mux endpoint, its session, its relay registration."""

    def __init__(self, name, mux_role, session_role, scheduler=None):
        self.name = name
        self.mux = MuxCore(mux_role, node=name, scheduler=scheduler)
        self.session = SessionCore(7, session_role, SessionConfig())
        self.client = RelayClientCore(name)
        self.link = None
        #: bytes the session delivered that are not yet a whole mux frame
        self.carried = bytearray()


class Stack:
    """Both ends and the relay between them; every byte moves by a call."""

    def __init__(self, scheduler=None):
        self.now = 0.0
        self.relay = RelayCore("relay", clock=lambda: self.now)
        self.a = End("a", MuxCore.INITIATOR, SessionCore.INITIATOR, scheduler)
        self.b = End("b", MuxCore.RESPONDER, SessionCore.RESPONDER)
        self.peer = {self.a: self.b, self.b: self.a}
        self.census = collections.Counter()
        self.data_payloads = []  # (channel, bytes) of every mux DATA, in order
        for end in (self.a, self.b):
            accepted, (ok,) = self.relay.register(end.name, end)
            assert accepted
            end.client.registered(ok)
        self.a.link, opened = self.a.client.open("b")
        self.b.link = self.b.client.dispatch(
            self.relay.route("a", opened, self.a).frame)
        assert self.b.link is not None
        self.census.clear()

    # -- one layer down at a time ----------------------------------------
    def _mux_out(self, src, body):
        decoded = mf.decode_frame(body)
        self.census["mux." + decoded.name] += 1
        if decoded.kind == mf.T_DATA:
            self.data_payloads.append((decoded.channel, len(decoded.payload)))
        view, offset = memoryview(frame(joined(body))), 0
        while offset < len(view):  # what the binding's send_all does
            out = src.session.write(view[offset:])
            assert out is not None, "the replay window never fills here"
            data, taken = out
            offset += taken
            self.census["session.data"] += 1
            self.census["session.acks_carried"] += joined(data)[0] == sc.F_ACK
            self._link_out(src, data)

    def _control_out(self, src):
        data = src.session.control_frames()
        if data:
            self.census["session.control"] += 1
            self._link_out(src, data)
            src.session.control_sent()
        return bool(data)

    def _link_out(self, src, data):
        dst = self.peer[src]
        for routed in src.link.msg_frames(data):
            assert size(routed) <= rc.MAX_RELAY_FRAME
            hop = self.relay.route(src.name, joined(routed), src)
            self.census["relay.frames"] += 1
            self.census["relay.bytes"] += hop.head[6] - hop.head[5]
            self.census["relay.small"] += hop.head[6] - hop.head[5] <= 64
            assert dst.client.dispatch(hop.frame) is None
            self.relay.hop_done(hop)
        dst.session.receive_data(dst.link.take(1 << 20), self.now)
        dst.carried += dst.session.read(1 << 20) or b""
        while len(dst.carried) >= 4:
            end = 4 + int.from_bytes(dst.carried[:4], "big")
            if len(dst.carried) < end:
                break
            dst.mux.feed(bytes(dst.carried[4:end]))
            del dst.carried[:end]

    def pump(self):
        """The tx pump and the control loop of both ends, until quiet."""
        moved = True
        while moved:
            moved = False
            for src in (self.a, self.b):
                while (body := src.mux.next_frame()) is not None:
                    self._mux_out(src, body)
                    moved = True
                moved |= self._control_out(src)

    def channel_pair(self, **kw):
        tx, _ = self.a.mux.open(**kw)
        self.pump()
        rx = self.b.mux.accept()
        self.pump()
        assert tx._accepted and rx is not None
        return tx, rx

    def stalls(self):
        return sum(c.value for c in
                   obs.metrics().instruments("mux.backpressure_waits"))


def drain(channel) -> int:
    got = 0
    while (chunk := channel.read(1 << 20)):
        got += len(chunk)
    return got


class TestOneChannel:
    TOTAL = 4 * MIB

    @pytest.fixture
    def run(self):
        stack = Stack()
        tx, rx = stack.channel_pair()
        stack.census.clear()
        stack.data_payloads.clear()
        writes = self.TOTAL // sizes.DEFAULT_BLOCK
        got = 0
        for i in range(writes):
            tx.write(bytes([i % 251]) * WRITE)
            stack.pump()
            got += drain(rx)  # the reader keeps up
            stack.pump()
        assert got == writes * WRITE and tx._tx_buffered == 0
        return stack

    def test_frames_per_mib_per_layer(self, run):
        census, mib = run.census, self.TOTAL / MIB
        mux_frames = sum(v for k, v in census.items() if k.startswith("mux."))
        session_writes = census["session.data"] + census["session.control"]
        for layer, count in (("mux", mux_frames), ("session", session_writes),
                             ("relay", census["relay.frames"])):
            assert count / mib <= MAX_FRAMES_PER_MIB, (layer, dict(census))
        # a full frame of one layer is exactly one frame of the next
        assert mux_frames == session_writes == census["relay.frames"]
        # one write, one DATA; the CREDITs stay a fraction of them
        assert census["mux.data"] == self.TOTAL // sizes.DEFAULT_BLOCK
        assert census["mux.credit"] / mib <= MAX_CREDITS_PER_MIB

    def test_acks_ride_and_control_bytes_stay_small(self, run):
        census, mib = run.census, self.TOTAL / MIB
        assert census["session.control"] == 0  # no ACK went out on its own
        assert census["session.acks_carried"] > 0
        sent = self.TOTAL // sizes.DEFAULT_BLOCK * WRITE
        control = census["relay.bytes"] - sent
        assert 0 < control / mib <= MAX_CONTROL_BYTES_PER_MIB
        # what no write has carried yet is below the backstop, and the
        # next tick sends it
        a, b = run.a.session, run.b.session
        assert 0 < b._rx_off - a.acked_tx < b.config.ack_backstop(
            b.config.max_buffer)
        for core in (a, b):
            core.tick(1.0)
        run.pump()
        assert a.acked_tx == b._rx_off and b.acked_tx == a._rx_off

    def test_no_stall_and_no_runt_while_the_reader_keeps_up(self, run):
        assert run.stalls() == 0
        # every write went out whole: its only frame, never a tail
        assert {n for _, n in run.data_payloads} == {WRITE}
        assert run.census["relay.small"] <= run.census["mux.credit"]


class TestSplits:
    def test_a_write_cut_by_credit_or_quantum_leaves_no_runt(self):
        stack = Stack()
        tx, rx = stack.channel_pair()
        stack.data_payloads.clear()
        # one block more than the default window holds, with nobody
        # reading, then a write a few bytes longer than the lone quantum
        blocks = sizes.DEFAULT_WINDOW // WRITE + 1
        for size in [WRITE] * blocks + [LONE_DATA_PAYLOAD + 7]:
            tx.write(b"s" * size)
        total = blocks * WRITE + LONE_DATA_PAYLOAD + 7
        got = 0
        while got < total:
            stack.pump()
            got += drain(rx)
        payloads = [n for _, n in stack.data_payloads]
        assert sum(payloads) == total and max(payloads) <= LONE_DATA_PAYLOAD
        assert min(payloads) >= sizes.MIN_TAIL, payloads
        assert stack.stalls() >= 1  # that one was a real stall


@pytest.mark.parametrize("scheduler", [None, WeightedScheduler])
class TestTwoChannels:
    def test_contended_turns_are_small_and_alternate(self, scheduler):
        stack = Stack(scheduler() if scheduler else None)
        one, rx_one = stack.channel_pair()
        two, rx_two = stack.channel_pair()
        stack.data_payloads.clear()
        one.write(b"1" * (3 * WRITE))
        two.write(b"2" * (3 * WRITE))
        got = 0
        while got < 6 * WRITE:
            stack.pump()
            got += drain(rx_one) + drain(rx_two)
        both = stack.data_payloads
        # while both had something to send: never more than the contended
        # quantum ...
        contended = both[: 1 + min(
            max(i for i, (cid, _) in enumerate(both) if cid == channel)
            for channel in (one.channel_id, two.channel_id))]
        assert all(n <= MAX_DATA_PAYLOAD for _, n in contended)
        assert len(contended) >= 2 * (3 * WRITE // MAX_DATA_PAYLOAD)
        channels = [cid for cid, _ in contended]
        if scheduler is None:
            # ... and under round robin never two turns in a row for one
            assert all(x != y for x, y in zip(channels, channels[1:]))
        else:
            # ... and under equal weights never a quantum ahead for long
            lead = 0
            for cid, n in contended:
                lead += n if cid == one.channel_id else -n
                assert abs(lead) <= 2 * MAX_DATA_PAYLOAD

    def test_the_lone_quantum_returns_when_the_other_channel_is_done(
            self, scheduler):
        stack = Stack(scheduler() if scheduler else None)
        one, rx_one = stack.channel_pair()
        two, rx_two = stack.channel_pair()
        two.write(b"2" * 100)
        stack.pump()
        drain(rx_two)
        stack.data_payloads.clear()
        one.write(b"1" * WRITE)
        stack.pump()
        assert stack.data_payloads == [(one.channel_id, WRITE)]


class TestSizeChain:
    """A full frame of layer N is exactly one frame of layer N − 1."""

    def test_the_constants_are_the_chain(self):
        assert sizes.DEFAULT_BLOCK + sizes.BLOCK_SLACK == LONE_DATA_PAYLOAD
        assert sizes.DEFAULT_WINDOW >= 4 * (sizes.DEFAULT_BLOCK + 4)
        assert sizes.DEFAULT_WINDOW % LONE_DATA_PAYLOAD == 0
        assert sc.MAX_CHUNK == sizes.SESSION_MAX_CHUNK
        assert rc.MAX_MSG == sizes.RELAY_MAX_MSG
        assert rc.MAX_RELAY_FRAME == rc.MAX_MSG + sizes.ROUTED_HEADER_BOUND

    def test_the_control_cadence_rules(self):
        window = sizes.DEFAULT_WINDOW
        # a reader grants CREDIT per half window: one per eight blocks
        assert window // 2 >= 8 * WRITE
        # a lone channel is not window-bound on the paper's WAN links
        bdp = max(p["capacity"] * 2 * p["one_way_delay"]
                  for p in PROFILES.values())
        assert window >= 2 * bdp
        # the standalone-ACK backstop never fires before that CREDIT
        config = SessionConfig()
        assert config.max_buffer == sizes.SESSION_REPLAY_BOUND
        assert config.ack_backstop(config.max_buffer) >= window // 2

    def test_a_full_frame_of_each_layer_fits_one_frame_of_the_next(self):
        # the largest DATA a mux turn can emit, as its carrier sees it
        wire = frame(mf.encode_data(0xFFFFFFFF, b"m" * LONE_DATA_PAYLOAD))
        assert len(wire) == sc.MAX_CHUNK
        # ... is one session DATA, even with an ACK in front of it
        core = SessionCore(7, SessionCore.INITIATOR, SessionConfig())
        core.receive_data(b"\x01\x00\x00\x00\x01x", 0.0)  # owes an ACK now
        data, taken = core.write(memoryview(wire))
        assert taken == len(wire) and joined(data)[0] == sc.F_ACK
        assert size(data) == rc.MAX_MSG
        # ... which is one routed message, whatever the node ids
        client = RelayClientCore("n" * 400)
        link, _ = client.open("p" * 400)
        (routed,) = link.msg_frames(data)
        assert size(routed) <= rc.MAX_RELAY_FRAME
        head = rc.parse_routed(joined(routed))
        assert head[6] - head[5] == size(data)

    def test_one_byte_more_is_two_frames_and_neither_is_a_runt(self):
        core = SessionCore(7, SessionCore.INITIATOR, SessionConfig())
        data = b"x" * (sc.MAX_CHUNK + 1)
        first, taken = core.write(memoryview(data))
        second, rest = core.write(memoryview(data)[taken:])
        assert taken + rest == len(data) and rest == sizes.MIN_TAIL
        client = RelayClientCore("a")
        link, _ = client.open("b")
        heads = [rc.parse_routed(joined(f))
                 for f in link.msg_frames(b"y" * (rc.MAX_MSG + 5))]
        lengths = [head[6] - head[5] for head in heads]
        assert lengths == [rc.MAX_MSG + 5 - sizes.MIN_TAIL, sizes.MIN_TAIL]

    @pytest.mark.parametrize("length,limit,want", [
        (10, 100, 10), (100, 100, 100),
        (101, 100, 100),                  # a limit too small to even out
        (70_000, 16_384, 16_384),
        (16_388, 16_384, 16_388 - 1024),  # the 4-byte tail of old
        (16_384 + 1024, 16_384, 16_384),
    ])
    def test_cut(self, length, limit, want):
        assert sizes.cut(length, limit) == want
