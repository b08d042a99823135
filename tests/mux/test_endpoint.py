"""Mux endpoints: channels, credit flow control, scheduling, failure.

The protocol-level cases (``*Cases``) are scripts written once against
the harness in ``conftest.py`` and run over both bindings: ``TestChannels``
/ ``TestCredit`` / ``TestFailure`` / ``TestViolations`` on the simulator's
``MuxEndpoint``, their ``...Live`` twins on ``AsyncMuxEndpoint`` over real
loopback sockets; ``TestWriteTurn`` / ``TestWriteTurnLive`` pin who puts
a frame on the carrier.  Scheduling fairness is timing-shaped, so it stays
on the simulator's deterministic clock.
"""

from types import coroutine

import pytest

from repro import obs
from repro.mux import MuxProtocolError, WeightedScheduler
from repro.mux import frames as f
from repro.mux.core import LONE_DATA_PAYLOAD

from .conftest import LiveHarness, SimHarness


class ChannelsCases:
    def test_open_accept_round_trip(self, mux):
        got = {}

        async def script(h, ini, resp):
            async def opener():
                ch = await h.open(ini, tag=b"greeting")
                await h.send(ch, b"hello over mux")
                got["reply"] = await h.recv_exactly(ch, 2)

            async def acceptor():
                ch = await h.accept(resp)
                got["tag"] = ch.tag
                got["data"] = await h.recv_exactly(ch, 14)
                await h.send(ch, b"ok")

            await h.gather(opener(), acceptor())

        mux.run(script)
        assert got == {"tag": b"greeting", "data": b"hello over mux",
                       "reply": b"ok"}

    def test_many_channels_no_cross_leakage(self, mux):
        n = 12
        payloads = {i: bytes([i]) * (3000 + 137 * i) for i in range(n)}
        received = {}

        async def script(h, ini, resp):
            async def opener(i):
                ch = await h.open(ini, tag=str(i).encode())
                await h.send(ch, payloads[i])
                ch.close()

            async def drain():
                ch = await h.accept(resp)
                chunks = []
                while (data := await h.recv(ch, 4096)):
                    chunks.append(data)
                received[int(ch.tag)] = b"".join(chunks)

            await h.gather(*[opener(i) for i in range(n)],
                           *[drain() for _ in range(n)])

        mux.run(script)
        assert received == payloads

    def test_both_sides_can_open(self, mux):
        got = {}

        async def script(h, ini, resp):
            async def from_resp():
                ch = await h.open(resp, tag=b"reverse")
                await h.send(ch, b"responder speaks first")
                ch.close()

            async def on_ini():
                ch = await h.accept(ini)
                got["tag"] = ch.tag
                got["data"] = await h.recv_exactly(ch, 22)

            await h.gather(from_resp(), on_ini())

        mux.run(script)
        assert got == {"tag": b"reverse", "data": b"responder speaks first"}

    def test_channel_ids_do_not_collide(self, mux):
        ids = {}

        async def script(h, ini, resp):
            async def open_two(ep, key):
                a = await h.open(ep)
                b = await h.open(ep)
                ids[key] = (a.channel_id, b.channel_id)

            async def accept_two(ep):
                await h.accept(ep)
                await h.accept(ep)

            await h.gather(open_two(ini, "ini"), open_two(resp, "resp"),
                           accept_two(ini), accept_two(resp))

        mux.run(script)
        assert ids == {"ini": (1, 3), "resp": (2, 4)}

    def test_accept_by_tag_lets_acceptors_share_an_endpoint(self, mux):
        got = {}

        async def script(h, ini, resp):
            async def opener(tag):
                ch = await h.open(ini, tag=tag)
                await h.send(ch, tag * 3)

            async def acceptor(tag):
                ch = await h.accept(resp, tag=tag)
                got[tag] = await h.recv_exactly(ch, 3 * len(tag))

            await h.gather(acceptor(b"two"), acceptor(b"one"),
                           opener(b"one"), opener(b"two"))

        mux.run(script)
        assert got == {b"one": b"oneoneone", b"two": b"twotwotwo"}


class CreditCases:
    def test_sender_blocks_until_receiver_drains(self, mux):
        # window of 4 KiB, payload of 64 KiB: the sender cannot finish
        # before the receiver starts consuming.
        events = []

        async def script(h, ini, resp):
            async def opener():
                ch = await h.open(ini)
                await h.send(ch, b"x" * 65536)
                events.append("sent")
                ch.close()

            async def acceptor():
                ch = await h.accept(resp)
                await h.sleep(5.0)  # let the sender hit the credit wall
                events.append("drain_start")
                total = 0
                while total < 65536:
                    total += len(await h.recv(ch, 65536))
                events.append("drained")

            await h.gather(opener(), acceptor())

        mux.run(script, window=4096)
        assert events == ["drain_start", "sent", "drained"]
        reg = obs.metrics()
        assert reg.counter("mux.backpressure_waits", node="ini").value > 0

    def test_credit_conservation_counters(self, mux):
        total = 50_000

        async def script(h, ini, resp):
            async def opener():
                ch = await h.open(ini)
                await h.send(ch, b"y" * total)
                ch.close()

            async def acceptor():
                ch = await h.accept(resp)
                got = 0
                while got < total:
                    got += len(await h.recv(ch, 4096))

            await h.gather(opener(), acceptor())

        mux.run(script, window=8192)
        reg = obs.metrics()
        tx = reg.counter("mux.tx_bytes", node="ini", channel="1").value
        rx = reg.counter("mux.rx_bytes", node="resp", channel="1").value
        granted = reg.counter("mux.credit_granted", node="resp",
                              channel="1").value
        assert tx == rx == total
        # sent bytes never exceed the initial window plus explicit grants
        assert tx <= 8192 + granted

    def test_zero_copy_of_dropped_bytes_never_happens(self, mux):
        # backpressure means blocking, not dropping: every byte arrives
        payload = bytes(range(256)) * 100
        got = []

        async def script(h, ini, resp):
            async def opener():
                ch = await h.open(ini)
                await h.send(ch, payload)
                ch.close()

            async def acceptor():
                ch = await h.accept(resp)
                while (data := await h.recv(ch, 777)):
                    got.append(data)

            await h.gather(opener(), acceptor())

        mux.run(script, window=1024)
        assert b"".join(got) == payload

    def test_retune_window_renegotiates_on_the_wire(self, mux):
        seen = {}

        async def script(h, ini, resp):
            tx, rx = await h.gather(h.open(ini), h.accept(resp))
            rx.retune_window(1 << 15)
            await h.send(rx, b"!")          # ordered behind CREDIT + WINDOW
            await h.recv_exactly(tx, 1)
            seen["grown"] = (tx._tx_credit, tx.peer_rx_window)
            rx.retune_window(1 << 13)
            await h.send(rx, b"!")
            await h.recv_exactly(tx, 1)
            seen["shrunk"] = (tx._tx_credit, tx.peer_rx_window,
                              rx._grant_debt)

        mux.run(script, window=1 << 14)
        assert seen["grown"] == (1 << 15, 1 << 15)
        assert seen["shrunk"] == (1 << 15, 1 << 13, (1 << 15) - (1 << 13))


class FailureCases:
    def test_link_death_fails_all_channels(self, mux):
        errors = []

        async def script(h, ini, resp):
            async def opener():
                ch = await h.open(ini)
                await h.send(ch, b"z" * 1000)
                await h.sleep(2.0)
                h.carrier(ini).abort()  # the shared link dies under us
                try:
                    await h.send(ch, b"z" * 200_000)
                except Exception as exc:
                    errors.append(type(exc).__name__)

            async def acceptor():
                ch = await h.accept(resp)
                try:
                    while await h.recv(ch, 4096):
                        pass
                except Exception as exc:
                    errors.append(type(exc).__name__)

            await h.gather(opener(), acceptor())

        mux.run(script)
        assert len(errors) == 2

    def test_a_carrier_failure_of_its_own_fails_every_channel(self, mux):
        seen = {}

        async def script(h, raw_ini, raw_resp):
            carrier = _OwnErrorCarrier(raw_resp)
            ini, resp = await h.gather(h.establish(raw_ini, "initiator"),
                                       h.establish(carrier, "responder"))
            try:
                tx, rx = await h.gather(h.open(ini), h.accept(resp))
                carrier.dead = True

                async def read():
                    try:
                        await h.recv(rx, 10)
                    except Exception as exc:
                        seen["reader"] = exc

                await h.gather(read(), h.send(tx, b"wakes the rx pump"))
                seen["alive"] = resp.alive
            finally:
                ini.close()
                resp.close()

        mux.run(script, establish=False)
        assert isinstance(seen["reader"], _CarrierFailed)
        assert seen["alive"] is False

    def test_endpoint_close_is_clean(self, mux):
        state = {}

        async def script(h, ini, resp):
            async def opener():
                ch = await h.open(ini)
                await h.send(ch, b"bye")
                ch.close()
                ini.close()
                state["alive"] = ini.alive

            async def acceptor():
                ch = await h.accept(resp)
                state["data"] = await h.recv_exactly(ch, 3)

            await h.gather(opener(), acceptor())

        mux.run(script)
        assert state == {"alive": False, "data": b"bye"}

    def test_version_mismatch_refused(self, mux):
        failures = []

        async def script(h, a, b):
            async def old_peer():
                await h.send_frame(b, f.encode_hello(version=99))
                await h.recv_frame(b)

            async def us():
                try:
                    await h.establish(a, "initiator")
                except MuxProtocolError as exc:
                    failures.append(str(exc))

            await h.gather(old_peer(), us())

        mux.run(script, establish=False)
        assert failures and "version mismatch" in failures[0]


#: what a misbehaving peer might put on the wire once a channel (id 1,
#: window 1024) is open toward us
VIOLATIONS = {
    "credit overrun": f.encode_data(1, b"x" * 1025),
    "OPEN with the wrong parity": f.encode_open(2, 1024),
    "duplicate OPEN": f.encode_open(1, 1024),
    "DATA for an unknown channel": f.encode_data(99, b"x"),
    "ACCEPT for an unknown channel": f.encode_accept(99, 1024),
    "HELLO after establishment": f.encode_hello(),
}


class ViolationCases:
    """A peer that breaks the protocol costs every channel, and the
    carrier is dropped so the peer finds out too."""

    def _run(self, mux, bad_bytes):
        seen = {}

        async def script(h, raw, link):
            async def rogue():
                await h.send_frame(raw, f.encode_hello())
                await h.recv_frame(raw)
                await h.send_frame(raw, f.encode_open(1, 1024, b"t"))
                while f.decode_frame(await h.recv_frame(raw)).kind != f.T_ACCEPT:
                    pass
                await h.send(raw, bad_bytes)
                try:  # drain until the endpoint drops the carrier
                    while True:
                        await h.recv_frame(raw)
                except h.carrier_errors as exc:
                    seen["carrier"] = exc

            async def victim():
                endpoint = await h.establish(link, "responder", window=1024,
                                             node="victim")
                seen["endpoint"] = endpoint
                channel = await h.accept(endpoint)
                try:
                    await h.recv(channel, 1)
                except Exception as exc:
                    seen["reader"] = exc

            await h.gather(rogue(), victim())

        mux.run(script, establish=False)
        return seen

    @pytest.mark.parametrize("name", sorted(VIOLATIONS))
    def test_protocol_violation_fails_channels_and_drops_carrier(self, mux,
                                                                 name):
        body = VIOLATIONS[name]
        seen = self._run(mux, len(body).to_bytes(4, "big") + body)
        assert isinstance(seen["reader"], MuxProtocolError)
        assert not seen["endpoint"].alive
        assert "carrier" in seen, "the violator never saw the carrier drop"

    def test_oversized_frame_header_is_refused_not_allocated(self, mux):
        from repro.core.wire import WireError

        seen = self._run(mux, b"\xff\xff\xff\xff")
        assert isinstance(seen["reader"], WireError)
        assert not seen["endpoint"].alive and "carrier" in seen


class _CarrierFailed(Exception):
    """A carrier's own failure (a session's, say), not a transport error."""


class _OwnErrorCarrier:
    """A carrier with an error class of its own, as a session has: once
    ``dead``, the next read of it raises that."""

    error_class = _CarrierFailed

    def __init__(self, inner):
        self.inner = inner
        self.dead = False

    @coroutine
    def recv_exactly(self, n):
        data = yield from self.inner.recv_exactly(n)
        if self.dead:
            raise _CarrierFailed("the carrier failed under its reader")
        return data

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _SlowCarrier:
    """A carrier that lets the other tasks run after every write, as a slow
    one does; from write number ``fail_at`` on, every write raises."""

    def __init__(self, inner, runtime):
        self.inner = inner
        self.runtime = runtime
        self.writes = 0
        self.fail_at = None

    @coroutine
    def send_all(self, data):
        self.writes += 1
        if self.fail_at is not None and self.writes >= self.fail_at:
            raise ConnectionResetError("carrier gone mid-turn")
        yield from self.inner.send_all(data)
        yield from self.runtime.sleep(0)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _pump_wakes(endpoint) -> list:
    """Every wake that reaches the endpoint's parked tx pump, from now on."""
    wakes = []
    wake = endpoint.wake

    def counting(what, channel=None):
        parked = endpoint._waiters.get(endpoint.WAKE_TX)
        wake(what, channel)
        if parked and endpoint._waiters.get(endpoint.WAKE_TX) is not parked:
            wakes.append(what)

    endpoint.wake = counting
    return wakes


class WriteTurnCases:
    """Who puts a frame on the carrier: the writer that holds the write
    turn, or the tx pump for what no writer is waiting to send."""

    def test_a_lone_writers_blocks_leave_on_its_own_turn(self, mux):
        block = bytes(range(256)) * 256
        got = {}

        async def script(h, ini, resp):
            tx, rx = await h.gather(h.open(ini), h.accept(resp))
            wakes = _pump_wakes(ini)
            for _ in range(3):
                await h.send(tx, block)
            got["data"] = await h.recv_exactly(rx, 3 * len(block))
            got["wakes"] = list(wakes)

        mux.run(script)
        assert got["data"] == 3 * bytes(range(256)) * 256
        assert got["wakes"] == [], "the tx pump stepped in for a lone writer"

    def test_a_readers_credit_goes_out_without_the_reader_parking(self, mux):
        seen = {}

        async def script(h, ini, resp):
            tx, rx = await h.gather(h.open(ini), h.accept(resp))
            await h.send(tx, b"c" * 8192)
            assert tx._tx_credit == 0
            await h.until(lambda: rx._rx_allowance == 0)
            steps = rx.recv(8192)  # a generator-based coroutine: step it
            with pytest.raises(StopIteration) as done:
                steps.send(None)
            seen["read"] = len(done.value.value)
            await h.until(lambda: tx._tx_credit > 0)
            seen["credit"] = tx._tx_credit

        mux.run(script, window=8192)
        assert seen == {"read": 8192, "credit": 8192}

    def test_two_writers_on_one_endpoint_alternate_under_round_robin(self, mux):
        size = 160 * 1024
        order = []

        async def script(h, raw_ini, raw_resp):
            ini, resp = await h.gather(
                h.establish(_SlowCarrier(raw_ini, h.runtime), "initiator"),
                h.establish(raw_resp, "responder"))
            feed = resp.feed

            def recording_feed(body):
                frame = f.decode_frame(body)
                if frame.kind == f.T_DATA:
                    order.append(frame.channel)
                feed(body)

            resp.feed = recording_feed
            try:
                first, rfirst = await h.gather(h.open(ini), h.accept(resp))
                second, rsecond = await h.gather(h.open(ini), h.accept(resp))
                await h.gather(h.send(first, b"1" * size),
                               h.send(second, b"2" * size),
                               h.recv_exactly(rfirst, size),
                               h.recv_exactly(rsecond, size))
            finally:
                ini.close()
                resp.close()

        mux.run(script, establish=False)
        a, b = sorted(set(order))
        last_a = max(i for i, cid in enumerate(order) if cid == a)
        # the first frame is the first writer's whole-write turn, taken
        # before the second had queued anything; the second is its too,
        # being first in line when the other joined.  From there the
        # turn alternates until the first writer has drained
        middle = order[2:last_a + 1]
        assert order[:2] == [a, a] and middle.count(b) >= 4
        assert all(x != y for x, y in zip(middle, middle[1:])), order

    def test_a_transport_error_in_a_turn_fails_every_channel_once(self, mux):
        errors = {}
        fails = []

        async def script(h, raw_ini, raw_resp):
            carrier = _SlowCarrier(raw_ini, h.runtime)
            ini, resp = await h.gather(
                h.establish(carrier, "initiator"),
                h.establish(raw_resp, "responder"))
            try:
                first, _ = await h.gather(h.open(ini), h.accept(resp))
                second, _ = await h.gather(h.open(ini), h.accept(resp))
                fail = ini.fail
                ini.fail = lambda exc: (fails.append(exc), fail(exc))
                carrier.fail_at = carrier.writes + 2  # the turn's second frame

                async def write(name, channel):
                    try:
                        await h.send(channel, name.encode() * 100_000)
                    except Exception as exc:
                        errors[name] = exc

                await h.gather(write("a", first), write("b", second))
                errors["alive"] = ini.alive
                errors["fails"] = list(fails)
            finally:
                ini.close()
                resp.close()

        mux.run(script, establish=False)
        (failure,) = errors["fails"]
        assert isinstance(failure, ConnectionResetError)
        assert errors["a"] is errors["b"] is failure
        assert errors["alive"] is False

    def test_close_when_idle_still_closes(self, mux):
        seen = {}

        async def script(h, ini, resp):
            ini.close_when_idle = True
            tx, rx = await h.gather(h.open(ini), h.accept(resp))
            await h.send(tx, b"last words")
            tx.close()
            seen["data"] = await h.recv_exactly(rx, 10)
            seen["eof"] = await h.recv(rx, 1)
            rx.close()
            await h.until(lambda: not ini.alive)

        mux.run(script)
        assert seen == {"data": b"last words", "eof": b""}

    def test_a_second_writer_is_sent_before_the_first_writers_next_block(
            self, mux):
        size = 3 * LONE_DATA_PAYLOAD  # well inside the default window
        sent, ids = [], {}

        async def script(h, ini, resp):
            first, rfirst = await h.gather(h.open(ini), h.accept(resp))
            second, rsecond = await h.gather(h.open(ini), h.accept(resp))
            ids.update(first=first.channel_id, second=second.channel_id)
            next_frame = ini.next_frame

            def recording_next_frame():
                body = next_frame()
                if body is not None and body[0] == f.T_DATA:
                    frame = f.decode_frame(body)
                    sent.append((frame.channel, len(frame.payload)))
                return body

            ini.next_frame = recording_next_frame
            await h.gather(h.send(first, b"1" * size),
                           h.send(second, b"2" * size),
                           h.recv_exactly(rfirst, size),
                           h.recv_exactly(rsecond, size))

        mux.run(script)
        # the first writer's turn sends its first block whole, then lets
        # the second writer in, whose data leaves before the first
        # writer's second block has
        assert sent[0] == (ids["first"], LONE_DATA_PAYLOAD), sent
        joined = [cid for cid, _ in sent].index(ids["second"])
        ahead = sum(n for cid, n in sent[:joined] if cid == ids["first"])
        assert ahead < 2 * LONE_DATA_PAYLOAD, sent


@pytest.fixture
def mux(request):
    return request.cls.harness()


class TestChannels(ChannelsCases):
    harness = SimHarness


class TestCredit(CreditCases):
    harness = SimHarness


class TestFailure(FailureCases):
    harness = SimHarness


class TestViolations(ViolationCases):
    harness = SimHarness


@pytest.mark.livenet
class TestChannelsLive(ChannelsCases):
    harness = LiveHarness


@pytest.mark.livenet
class TestCreditLive(CreditCases):
    harness = LiveHarness


@pytest.mark.livenet
class TestFailureLive(FailureCases):
    harness = LiveHarness


@pytest.mark.livenet
class TestViolationsLive(ViolationCases):
    harness = LiveHarness


class TestWriteTurn(WriteTurnCases):
    harness = SimHarness


@pytest.mark.livenet
class TestWriteTurnLive(WriteTurnCases):
    harness = LiveHarness


class TestScheduling:
    @staticmethod
    def _race(first, second, **run_kw):
        """Two senders on one endpoint; returns who finished when."""
        finish = {}

        async def script(h, ini, resp):
            async def sender(tag, nbytes, weight):
                ch = await h.open(ini, tag=tag, weight=weight)
                await h.send(ch, tag[:1] * nbytes)
                finish[tag] = h.now()

            async def drain():
                ch = await h.accept(resp)
                while await h.recv(ch, 65536):
                    pass

            h.spawn(drain())
            h.spawn(drain())
            await h.gather(sender(*first), sender(*second))

        SimHarness().run(script, until=900, **run_kw)
        return finish

    def test_round_robin_interleaves_bulk_and_small(self):
        finish = self._race((b"bulk", 4_000_000, 1), (b"small", 2000, 1))
        # the small channel must not wait for the bulk transfer to finish
        assert finish[b"small"] < finish[b"bulk"]

    def test_weighted_scheduler_biases_throughput(self):
        finish = self._race(
            (b"heavy", 300_000, 4), (b"light", 300_000, 1),
            scheduler_a=WeightedScheduler(quantum=4096))
        assert finish[b"heavy"] < finish[b"light"]
