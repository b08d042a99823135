"""Property tests: mux frame codec + arbitrary channel interleavings.

Seeded-random style (no hypothesis at runtime, same idiom as
``tests/util/test_framing_prop.py``): each seed generates an arbitrary
schedule of channel opens, chunked writes, reads and closes on both
sides of a mux link, and the properties are

* every channel's bytes round-trip intact (no loss under backpressure),
* no bytes ever cross between channels (leakage),
* the whole schedule drains without deadlock (the sim run completes),
* every frame the codec can produce decodes back to itself.
"""

import random

import pytest

from repro import obs
from repro.core.links import TcpLink
from repro.mux import MuxEndpoint, decode_frame
from repro.mux.frames import (
    CLOSE_ERROR,
    CLOSE_GRACEFUL,
    MuxProtocolError,
    encode_accept,
    encode_close,
    encode_credit,
    encode_data,
    encode_hello,
    encode_open,
    encode_window,
)
from repro.obs.metrics import MetricsRegistry
from repro.simnet import connect, listen
from repro.simnet.testing import two_public_hosts


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(MetricsRegistry())
    yield
    obs.set_registry(previous)


class TestCodecRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_frames_round_trip(self, seed):
        rng = random.Random(f"mux-codec:{seed}")
        for _ in range(50):
            kind = rng.choice(["hello", "open", "accept", "data", "credit",
                               "window", "close"])
            cid = rng.randrange(1, 1 << 31)
            if kind == "hello":
                body = encode_hello(rng.randrange(1, 1 << 16),
                                    rng.randrange(0, 1 << 31))
                frame = decode_frame(body)
                assert (frame.name, frame.channel) == ("hello", 0)
            elif kind == "open":
                tag = rng.randbytes(rng.randrange(0, 64))
                ctx = rng.randbytes(rng.choice([0, 24]))
                window = rng.randrange(1, 1 << 31)
                frame = decode_frame(encode_open(cid, window, tag, ctx))
                assert (frame.channel, frame.window, frame.tag, frame.ctx) \
                    == (cid, window, tag, ctx)
            elif kind == "accept":
                window = rng.randrange(1, 1 << 31)
                frame = decode_frame(encode_accept(cid, window))
                assert (frame.channel, frame.window) == (cid, window)
            elif kind == "data":
                payload = rng.randbytes(rng.randrange(0, 2048))
                frame = decode_frame(encode_data(cid, payload))
                assert (frame.channel, frame.payload) == (cid, payload)
            elif kind == "credit":
                grant = rng.randrange(0, 1 << 31)
                frame = decode_frame(encode_credit(cid, grant))
                assert (frame.channel, frame.grant) == (cid, grant)
            elif kind == "window":
                window = rng.randrange(1, 1 << 31)
                frame = decode_frame(encode_window(cid, window))
                assert (frame.name, frame.channel, frame.window) \
                    == ("window", cid, window)
            else:
                flags = rng.choice([CLOSE_GRACEFUL, CLOSE_ERROR])
                reason = "".join(rng.choices("abcdef ", k=rng.randrange(0, 30)))
                frame = decode_frame(encode_close(cid, flags, reason))
                assert (frame.channel, frame.flags, frame.reason) \
                    == (cid, flags, reason)

    @pytest.mark.parametrize("seed", range(10))
    def test_truncated_frames_rejected(self, seed):
        rng = random.Random(f"mux-trunc:{seed}")
        body = encode_open(7, 1024, rng.randbytes(16), rng.randbytes(24))
        cut = rng.randrange(1, len(body))
        with pytest.raises(MuxProtocolError):
            decode_frame(body[:cut])

    def test_unknown_type_rejected(self):
        with pytest.raises(MuxProtocolError):
            decode_frame(b"\x2a" + b"\x00" * 4)


def _mux_pair(window):
    inet, a, b = two_public_hosts()
    sim = inet.sim
    out = {}

    async def srv():
        listener = listen(b, 5000)
        sock = await listener.accept()
        out["resp"] = await MuxEndpoint.establish(
            TcpLink(sock, "client_server"), MuxEndpoint.RESPONDER,
            window=window, node="resp")

    async def cli():
        sock = await connect(a, (b.ip, 5000))
        out["ini"] = await MuxEndpoint.establish(
            TcpLink(sock, "client_server"), MuxEndpoint.INITIATOR,
            window=window, node="ini")

    sim.process(srv())
    sim.process(cli())
    sim.run(until=30)
    return sim, out["ini"], out["resp"]


class TestInterleavings:
    @pytest.mark.parametrize("seed", range(12))
    def test_arbitrary_schedules_round_trip_without_leakage(self, seed):
        rng = random.Random(f"mux-interleave:{seed}")
        window = rng.choice([512, 2048, 8192, 65536])
        sim, ini, resp = _mux_pair(window)
        n_channels = rng.randrange(2, 9)
        payloads = {}
        for i in range(n_channels):
            # distinct per-channel byte pattern: leakage corrupts digests
            size = rng.randrange(1, 30_000)
            payloads[i] = bytes((i * 37 + j) % 251 for j in range(size))
        received = {}
        done = []

        async def writer(i, opener_ep):
            await sim.timeout(rng.random() * 2)
            ch = await opener_ep.open_channel(tag=str(i).encode())
            remaining = payloads[i]
            while remaining:
                cut = rng.randrange(1, len(remaining) + 1)
                await ch.send_all(remaining[:cut])
                remaining = remaining[cut:]
                if rng.random() < 0.3:
                    await sim.timeout(rng.random() * 0.5)
            ch.close()
            done.append(("w", i))

        async def reader(ch):
            chunks = []
            while True:
                data = await ch.recv(rng.randrange(100, 5000))
                if not data:
                    break
                chunks.append(data)
                if rng.random() < 0.2:
                    await sim.timeout(rng.random() * 0.3)
            received[int(ch.tag)] = b"".join(chunks)
            done.append(("r", int(ch.tag)))

        async def acceptor(ep, count):
            for _ in range(count):
                ch = await ep.accept_channel()
                sim.process(reader(ch), name=f"reader-{ch.channel_id}")

        # a random subset of channels opens in the reverse direction
        from_ini = [i for i in range(n_channels) if rng.random() < 0.7]
        from_resp = [i for i in range(n_channels) if i not in from_ini]
        for i in from_ini:
            sim.process(writer(i, ini))
        for i in from_resp:
            sim.process(writer(i, resp))
        sim.process(acceptor(resp, len(from_ini)))
        sim.process(acceptor(ini, len(from_resp)))
        sim.run(until=3600)
        assert received == payloads, "leakage or loss across channels"
        assert len(done) == 2 * n_channels, "schedule deadlocked"


class TestPortTagCodec:
    """The IPL port-connect OPEN tag (PR 8): round-trip + no nonce theft."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_port_tags_round_trip(self, seed):
        from repro.core.utilization.spec import StackSpec
        from repro.ipl.runtime import (
            decode_port_tag,
            encode_port_tag,
            is_port_tag,
        )

        rng = random.Random(f"port-tag:{seed}")
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_."
        for _ in range(25):
            port = "".join(rng.choices(alphabet, k=rng.randrange(1, 40)))
            sender = "".join(rng.choices(alphabet, k=rng.randrange(1, 40)))
            spec = rng.choice(
                ["tcp_block|mux", "parallel:2|mux", "compress|tcp_block|mux"]
            )
            block = rng.randrange(1, 1 << 31)
            tag = encode_port_tag(port, sender, StackSpec.parse(spec), block)
            assert is_port_tag(tag)
            assert decode_port_tag(tag) == (port, sender, spec, block)

    @pytest.mark.parametrize("seed", range(10))
    def test_nonce_tags_never_match(self, seed):
        # the factory's conversation tags are exactly 8 nonce bytes; the
        # fast-open matcher must never claim one, even when the nonce
        # happens to start with the magic
        from repro.ipl.runtime import PORT_TAG_MAGIC, is_port_tag

        rng = random.Random(f"nonce-tag:{seed}")
        for _ in range(50):
            nonce = rng.randrange(0, 1 << 64).to_bytes(8, "big")
            assert not is_port_tag(nonce)
        assert not is_port_tag(PORT_TAG_MAGIC + b"\x00" * 4)  # still 8 bytes

    @pytest.mark.parametrize("seed", range(5))
    def test_truncated_port_tags_rejected(self, seed):
        from repro.core.utilization.spec import StackSpec
        from repro.ipl.runtime import decode_port_tag, encode_port_tag
        from repro.util.framing import FrameError

        rng = random.Random(f"port-tag-trunc:{seed}")
        tag = encode_port_tag(
            "in", "alpha", StackSpec.parse("tcp_block|mux"), 4096
        )
        cut = rng.randrange(0, len(tag))
        with pytest.raises(FrameError):
            decode_port_tag(tag[:cut])
