"""Utilization drivers: TCP_Block, parallel streams, compression, TLS."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.links import TcpLink
from repro.core.utilization import (
    AdaptiveCompressionDriver,
    BlockChannel,
    CompressionDriver,
    DriverError,
    ParallelStreamsDriver,
    TcpBlockDriver,
    TlsDriver,
)
from repro.security import CertificateAuthority, HandshakeError, Identity
from repro.simnet import CpuModel, connect, listen
from repro.simnet.tcp import ESTABLISHED
from repro.simnet.testing import two_public_hosts, wan_pair
from repro.util.bytesbuf import frozen


def _linked_pair(inet, a, b, n=1, port=5000):
    """Create n TCP links between a and b; returns (a_links, b_links)."""
    sim = inet.sim
    out = {}

    async def srv():
        listener = listen(b, port, backlog=n)
        links = []
        for _ in range(n):
            sock = await listener.accept()
            links.append(TcpLink(sock, "client_server"))
        out["b"] = links

    async def cli():
        links = []
        for _ in range(n):
            sock = await connect(a, (b.ip, port))
            links.append(TcpLink(sock, "client_server"))
        out["a"] = links

    sim.process(srv())
    sim.process(cli())
    sim.run(until=sim.now + 30)
    return out["a"], out["b"]


def _exchange(inet, send_driver, recv_driver, blocks, until=120):
    """Send blocks through one driver, collect from the other."""
    sim = inet.sim
    received = []

    async def sender():
        for block in blocks:
            await send_driver.send_block(block)
        send_driver.close()

    async def receiver():
        while True:
            try:
                block = await recv_driver.recv_block()
            except EOFError:
                return
            received.append(block)
            if len(received) == len(blocks):
                return

    sim.process(sender())
    sim.process(receiver())
    sim.run(until=sim.now + until)
    return received


class TestTcpBlockDriver:
    def test_blocks_round_trip(self):
        inet, a, b = two_public_hosts()
        (la,), (lb,) = _linked_pair(inet, a, b)
        blocks = [b"one", b"two" * 1000, b"", b"three"]
        assert _exchange(inet, TcpBlockDriver(la), TcpBlockDriver(lb), blocks) == blocks

    def test_counts(self):
        inet, a, b = two_public_hosts()
        (la,), (lb,) = _linked_pair(inet, a, b)
        tx, rx = TcpBlockDriver(la), TcpBlockDriver(lb)
        _exchange(inet, tx, rx, [b"x"] * 5)
        assert tx.blocks_sent == 5
        assert rx.blocks_received == 5

    def test_eof_on_close(self):
        inet, a, b = two_public_hosts()
        (la,), (lb,) = _linked_pair(inet, a, b)
        rx = TcpBlockDriver(lb)
        out = _exchange(inet, TcpBlockDriver(la), rx, [b"only"])
        assert out == [b"only"]


class TestParallelStreams:
    @pytest.mark.parametrize("nstreams", [1, 2, 4, 8])
    def test_blocks_round_trip(self, nstreams):
        inet, a, b = two_public_hosts()
        la, lb = _linked_pair(inet, a, b, n=nstreams)
        blocks = [bytes([i]) * (1000 * i + 1) for i in range(6)]
        tx = ParallelStreamsDriver(la, fragment=512)
        rx = ParallelStreamsDriver(lb, fragment=512)
        assert _exchange(inet, tx, rx, blocks) == blocks

    def test_fragmentation_is_transparent(self):
        inet, a, b = two_public_hosts()
        la, lb = _linked_pair(inet, a, b, n=3)
        block = bytes(range(256)) * 100  # not a multiple of the fragment
        tx = ParallelStreamsDriver(la, fragment=999)
        rx = ParallelStreamsDriver(lb, fragment=999)
        assert _exchange(inet, tx, rx, [block]) == [block]

    def test_mismatched_fragment_sizes_would_break(self):
        # Striping requires both sides to agree on the fragment size; the
        # stack-spec negotiation guarantees it.  Verify the premise.
        inet, a, b = two_public_hosts()
        la, lb = _linked_pair(inet, a, b, n=2)
        tx = ParallelStreamsDriver(la, fragment=100)
        rx = ParallelStreamsDriver(lb, fragment=100)
        blocks = [b"z" * 250]
        assert _exchange(inet, tx, rx, blocks) == blocks

    def test_empty_links_rejected(self):
        with pytest.raises(DriverError):
            ParallelStreamsDriver([])

    def test_bad_fragment_rejected(self):
        inet, a, b = two_public_hosts()
        la, lb = _linked_pair(inet, a, b, n=1)
        with pytest.raises(DriverError):
            ParallelStreamsDriver(la, fragment=0)

    def test_multiple_streams_beat_one_on_high_bdp(self):
        """The §4.2 effect through the driver itself."""

        def run(nstreams):
            inet, a, b = wan_pair(capacity=9e6, one_way_delay=0.0215, seed=1)
            la, lb = _linked_pair(inet, a, b, n=nstreams)
            tx = ParallelStreamsDriver(la)
            rx = ParallelStreamsDriver(lb)
            cha, chb = BlockChannel(tx), BlockChannel(rx)
            nbytes = 4_000_000
            res = {}

            async def sender():
                payload = b"d" * 65536
                sent = 0
                res["t0"] = inet.sim.now
                while sent < nbytes:
                    await cha.write(payload)
                    sent += len(payload)
                await cha.flush()

            async def receiver():
                got = 0
                while got < nbytes:
                    got += len(await chb.read(1 << 20))
                res["t1"] = inet.sim.now

            inet.sim.process(sender())
            inet.sim.process(receiver())
            inet.sim.run(until=600)
            return nbytes / (res["t1"] - res["t0"]) / 1e6

        one, four = run(1), run(4)
        assert four > 2.5 * one


class TestCompression:
    def _pair(self, inet, a, b, level=1, host=None):
        (la,), (lb,) = _linked_pair(inet, a, b)
        tx = CompressionDriver(TcpBlockDriver(la), host=host, level=level)
        rx = CompressionDriver(TcpBlockDriver(lb), host=host, level=level)
        return tx, rx

    def test_compressible_data_round_trips(self):
        inet, a, b = two_public_hosts()
        tx, rx = self._pair(inet, a, b)
        blocks = [b"abcd" * 5000, b"x" * 100]
        assert _exchange(inet, tx, rx, blocks) == blocks
        assert tx.ratio > 2.0

    def test_incompressible_data_sent_raw(self):
        import os

        inet, a, b = two_public_hosts()
        tx, rx = self._pair(inet, a, b)
        block = bytes(os.urandom(10000))
        assert _exchange(inet, tx, rx, [block]) == [block]
        assert tx.ratio <= 1.0  # flag byte makes it slightly negative

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=0, max_size=5000))
    def test_arbitrary_payload_property(self, payload):
        inet, a, b = two_public_hosts()
        tx, rx = self._pair(inet, a, b)
        assert _exchange(inet, tx, rx, [payload]) == [payload]

    def test_bad_level_rejected(self):
        with pytest.raises(DriverError):
            CompressionDriver(None, level=0)

    def test_cpu_model_charges_time(self):
        inet, a, b = two_public_hosts()
        cpu = CpuModel(inet.sim, rates={"compress": 1_000_000.0}).attach(a)
        tx, rx = self._pair(inet, a, b, host=a)
        t0 = inet.sim.now
        _exchange(inet, tx, rx, [b"q" * 1_000_000])
        # 1 MB at 1 MB/s -> at least ~1 simulated second of CPU time
        assert cpu.busy_seconds >= 0.99


class TestAdaptiveCompression:
    def _channel_pair(self, capacity, compress_rate, seed=1):
        inet, a, b = wan_pair(capacity=capacity, one_way_delay=0.01, seed=seed)
        CpuModel(inet.sim, rates={"compress": compress_rate}).attach(a)
        CpuModel(inet.sim, rates={"decompress": 50e6}).attach(b)
        (la,), (lb,) = _linked_pair(inet, a, b)
        tx = AdaptiveCompressionDriver(TcpBlockDriver(la), a)
        rx = AdaptiveCompressionDriver(TcpBlockDriver(lb), b)
        return inet, tx, rx

    def _stream(self, inet, tx, rx, nblocks=120, block=b"text-like-data " * 1000):
        blocks = [block] * nblocks
        got = _exchange(inet, tx, rx, blocks, until=600)
        assert got == blocks

    def test_slow_link_prefers_compression(self):
        inet, tx, rx = self._channel_pair(capacity=1e6, compress_rate=20e6)
        self._stream(inet, tx, rx)
        assert tx.current_preference == "compress"
        assert tx.mode_counts[1] > tx.mode_counts[0]

    def test_fast_link_slow_cpu_prefers_raw(self):
        inet, tx, rx = self._channel_pair(capacity=50e6, compress_rate=1e6)
        self._stream(inet, tx, rx)
        assert tx.current_preference == "raw"

    def test_requires_host(self):
        with pytest.raises(DriverError):
            AdaptiveCompressionDriver(None, None)


class TestTlsDriver:
    @pytest.fixture(scope="class")
    def pki(self):
        ca = CertificateAuthority("root")
        key, cert = ca.issue_identity("server.node")
        return {"ca": ca, "server": Identity(key, [cert])}

    def _secured_pair(self, inet, a, b, pki):
        (la,), (lb,) = _linked_pair(inet, a, b)
        tx = TlsDriver(TcpBlockDriver(la))
        rx = TlsDriver(TcpBlockDriver(lb))
        done = {}

        async def client():
            await tx.handshake_client([pki["ca"].certificate], seed=b"c")
            done["client"] = True

        async def server():
            await rx.handshake_server(pki["server"], seed=b"s")
            done["server"] = True

        inet.sim.process(client())
        inet.sim.process(server())
        inet.sim.run(until=inet.sim.now + 30)
        assert done == {"client": True, "server": True}
        return tx, rx

    def test_handshake_and_transfer(self, pki):
        inet, a, b = two_public_hosts()
        tx, rx = self._secured_pair(inet, a, b, pki)
        assert tx.peer_subject == "server.node"
        blocks = [b"secret-block" * 100, b"two"]
        assert _exchange(inet, tx, rx, blocks) == blocks

    def test_data_on_wire_is_ciphertext(self, pki):
        inet, a, b = two_public_hosts()
        seen = []
        inet.net.tracers.append(
            lambda e: seen.append(e["segment"].payload)
            if e["kind"] == "tx" and e["segment"].payload
            else None
        )
        tx, rx = self._secured_pair(inet, a, b, pki)
        _exchange(inet, tx, rx, [b"TOP-SECRET-PAYLOAD" * 50])
        joined = b"".join(seen)
        assert b"TOP-SECRET-PAYLOAD" not in joined

    def test_send_before_handshake_fails(self, pki):
        inet, a, b = two_public_hosts()
        (la,), (lb,) = _linked_pair(inet, a, b)
        tx = TlsDriver(TcpBlockDriver(la))
        with pytest.raises(DriverError, match="handshake"):
            tx.send_block(b"x").send(None)

    def test_tampered_record_detected(self, pki):
        from repro.security import RecordError

        inet, a, b = two_public_hosts()
        tx, rx = self._secured_pair(inet, a, b, pki)
        # Seal a record, corrupt it, feed it below the receiver's TLS.
        record = bytearray(tx.session.seal(b"block"))
        record[-1] ^= 1
        with pytest.raises(RecordError):
            rx.session.open(bytes(record))


    def test_authentication_failure_is_fatal_to_the_link(self, pki):
        """A record tampered with in flight: the receiver raises, closes
        the link under it (the peer sees EOF), and never seals again."""
        inet, a, b = two_public_hosts()
        tx, rx = self._secured_pair(inet, a, b, pki)
        record = bytearray(tx.session.seal(b"block" * 100))
        record[7] ^= 1
        seen = {}

        async def sender():
            await tx.child.send_block(bytes(record))  # below tx's TLS
            try:
                await tx.recv_block()
            except EOFError:
                seen["peer"] = "eof"

        async def receiver():
            try:
                await rx.recv_block()
            except DriverError as exc:
                seen["error"] = str(exc)

        inet.sim.process(sender())
        inet.sim.process(receiver())
        inet.sim.run(until=inet.sim.now + 30)
        assert seen["error"].startswith("record authentication failed: MAC failure")
        assert seen["peer"] == "eof"
        assert rx.child.link.socket.tcp.state != ESTABLISHED
        for call in (lambda: rx.send_block(b"x"), rx.recv_block):
            with pytest.raises(DriverError, match="record authentication failed"):
                call().send(None)

    def test_handshake_failure_is_fatal_to_the_link(self, pki):
        """A client that rejects the server's chain raises and closes the
        link under it, so the server's pending ``recv_block`` for the
        ClientFinished ends in EOF instead of waiting for good."""
        inet, a, b = two_public_hosts()
        (la,), (lb,) = _linked_pair(inet, a, b)
        tx = TlsDriver(TcpBlockDriver(la))
        rx = TlsDriver(TcpBlockDriver(lb))
        untrusted = CertificateAuthority("someone-else").certificate
        seen = {}

        async def client():
            try:
                await tx.handshake_client([untrusted], seed=b"c")
            except HandshakeError as exc:
                seen["client"] = str(exc)

        async def server():
            try:
                await rx.handshake_server(pki["server"], seed=b"s")
            except EOFError:
                seen["server"] = "eof"

        inet.sim.process(client())
        inet.sim.process(server())
        inet.sim.run(until=inet.sim.now + 30)
        assert seen["client"].startswith("server certificate rejected")
        assert seen["server"] == "eof"
        assert tx.session is None and rx.session is None


class TestBlockChannel:
    def test_write_flush_read(self):
        inet, a, b = two_public_hosts()
        (la,), (lb,) = _linked_pair(inet, a, b)
        cha = BlockChannel(TcpBlockDriver(la), block_size=1024)
        chb = BlockChannel(TcpBlockDriver(lb), block_size=1024)
        payload = bytes(range(256)) * 20
        result = {}

        async def writer():
            await cha.write(payload)
            await cha.flush()

        async def reader():
            result["data"] = await chb.read_exactly(len(payload))

        inet.sim.process(writer())
        inet.sim.process(reader())
        inet.sim.run(until=inet.sim.now + 30)
        assert result["data"] == payload

    def test_small_writes_are_aggregated(self):
        """§4.1: many small sends leave as few blocks."""
        inet, a, b = two_public_hosts()
        (la,), (lb,) = _linked_pair(inet, a, b)
        drv = TcpBlockDriver(la)
        cha = BlockChannel(drv, block_size=4096)
        chb = BlockChannel(TcpBlockDriver(lb), block_size=4096)
        result = {}

        async def writer():
            for _ in range(4096):
                await cha.write(b"x")  # 4096 one-byte writes
            await cha.flush()

        async def reader():
            result["data"] = await chb.read_exactly(4096)

        inet.sim.process(writer())
        inet.sim.process(reader())
        inet.sim.run(until=inet.sim.now + 30)
        assert result["data"] == b"x" * 4096
        assert drv.blocks_sent == 1  # a single aggregated block

    def test_messages_round_trip(self):
        inet, a, b = two_public_hosts()
        (la,), (lb,) = _linked_pair(inet, a, b)
        cha = BlockChannel(TcpBlockDriver(la))
        chb = BlockChannel(TcpBlockDriver(lb))
        messages = [b"first", b"", b"third" * 1000]
        result = {"got": []}

        async def writer():
            for msg in messages:
                await cha.send_message(msg)

        async def reader():
            for _ in messages:
                result["got"].append(await chb.recv_message())

        inet.sim.process(writer())
        inet.sim.process(reader())
        inet.sim.run(until=inet.sim.now + 30)
        assert result["got"] == messages

    def test_eof_propagates(self):
        inet, a, b = two_public_hosts()
        (la,), (lb,) = _linked_pair(inet, a, b)
        cha = BlockChannel(TcpBlockDriver(la))
        chb = BlockChannel(TcpBlockDriver(lb))
        result = {}

        async def writer():
            await cha.write(b"tail")
            await cha.flush()
            cha.close()

        async def reader():
            result["data"] = await chb.read(100)
            result["eof"] = await chb.read(100)

        inet.sim.process(writer())
        inet.sim.process(reader())
        inet.sim.run(until=inet.sim.now + 30)
        assert result == {"data": b"tail", "eof": b""}

    @given(chunks=st.lists(st.binary(max_size=300), max_size=20),
           block_size=st.integers(1, 128),
           kind=st.sampled_from(["bytes", "bytearray", "memoryview"]))
    @settings(max_examples=200, deadline=None)
    def test_blocks_are_the_stream_cut_at_block_size_however_it_is_written(
            self, chunks, block_size, kind):
        """Blocks are cut where the stream crosses a block boundary, not
        where a write does: a block inside one large write leaves as a
        view of it, the rest through the buffer.  Every block is ``bytes``
        or a view of ``bytes`` (``frozen`` keeps it as it is), so a caller
        that reuses its buffer changes nothing already sent."""
        sent = []

        class Recorder:
            async def send_block(self, block):
                sent.append(block)

        def drive(coro):
            with pytest.raises(StopIteration):
                coro.send(None)

        make = {"bytes": bytes, "bytearray": bytearray,
                "memoryview": lambda c: memoryview(bytearray(c))}[kind]
        buffers = [make(chunk) for chunk in chunks]
        channel = BlockChannel(Recorder(), block_size=block_size)
        for buf in buffers:
            drive(channel.write(buf))
            if kind != "bytes":
                buf[:] = bytes(len(buf))  # the caller reuses its buffer
        drive(channel.flush())
        stream = b"".join(chunks)
        assert sent == [stream[i:i + block_size]
                        for i in range(0, len(stream), block_size)]
        assert all(frozen(block) is block for block in sent)
        assert channel.bytes_written == len(stream)

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            BlockChannel(None, block_size=0)
