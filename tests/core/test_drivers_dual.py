"""The shared drivers, tested once and run on both bindings.

``tcp_block``, ``compress``, ``tls`` and ``BlockChannel`` are one source:
``async def`` coroutines that a simulator process and an asyncio task both
drive.  Each script below is written once against ``tests/dual.py``'s
harness and runs over simulated TCP and over real loopback sockets; the
arbitrary-bytes property needs no binding at all, only a stream that never
suspends.
"""

import asyncio
import inspect
import tracemalloc
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.utilization import (
    BlockChannel,
    CompressionDriver,
    DriverError,
    StackSpec,
    TcpBlockDriver,
    TlsDriver,
    build_stack,
    find_driver,
)
from repro.core.wire import MAX_FRAME, WireError, recv_frame, send_frame
from repro.ipl.registry import RegistryClient
from repro.security import CertificateAuthority, Identity
from repro.util.framing import frame

from ..dual import LiveHarness, SimHarness
from ..livenet.conftest import socket_pairs

CA = CertificateAuthority("dual-root")
_KEY, _CERT = CA.issue_identity("dual-server")
IDENTITY = Identity(_KEY, [_CERT])

STACKS = ["tcp_block", "compress|tcp_block", "tls|tcp_block", "tls|compress|tcp_block"]

#: 16 KiB of deflate stream that inflates to 16 MiB, four times ``MAX_FRAME``
BOMB = zlib.compress(bytes(16 << 20), 1)


@pytest.fixture(
    params=[SimHarness, pytest.param(LiveHarness, marks=pytest.mark.livenet)],
    ids=["sim", "live"],
)
def h(request):
    return request.param()


async def _stacks(h, spec, ini, resp):
    """``spec`` assembled on both ends, handshaken when it has a ``tls``."""
    parsed = StackSpec.parse(spec)
    a, b = build_stack(parsed, [ini]), build_stack(parsed, [resp])
    if "tls" in parsed:
        await h.gather(
            find_driver(a, TlsDriver).handshake_client(
                [CA.certificate], expected_server="dual-server"
            ),
            find_driver(b, TlsDriver).handshake_server(IDENTITY),
        )
    return a, b


@pytest.mark.parametrize("spec", STACKS)
def test_messages_round_trip(h, spec):
    messages = [b"first", b"", bytes(range(256)) * 600]  # 150 KiB: three blocks

    async def script(h, ini, resp):
        a, b = await _stacks(h, spec, ini, resp)
        tx, rx = BlockChannel(a), BlockChannel(b)

        async def send():
            for message in messages:
                await tx.send_message(message)

        async def receive():
            return [await rx.recv_message() for _ in messages]

        _, received = await h.gather(send(), receive())
        assert tx.bytes_written == rx.bytes_read
        return received

    assert h.run(script) == messages


def test_tcp_block_refuses_an_oversized_length_before_reading_the_body(h):
    async def script(h, ini, resp):
        # only the prefix is sent: a driver that went on to read the body
        # would wait for it forever instead of raising
        await h.send(ini, (MAX_FRAME + 1).to_bytes(4, "big"))
        with pytest.raises(WireError, match="oversized"):
            await TcpBlockDriver(resp).recv_block()

    h.run(script)


@pytest.mark.parametrize(
    "payload, why",
    [
        (b"", "empty"),
        (b"\x07hello", "bad compression flag 7"),
        (b"\x01" + zlib.compress(b"x" * 1000)[:-5], "truncated"),
        (b"\x01" + zlib.compress(b"x" * 1000) + b"tail", "after the deflate stream"),
        (b"\x01garbage", "corrupt"),
        (b"\x01" + BOMB, "inflates past"),
    ],
    ids=["empty", "flag7", "truncated", "trailing", "garbage", "bomb"],
)
def test_compress_refuses_a_malformed_block(h, payload, why):
    async def script(h, ini, resp):
        rx = CompressionDriver(TcpBlockDriver(resp))
        await h.send_frame(ini, payload)
        with pytest.raises(DriverError, match=why):
            await rx.recv_block()
        # the frame was consumed whole: the next block is still readable
        await h.send_frame(ini, b"\x00next")
        assert await rx.recv_block() == b"next"

    h.run(script)


def test_a_flipped_record_byte_fails_closed(h):
    async def script(h, ini, resp):
        a, b = await _stacks(h, "tls|tcp_block", ini, resp)
        record = bytearray(a.session.seal(b"sixteen byte msg"))
        record[len(record) // 2] ^= 0x01
        await a.child.send_block(bytes(record))
        with pytest.raises(DriverError, match="record authentication failed"):
            await b.recv_block()
        # the link went down with the session: the peer reads end of stream
        assert await h.recv(ini, 1) == b""
        for call in (b.recv_block, lambda: b.send_block(b"more")):
            with pytest.raises(DriverError, match="record authentication failed"):
                await call()

    h.run(script)


# -- arbitrary bytes as the peer's stream ------------------------------------


class _Bytes:
    """A peer's whole stream, already arrived: reads never suspend, so a
    driver call over it runs to completion in one ``send(None)``."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    async def recv_exactly(self, n):
        if self._pos + n > len(self._data):
            raise EOFError("stream ended")
        self._pos += n
        return self._data[self._pos - n : self._pos]


def _finish(coro):
    try:
        coro.send(None)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("suspended on a stream that never waits")


_streams = st.one_of(
    st.binary(max_size=512),
    # well-framed on the outside, arbitrary inside
    st.lists(st.binary(max_size=256).map(frame), max_size=4).map(b"".join),
    st.tuples(st.sampled_from([b"\x00", b"\x01", b"\x02"]), st.binary(max_size=256))
    .map(b"".join)
    .map(frame),
)


@settings(max_examples=150, deadline=None)
@given(_streams)
@example(frame(b"\x01" + BOMB))
@example((MAX_FRAME + 1).to_bytes(4, "big") + b"x")
@example(b"\xff\xff\xff\xff")
def test_arbitrary_bytes_raise_typed_errors_in_bounded_memory(data):
    calls = [
        lambda s: TcpBlockDriver(s).recv_block(),
        lambda s: CompressionDriver(TcpBlockDriver(s)).recv_block(),
        lambda s: BlockChannel(CompressionDriver(TcpBlockDriver(s))).recv_message(),
    ]
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                _finish(call(_Bytes(data)))
            except (EOFError, WireError, DriverError):
                pass
            finally:
                # twice the cap (zlib joins its output blocks into one
                # bytes) plus a few copies of what the peer really sent
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak <= 2 * MAX_FRAME + 4 * len(data)
    finally:
        tracemalloc.stop()


# -- the mechanism itself -----------------------------------------------------


def _io_methods(cls):
    return [
        fn
        for name, fn in inspect.getmembers(cls, inspect.isfunction)
        if not name.startswith("_") and name not in ("close", "abort")
    ]


@pytest.mark.parametrize(
    "fn",
    [send_frame, recv_frame]
    + [
        fn
        for cls in (TcpBlockDriver, CompressionDriver, TlsDriver, BlockChannel, RegistryClient)
        for fn in _io_methods(cls)
    ],
    ids=lambda fn: fn.__qualname__,
)
def test_every_io_method_is_a_generator_based_coroutine(fn):
    """One dialect: every IO method is an ``async def``, which both a
    simulator process and an asyncio task drive; only the runtime's
    leaves stay generators (``tests/core/test_runtime.py``)."""
    assert inspect.iscoroutinefunction(fn)


@pytest.mark.livenet
def test_handshakes_complete_under_gather_and_wait_for():
    """A driver method is a native coroutine, so asyncio takes it
    everywhere: ``gather``, ``wait_for`` and ``create_task`` (which 3.12
    refuses a generator-based coroutine)."""

    async def main():
        async with socket_pairs() as ((client,), (server,)):
            a, b = TlsDriver(TcpBlockDriver(client)), TlsDriver(TcpBlockDriver(server))
            session, _ = await asyncio.gather(
                asyncio.wait_for(a.handshake_client([CA.certificate]), timeout=10),
                asyncio.get_running_loop().create_task(b.handshake_server(IDENTITY)),
            )
            assert session is a.session and a.peer_subject == "dual-server"

    asyncio.run(asyncio.wait_for(main(), timeout=30))
