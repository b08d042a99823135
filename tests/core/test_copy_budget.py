"""What a block costs in copies on its way through the routed stack.

``relay > session > mux > tcp_block``, as the live stack builds it, over
``LiveSocket`` protocol objects whose transport only records what it is
handed (its ``writelines`` is asyncio's own: one join, then one write, as
the socket transport's is before Python 3.12).  Every layer puts its
header in front of a large payload and hands the payload down by
reference, and hands it up as a view of the chunk it arrived in
(``repro.util.bytesbuf``), so a 64 KiB block holds, at the peak of

* the way down, one payload-sized buffer: the socket's join of every
  header and the block (from Python 3.12, ``sendmsg`` takes the list
  itself);
* the relay, one: the join of the forwarded body, still a view of the
  chunk it was read from, behind its length prefix;
* the way up, one: the ``bytes`` ``TcpBlockDriver.recv_block`` hands the
  application.  A relay frame that two socket reads split costs one more,
  the join that reassembles it; this test feeds each frame in one read.

Sixteen copies were made before payloads went by reference.  Each budget
stops one more copy in any layer of its direction.  Measured with
``tracemalloc``, as ``tests/relay/test_core.py`` bounds the relay core's
allocations.
"""

import asyncio
import os
import struct
import tracemalloc

from repro import obs
from repro.core import relay_core
from repro.core import session_core as sc
from repro.core.relay_core import RelayClientCore, routed_body
from repro.core.utilization import TcpBlockDriver
from repro.livenet import AsyncSessionLink, LiveRelayClient, LiveRelayServer
from repro.livenet.mux import AsyncMuxEndpoint
from repro.livenet.transport import LiveSocket
from repro.mux import DEFAULT_WINDOW
from repro.mux import frames as mf
from repro.util.bytesbuf import joined
from repro.util.framing import frame

BLOCK = 65536

#: payload-sized buffers alive at once while one block goes down
BUDGET_DOWN = 1
#: ... while the relay forwards the frame that carries it
BUDGET_RELAY = 1
#: ... while it comes up, out of one socket read, to ``recv_block``
BUDGET_UP = 1


class _Transport(asyncio.Transport):
    """Keeps the size and the first bytes of each write only."""

    def __init__(self):
        super().__init__()
        self.sizes = []
        self.head = b""

    def write(self, data) -> None:
        self.sizes.append(len(data))
        self.head = bytes(data[:8])  # the headers, never the payload

    def get_write_buffer_size(self) -> int:
        return 0

    def is_closing(self) -> bool:
        return False

    def close(self) -> None:
        pass

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass


def _socket():
    sock = LiveSocket()
    transport = _Transport()
    sock.connection_made(transport)
    return sock, transport


def _relay_frame(block: bytes) -> bytes:
    """What a relay connection carries for ``block`` written with
    ``tcp_block`` into mux channel 1 of node ``a``'s session to ``b``."""
    mux = frame(mf.encode_data(1, frame(block)))
    data = struct.pack("!BI", sc.F_DATA, len(mux)) + mux
    return frame(joined(routed_body(relay_core.T_MSG, "a", "b", 1, data)))


def _measure(main):
    """Runs ``main(peak)``; ``peak(step)`` runs ``step`` under tracemalloc
    and returns the bytes it held at its peak."""
    previous = obs.set_registry(obs.MetricsRegistry())

    async def peak(step):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = await step()
            return tracemalloc.get_traced_memory()[1] - before, result
        finally:
            tracemalloc.stop()

    async def run():
        try:
            return await main(peak)
        finally:
            for task in asyncio.all_tasks() - {asyncio.current_task()}:
                task.cancel()

    try:
        return asyncio.run(run())
    finally:
        obs.set_registry(previous)


def _within(peak: int, budget: int, where: str) -> None:
    assert peak < (budget + 0.5) * BLOCK, (
        f"{peak} bytes allocated for a {BLOCK}-byte block, over {budget} "
        f"copies: a layer copies it again {where}")


async def _sending_stack():
    client = LiveRelayClient("a", ("127.0.0.1", 9))
    client._sock, transport = _socket()
    client.connected = True
    link, _ = client.open("b")
    # the data path is the same either role: a responder needs no redial
    session = AsyncSessionLink(None, 1, AsyncSessionLink.RESPONDER)
    session._raw = link
    session.attach(0.0)
    endpoint = AsyncMuxEndpoint(session, AsyncMuxEndpoint.INITIATOR)
    channel, _ = endpoint.open()
    endpoint._ctlq.clear()  # the OPEN: this test writes DATA only
    channel._accepted = True
    channel._tx_credit = 1 << 20
    return transport, TcpBlockDriver(channel)


async def _receiving_stack():
    client = LiveRelayClient("b", ("127.0.0.1", 9))
    client._sock, _ = sock, _ = _socket()
    client.connected = True
    link = client._add_link("a", 1, False)  # what a's OPEN would have made
    session = AsyncSessionLink(None, 1, AsyncSessionLink.RESPONDER)
    session._raw = link
    session.attach(0.0)
    endpoint = AsyncMuxEndpoint(session, AsyncMuxEndpoint.RESPONDER)
    endpoint.feed(mf.encode_open(1, DEFAULT_WINDOW))
    channel = endpoint.accept()
    endpoint._spawn(endpoint._rx_pump(), "mux-rx")
    client._spawn(client._reader(), "relay-client")
    return sock, TcpBlockDriver(channel)


def test_one_block_goes_down_in_at_most_the_budgeted_copies():
    async def main(peak):
        transport, driver = await _sending_stack()
        await driver.send_block(os.urandom(BLOCK))  # first-use allocations
        block = os.urandom(BLOCK)
        transport.sizes.clear()
        held, _ = await peak(lambda: driver.send_block(block))
        return transport, held

    transport, held = _measure(main)
    (size,) = transport.sizes  # one relay frame: the block and every header
    assert transport.head[4] == relay_core.T_MSG and BLOCK < size < BLOCK + 200
    _within(held, BUDGET_DOWN, "on the way down")


def test_the_relay_forwards_a_frame_in_at_most_the_budgeted_copies():
    async def main(peak):
        server = LiveRelayServer()
        src, _ = _socket()
        dst, transport = _socket()
        server.register("b", dst)
        server._spawn(server._session(src), "relay-session")
        src.data_received(frame(RelayClientCore("a").register_frame()))
        frames = [frame(joined(routed_body(
            relay_core.T_MSG, "a", "b", 1, os.urandom(BLOCK))))
            for _ in range(2)]

        async def forward(data):
            src.data_received(data)
            while len(transport.sizes) < 1:
                await asyncio.sleep(0)

        await forward(frames[0])  # first-use allocations
        transport.sizes.clear()
        held, _ = await peak(lambda: forward(frames[1]))
        return transport, held, len(frames[1])

    transport, held, sent = _measure(main)
    assert transport.sizes == [sent]  # the frame as it arrived, whole
    _within(held, BUDGET_RELAY, "in the relay")


def test_one_block_comes_up_in_at_most_the_budgeted_copies():
    blocks = [os.urandom(BLOCK) for _ in range(2)]
    frames = [_relay_frame(block) for block in blocks]

    async def main(peak):
        sock, driver = await _receiving_stack()
        sock.data_received(frames[0])
        first = await driver.recv_block()  # first-use allocations

        async def receive():
            sock.data_received(frames[1])
            return await driver.recv_block()

        held, second = await peak(receive)
        return [first, second], held

    got, held = _measure(main)
    assert got == blocks and all(type(block) is bytes for block in got)
    _within(held, BUDGET_UP, "on the way up")
