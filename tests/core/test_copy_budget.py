"""What a block costs in copies on its way down the routed stack.

``mux > session > routed link > relay connection``, as the live stack
builds it, with a sink for the relay connection's socket: one 64 KiB
block written with ``tcp_block`` into a mux channel reaches the sink as
one frame.  Each layer frames the bytes it is handed into a new buffer,
so the write holds six payload-sized buffers at its peak: ``tcp_block``'s
frame, the mux DATA frame and its length prefix, the session's ACK/DATA
join (kept in the replay buffer), the routed body and the relay frame.
The budget stops a seventh; a change that passes buffer lists down
tightens it (ROADMAP item 3).  Measured with ``tracemalloc``, as
``tests/relay/test_core.py`` bounds the relay core's allocations.
"""

import asyncio
import os
import tracemalloc

from repro import obs
from repro.core import relay_core
from repro.core.utilization import TcpBlockDriver
from repro.livenet import AsyncSessionLink, LiveRelayClient
from repro.livenet.mux import AsyncMuxEndpoint

BLOCK = 65536

#: payload-sized buffers alive at once while one block goes down
BUDGET = 6


class _Sink:
    """The relay connection's socket: keeps the size of each write only."""

    def __init__(self):
        self.sizes = []
        self.last = b""

    async def send_all(self, data) -> None:
        self.sizes.append(len(data))
        self.last = bytes(data[:8])  # the headers, never the payload

    async def recv_exactly(self, n):
        await asyncio.Event().wait()  # nothing arrives

    def close(self) -> None:
        pass


async def _stack():
    client = LiveRelayClient("a", ("127.0.0.1", 9))
    client._sock = sink = _Sink()
    client.connected = True
    link, _ = client.open("b")
    session = AsyncSessionLink(1, AsyncSessionLink.INITIATOR)
    session._raw = link
    session.attach(0.0)
    endpoint = AsyncMuxEndpoint(session, AsyncMuxEndpoint.INITIATOR)
    channel, _ = endpoint.open()
    endpoint._ctlq.clear()  # the OPEN: this test writes DATA only
    channel._accepted = True
    channel._tx_credit = 1 << 20
    return sink, channel


def test_one_block_goes_down_in_at_most_the_budgeted_copies():
    previous = obs.set_registry(obs.MetricsRegistry())

    async def main():
        sink, channel = await _stack()
        driver = TcpBlockDriver(channel)
        await driver.send_block(os.urandom(BLOCK))  # first-use allocations
        block = os.urandom(BLOCK)
        sink.sizes.clear()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            await driver.send_block(block)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        for task in asyncio.all_tasks() - {asyncio.current_task()}:
            task.cancel()
        return sink, peak

    try:
        sink, peak = asyncio.run(main())
    finally:
        obs.set_registry(previous)
    (size,) = sink.sizes  # one relay frame: the block and every header
    assert sink.last[4] == relay_core.T_MSG and BLOCK < size < BLOCK + 200
    assert peak < (BUDGET + 0.5) * BLOCK, (
        f"{peak} bytes allocated for a {BLOCK}-byte block, over "
        f"{BUDGET} copies: a layer copies it again on the way down")
