"""A call budget for the routed path (docs/PROTOCOLS.md §1).

A routed message pays every layer's per-frame work — relay, session, mux,
``tcp_block`` — and on the rpc path that work is interpreter calls.  Wall
time on a shared host cannot tell a few percent from noise; the number of
calls the layers make per block can, exactly.  One fixed transfer,
``BlockChannel > tcp_block > mux > session > routed`` through a relay on
the simulator, runs under ``sys.setprofile`` and the test holds the Python
calls (functions entered and coroutines resumed) per 64 KiB block whose
code lives in ``src/repro`` outside ``repro/simnet``: the bindings, the
cores and the buffer helpers the live stack runs as well, not the
simulated network under them.  It is deterministic and host-independent
(the same on Python 3.11, 3.12 and 3.13, the versions it was measured
on), and it fails when the per-frame calls taken out of the shared
bindings and cores come back.
"""

import os
import sys

import repro
import repro.simnet
from repro.core.session import SessionLink
from repro.core.utilization import BlockChannel, TcpBlockDriver
from repro.mux.endpoint import MuxEndpoint
from repro.workloads import payloads

from ..dual import SimRelay

#: measured 251.2 when the budget was set, on Python 3.11, 3.12 and 3.13
#: alike: 307.3 while the session's and the mux's pumps each read what the
#: link below them had queued, and 368.7 before the routed path's
#: per-frame calls were cut (reads straight off the mux and session cores,
#: DATA applied in ``MuxCore.feed``, queued routed data returned at once, a
#: small frame's length prefix joined in ``send_frame`` without a buffer
#: helper); the bound leaves ~15 % for interpreter differences.  Most of
#: what is left is the simulated sockets resuming the relay's and the
#: clients' read loops per segment.
CALLS_PER_BLOCK = 289

BLOCK = 1 << 16
MESSAGE = 1 << 20
MESSAGES = 8

_REPRO = os.path.dirname(repro.__file__)
_SIMNET = os.path.dirname(repro.simnet.__file__)


def _routed_transfer(counted: int) -> tuple:
    """``(Python calls into repro outside repro/simnet, blocks)`` over
    ``counted`` messages, after one message that is not counted."""
    result = {}

    async def script(h, a, b):
        link = await h.open(a, "node1")
        raw = await h.accept(b)

        async def no_redial(_session):
            raise AssertionError("nothing breaks this transfer")

        ini = SessionLink(link, 1, SessionLink.INITIATOR, reconnect=no_redial)
        resp = SessionLink(raw, 1, SessionLink.RESPONDER)
        ends = await h.gather(
            MuxEndpoint.establish(ini, MuxEndpoint.INITIATOR),
            MuxEndpoint.establish(resp, MuxEndpoint.RESPONDER))
        chans = await h.gather(ends[0].open_channel(), ends[1].accept_channel())
        tx, rx = (BlockChannel(TcpBlockDriver(chan)) for chan in chans)
        messages = [payloads.incompressible(MESSAGE, seed) for seed in range(4)]

        async def send(count):
            for i in range(count):
                await tx.send_message(messages[i % 4])

        async def receive(count):
            for i in range(count):
                assert await rx.recv_message() == messages[i % 4]

        await h.gather(send(1), receive(1))
        calls = 0

        def count(frame, event, _arg):
            nonlocal calls
            if event == "call":
                path = frame.f_code.co_filename
                if path.startswith(_REPRO) and not path.startswith(_SIMNET):
                    calls += 1

        sys.setprofile(count)
        try:
            await h.gather(send(counted), receive(counted))
        finally:
            sys.setprofile(None)
        result["calls"] = calls

    SimRelay().run(script)
    return result["calls"], counted * MESSAGE // BLOCK


def test_calls_per_routed_block():
    calls, blocks = _routed_transfer(MESSAGES)
    assert calls / blocks <= CALLS_PER_BLOCK, (
        f"{calls / blocks:.1f} Python calls per routed block")
