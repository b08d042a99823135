#!/usr/bin/env python3
"""Frame census of the routed stack on loopback (a printed diagnostic).

Builds ``relay > session > mux > tcp_block`` the way the perf ledger's
``routed_full`` rung does, streams 1 MiB messages one way through an
``BlockChannel`` pair and prints, per MiB of payload:

* relay frames forwarded (either direction) and how many of them carry
  at most 64 bytes — the per-frame cost of the relay is what paper §3.4
  calls the bottleneck, so the layers above must not multiply it;
* mux frames by kind and session frames by kind, as decoded from what the
  relay forwarded;
* ``mux.backpressure_waits`` — episodes of buffered bytes meeting zero
  credit;
* the event loop's own work: handles run (``asyncio.Handle._run``, every
  task step and callback) and futures created (``loop.create_future`` and
  ``loop.create_task``) — the per-frame task wake-ups the layers cost.

Two more phases, each on a stack of its own, then count the interpreter's
work with ``sys.setprofile``, so that the profiler slows none of the
figures above: Python calls (every function entered and every coroutine
resumed, the event loop's included) per MiB and per 64 KiB block of the
same stream, and per round trip of 256-byte request/echo on two mux
channels, as the perf ledger's ``rpc_routed`` runs it; and of each, the
calls into this repository's code.  The event loop's share depends on the
Python version, the repository's does not: ``--max-calls`` and
``--max-block-calls`` gate that one, per round trip and per block.

``make frame-census`` runs it; ``--max-frames`` / ``--max-stalls`` /
``--max-handles`` / ``--max-futures`` / ``--max-calls`` /
``--max-block-calls`` turn the headline numbers into an exit status.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import contextlib
import json
import os
import struct
import sys

import repro
from repro import obs
from repro.core import relay_core, session_core
from repro.core.utilization import BlockChannel, TcpBlockDriver
from repro.livenet import (
    AsyncSessionLink,
    AsyncSessionListener,
    LiveRelayClient,
    LiveRelayServer,
)
from repro.livenet.mux import AsyncMuxEndpoint
from repro.mux import frames as mux_frames
from repro.workloads import payloads

MIB = 1 << 20
SMALL = 64
#: the block ``BlockChannel`` cuts a message into
BLOCK = 1 << 16
#: payload of one rpc request and of its echo, as ``rpc_routed`` sends
RPC_SIZE = 256
#: round trips per channel before the rpc phase counts, and counted
RPC_WARM, RPC_TRIPS = 200, 1000
#: MiB streamed on a fresh stack before its Python calls are counted, and
#: counted
CALL_WARM_MIB, CALL_MIB = 4, 16

_SESSION_KINDS = {
    getattr(session_core, f"F_{name.upper()}"): name
    for name in ("data", "ack", "ping", "pong", "fin", "finack", "retune")
}


class CensusRelay(LiveRelayServer):
    """A relay that keeps the payload of every MSG it forwards."""

    def __init__(self):
        super().__init__()
        self.payload_sizes: list[int] = []
        #: forwarded payload bytes per (src, dst), in order: the two
        #: directions of the session stream
        self.streams = collections.defaultdict(bytearray)

    def route(self, src, body, origin):
        hop = super().route(src, body, origin)
        if (hop is not None and hop.head is not None
                and hop.head[0] == relay_core.T_MSG):
            start, end = hop.head[5], hop.head[6]
            self.payload_sizes.append(end - start)
            self.streams[(hop.head[2], hop.head[3])] += body[start:end]
        return hop


class _Listener:
    addr = ("relay", 0)

    def __init__(self, client):
        self._client = client

    async def accept(self):
        return await self._client.accept_link()

    def close(self) -> None:
        pass


def _session_frames(stream: bytes):
    """``(kind, payload)`` of every session frame in one direction."""
    pos = 0
    while pos < len(stream):
        kind = stream[pos]
        size = session_core._BODY_SIZE[kind]
        pos += 1 + size
        payload = b""
        if kind == session_core.F_DATA:
            (length,) = struct.unpack_from("!I", stream, pos - 4)
            payload = stream[pos:pos + length]
            pos += length
        yield kind, payload


def _mux_frames(carried: bytes):
    """Every mux frame in the bytes a session delivered."""
    pos = 0
    while pos < len(carried):
        (length,) = struct.unpack_from("!I", carried, pos)
        yield mux_frames.decode_frame(bytes(carried[pos + 4:pos + 4 + length]))
        pos += 4 + length


@contextlib.contextmanager
def loop_work(loop):
    """Count handle runs and futures created on ``loop`` inside the block."""
    counts = collections.Counter()
    run = asyncio.Handle._run
    create_future, create_task = loop.create_future, loop.create_task

    def counted_run(handle):
        counts["handles"] += 1
        return run(handle)

    def counted_future():
        counts["futures"] += 1
        return create_future()

    def counted_task(*args, **kwargs):
        counts["futures"] += 1
        return create_task(*args, **kwargs)

    asyncio.Handle._run = counted_run
    loop.create_future, loop.create_task = counted_future, counted_task
    try:
        yield counts
    finally:
        asyncio.Handle._run = run
        del loop.create_future, loop.create_task


@contextlib.contextmanager
def python_calls():
    """Count the Python calls made inside the block: every function
    entered and every coroutine or generator resumed (``sys.setprofile``'s
    ``call`` events), and how many of them run this repository's code."""
    counts = collections.Counter()
    own = os.path.dirname(repro.__file__)

    def profile(frame, event, _arg):
        if event == "call":
            counts["calls"] += 1
            if frame.f_code.co_filename.startswith(own):
                counts["own"] += 1

    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(None)


class RoutedStack:
    """``relay > session > mux`` between two relay clients, and
    ``channels`` channel pairs over it, each end a ``BlockChannel`` over
    ``tcp_block`` — how ``benchmarks/perf`` builds its ``routed_full``
    rung."""

    def __init__(self):
        self.pairs: list[tuple] = []

    async def open(self, relay, channels: int, name: str) -> "RoutedStack":
        self.a_client = await LiveRelayClient(f"{name}-a", relay.addr).connect()
        self.b_client = await LiveRelayClient(f"{name}-b", relay.addr).connect()
        self.sessions = AsyncSessionListener(_Listener(self.b_client))

        async def dial():
            return await self.a_client.open_link(self.b_client.node_id)

        self.a_link = await AsyncSessionLink.connect(dial)
        b_link = await self.sessions.accept()
        self.a_end, self.b_end = await asyncio.gather(
            AsyncMuxEndpoint.establish(self.a_link, AsyncMuxEndpoint.INITIATOR),
            AsyncMuxEndpoint.establish(b_link, AsyncMuxEndpoint.RESPONDER),
        )
        for _ in range(channels):
            a_chan, b_chan = await asyncio.gather(
                self.a_end.open_channel(), self.b_end.accept_channel())
            self.pairs.append((BlockChannel(TcpBlockDriver(a_chan)),
                               BlockChannel(TcpBlockDriver(b_chan))))
        return self

    async def close(self) -> None:
        self.a_end.close()
        self.b_end.close()
        await self.a_link.aclose()
        self.sessions.close()
        await asyncio.sleep(0)
        self.a_client.close()
        self.b_client.close()


async def one_way(tx, rx, messages: list, count: int) -> None:
    """``count`` messages from ``tx`` to ``rx``, each checked."""

    async def send():
        for i in range(count):
            await tx.send_message(messages[i % 4])

    async def receive():
        for i in range(count):
            if await rx.recv_message() != messages[i % 4]:
                raise SystemExit(f"message {i} differs from what was sent")

    await asyncio.gather(send(), receive())


async def rpc(pairs: list, requests: list, trips: int) -> None:
    """``trips`` request/echo round trips on every channel pair at once,
    one outstanding per pair, each echo checked."""

    async def request(tx):
        for i in range(trips):
            await tx.send_message(requests[i % 4])
            if await tx.recv_message() != requests[i % 4]:
                raise SystemExit(f"echo {i} differs from its request")

    async def echo(rx):
        for _ in range(trips):
            await rx.send_message(await rx.recv_message())

    await asyncio.gather(*(request(tx) for tx, _rx in pairs),
                         *(echo(rx) for _tx, rx in pairs))


async def census(mib: int, seed: int) -> dict:
    obs.set_registry(obs.MetricsRegistry())
    relay = await CensusRelay().start()
    stack = await RoutedStack().open(relay, 1, "census")
    [(tx, rx)] = stack.pairs
    messages = [payloads.incompressible(MIB, seed * 4 + i) for i in range(4)]

    # establishment is not part of the census
    relay.payload_sizes.clear()
    relay.streams.clear()
    relay_before = relay.forwarded_messages

    with loop_work(asyncio.get_running_loop()) as work:
        await one_way(tx, rx, messages, mib)
    # let the last CREDIT / ACK reach the relay before counting
    await asyncio.sleep(0.05)

    small = sum(1 for size in relay.payload_sizes if size <= SMALL)
    frames = relay.forwarded_messages - relay_before
    stalls = sum(counter.value for counter in
                 obs.metrics().instruments("mux.backpressure_waits"))
    session_kinds = collections.Counter()
    mux_kinds = collections.Counter()
    data_payloads = []
    tails = 0
    for stream in relay.streams.values():
        #: bytes of the current tcp_block write still to come, per channel
        pending = collections.Counter()
        carried = bytearray()
        for kind, payload in _session_frames(bytes(stream)):
            session_kinds[_SESSION_KINDS.get(kind, str(kind))] += 1
            carried += payload
        for frame in _mux_frames(carried):
            mux_kinds[frame.name] += 1
            if frame.kind != mux_frames.T_DATA:
                continue
            n = len(frame.payload)
            data_payloads.append(n)
            if pending[frame.channel] == 0:  # a write begins: u32 length
                pending[frame.channel] = 4 + int.from_bytes(
                    frame.payload[:4], "big")
            elif n < 1024:
                tails += 1  # the rest of a write somebody cut short
            pending[frame.channel] -= n

    await stack.close()
    await asyncio.sleep(0.05)
    small_share = small / max(1, len(relay.payload_sizes))

    # the interpreter's work, each in a phase and on a stack of its own
    stack = await RoutedStack().open(relay, 1, "calls")
    [(tx, rx)] = stack.pairs
    await one_way(tx, rx, messages, CALL_WARM_MIB)
    with python_calls() as bulk_calls:
        await one_way(tx, rx, messages, CALL_MIB)
    await stack.close()
    rpc_stack = await RoutedStack().open(relay, 2, "rpc")
    requests = [payloads.incompressible(RPC_SIZE, seed * 4 + i)
                for i in range(4)]
    await rpc(rpc_stack.pairs, requests, RPC_WARM)
    with python_calls() as rpc_calls:
        await rpc(rpc_stack.pairs, requests, RPC_TRIPS)
    trips = RPC_TRIPS * len(rpc_stack.pairs)
    await rpc_stack.close()
    relay.close()
    await asyncio.sleep(0.05)

    return {
        "mib": mib,
        "relay_frames_per_mib": round(frames / mib, 2),
        "relay_small_share": round(small_share, 3),
        "relay_small_per_mib": round(small / mib, 2),
        "backpressure_waits_per_mib": round(stalls / mib, 2),
        "loop_handles_per_mib": round(work["handles"] / mib, 1),
        "loop_futures_per_mib": round(work["futures"] / mib, 1),
        "session_frames_per_mib": {
            k: round(v / mib, 2) for k, v in sorted(session_kinds.items())},
        "mux_frames_per_mib": {
            k: round(v / mib, 2) for k, v in sorted(mux_kinds.items())},
        "mux_data_tails_per_mib": round(tails / mib, 2),
        "mux_data_payload_max": max(data_payloads, default=0),
        "calls_per_mib": round(bulk_calls["calls"] / CALL_MIB, 1),
        "calls_per_block": round(
            bulk_calls["calls"] / CALL_MIB / (MIB // BLOCK), 1),
        "own_calls_per_block": round(
            bulk_calls["own"] / CALL_MIB / (MIB // BLOCK), 1),
        "calls_per_round_trip": round(rpc_calls["calls"] / trips, 1),
        "own_calls_per_round_trip": round(rpc_calls["own"] / trips, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mib", type=int, default=64,
                        help="MiB of payload to stream (default 64)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--max-frames", type=float, default=None,
                        help="fail if relay frames per MiB exceed this")
    parser.add_argument("--max-stalls", type=float, default=None,
                        help="fail if backpressure waits per MiB exceed this")
    parser.add_argument("--max-handles", type=float, default=None,
                        help="fail if event-loop handle runs per MiB exceed this")
    parser.add_argument("--max-futures", type=float, default=None,
                        help="fail if futures created per MiB exceed this")
    parser.add_argument("--max-calls", type=float, default=None,
                        help="fail if calls into this repository's code per "
                             "rpc round trip exceed this")
    parser.add_argument("--max-block-calls", type=float, default=None,
                        help="fail if calls into this repository's code per "
                             "64 KiB block exceed this")
    args = parser.parse_args(argv)
    report = asyncio.run(census(args.mib, args.seed))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key:30s} {value}")
    status = 0
    if (args.max_frames is not None
            and report["relay_frames_per_mib"] > args.max_frames):
        print(f"FAIL: more than {args.max_frames} relay frames per MiB",
              file=sys.stderr)
        status = 1
    if (args.max_stalls is not None
            and report["backpressure_waits_per_mib"] > args.max_stalls):
        print(f"FAIL: more than {args.max_stalls} credit stalls per MiB",
              file=sys.stderr)
        status = 1
    if (args.max_handles is not None
            and report["loop_handles_per_mib"] > args.max_handles):
        print(f"FAIL: {report['loop_handles_per_mib']} event-loop handle runs "
              f"per MiB, more than {args.max_handles}", file=sys.stderr)
        status = 1
    if (args.max_futures is not None
            and report["loop_futures_per_mib"] > args.max_futures):
        print(f"FAIL: {report['loop_futures_per_mib']} futures created per "
              f"MiB, more than {args.max_futures}", file=sys.stderr)
        status = 1
    if (args.max_calls is not None
            and report["own_calls_per_round_trip"] > args.max_calls):
        print(f"FAIL: {report['own_calls_per_round_trip']} calls into this "
              f"repository's code per rpc round trip, more than "
              f"{args.max_calls}", file=sys.stderr)
        status = 1
    if (args.max_block_calls is not None
            and report["own_calls_per_block"] > args.max_block_calls):
        print(f"FAIL: {report['own_calls_per_block']} calls into this "
              f"repository's code per block, more than {args.max_block_calls}",
              file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
