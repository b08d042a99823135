"""Live traffic: establishment, bulk streaming and request/echo rounds.

One process, one thread, one asyncio loop; every byte crosses the host
loopback.  Both loops are closed: a sender is held back only by the
stack's own back-pressure, a requester sends its next request when the
echo of the last one has been compared.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import NamedTuple, Optional

from repro.workloads import payloads

import stacks
from harness import HostSpeed, Sample

__all__ = [
    "LiveSpec",
    "LIVE",
    "LiveResult",
    "Tally",
    "make_payloads",
    "run_rounds",
    "bulk",
    "rpc",
]


class LiveSpec(NamedTuple):
    rung: str
    channels: int
    message_size: int
    traffic: str  # "bulk" | "rpc"
    phase_s: float  # traffic per round; short, so a run yields many rounds
    connects: int  # establishments per round; the round's sample is their median
    operation: str  # whose time is latency_ms: "connect" | "message" | "rtt"


LIVE = {
    # establishing the bare rung is one loopback TCP handshake: the
    # kernel's 0.15-0.3 ms, not this repo's, and it wanders by 2x; the
    # operation a user of this rung waits for is moving one message
    "bulk_plain": LiveSpec("tcp_block", 1, 1 << 20, "bulk", 0.5, 1, "message"),
    # ~0.16 s to seal and as long to open one 64 KiB record, ~0.1 s per
    # handshake: longer phases, fewer handshakes
    "bulk_secure": LiveSpec("tls", 1, 1 << 16, "bulk", 0.8, 3, "connect"),
    "bulk_routed": LiveSpec("routed_full", 1, 1 << 20, "bulk", 0.5, 11, "connect"),
    "rpc_routed": LiveSpec("routed_full", 2, 256, "rpc", 0.5, 11, "rtt"),
}

#: payloads rotated by sequence number, so a stack that repeats,
#: reorders or drops a message fails the compare
ROTATION = 4

_END = b""  # a zero-length message ends a phase; no payload is empty


class Tally:
    """Operations attempted and failed: messages, round trips, set-ups."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(why)


def make_payloads(size: int, seed: int, compressible: bool = False) -> list:
    make = (
        (lambda n, s: payloads.payload_with_ratio(n, 3.0, seed=s))
        if compressible
        else payloads.incompressible
    )
    return [make(size, seed * ROTATION + i) for i in range(ROTATION)]


async def _establish_timed(
    rung: str, fx, wrap, tally: Tally, repeats: int, channels: int = 1
) -> tuple:
    """Establish ``repeats`` times; keep the last stack.

    Returns ``(stack, median milliseconds)``: first dial to both ends
    ready to send.
    """
    samples = []
    stack = None
    for _ in range(repeats):
        if stack is not None:
            await stack.aclose()
        start = time.perf_counter()
        try:
            stack = await stacks.establish(rung, fx, wrap, channels)
        except (OSError, EOFError, RuntimeError, asyncio.TimeoutError) as exc:
            tally.fail(f"establish {rung}: {exc!r}")
            raise
        samples.append((time.perf_counter() - start) * 1e3)
        tally.ok()
    return stack, statistics.median(samples)


async def _first_error(*coros) -> None:
    """Run concurrently; on the first failure cancel the rest and raise."""
    tasks = [asyncio.ensure_future(c) for c in coros]
    try:
        done, pending = await asyncio.wait(
            tasks, return_when=asyncio.FIRST_EXCEPTION
        )
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    for task in done:
        if not task.cancelled() and task.exception() is not None:
            raise task.exception()


async def bulk(stack, messages: list, seconds: float, tally: Tally) -> tuple:
    """One-way stream on every channel pair.

    Returns ``(goodput MB/s, median ms between verified deliveries)``.
    Goodput is payload bytes delivered *and compared equal*, over the time
    from the first send to the last counted delivery.
    """
    start = time.perf_counter()
    deadline = start + seconds
    good_bytes = 0
    last_delivery = start
    spacing_ms: list[float] = []

    async def send(channel) -> None:
        seq = 0
        while time.perf_counter() < deadline:
            await channel.send_message(messages[seq % ROTATION])
            seq += 1
        await channel.send_message(_END)

    async def receive(channel) -> None:
        nonlocal good_bytes, last_delivery
        seq = 0
        while True:
            got = await channel.recv_message()
            if got == _END:
                return
            if got == messages[seq % ROTATION]:
                good_bytes += len(got)
                now = time.perf_counter()
                spacing_ms.append((now - last_delivery) * 1e3)
                last_delivery = now
                tally.ok()
            else:
                tally.fail(f"bulk message {seq} differs from what was sent")
            seq += 1

    try:
        await _first_error(
            *(send(a) for a, _b in stack.pairs),
            *(receive(b) for _a, b in stack.pairs),
        )
    except (OSError, EOFError, RuntimeError) as exc:
        tally.fail(f"bulk: {exc!r}")
    elapsed = last_delivery - start
    if not spacing_ms:
        return 0.0, 0.0
    return good_bytes / elapsed / 1e6, statistics.median(spacing_ms)


async def rpc(stack, requests: list, seconds: float, tally: Tally) -> list:
    """Request/echo, one outstanding per channel pair; returns RTTs (ns)."""
    deadline = time.perf_counter() + seconds
    rtts: list[int] = []

    async def request(channel) -> None:
        seq = 0
        while time.perf_counter() < deadline:
            want = requests[seq % ROTATION]
            start = time.perf_counter_ns()
            await channel.send_message(want)
            echo = await channel.recv_message()
            rtts.append(time.perf_counter_ns() - start)
            if echo == want:
                tally.ok()
            else:
                tally.fail(f"echo {seq} differs from the request")
            seq += 1
        await channel.send_message(_END)

    async def echo(channel) -> None:
        while True:
            got = await channel.recv_message()
            if got == _END:
                return
            await channel.send_message(got)

    try:
        await _first_error(
            *(request(a) for a, _b in stack.pairs),
            *(echo(b) for _a, b in stack.pairs),
        )
    except (OSError, EOFError, RuntimeError) as exc:
        tally.fail(f"rpc: {exc!r}")
    return rtts


class LiveResult:
    """Per-round samples of one live workload."""

    def __init__(self):
        self.connect_ms: list[Sample] = []
        self.message_ms: list[Sample] = []
        self.goodput_mbps: list[Sample] = []
        self.rtt_p50_ms: list[Sample] = []
        self.rtts_ns: list[int] = []  # pooled over rounds, for the p99


async def run_rounds(
    spec: LiveSpec,
    fx,
    wrap,
    messages: list,
    seconds: float,
    tally: Tally,
    host: HostSpeed,
    phase_s: Optional[float] = None,
    on_traffic=None,
) -> LiveResult:
    """Timed rounds until ``seconds`` are used up (at least one).

    A round establishes the stack ``spec.connects`` times, runs its
    traffic on the last one, tears everything down and checks that no
    task outlived it.  ``on_traffic`` (the tracer) brackets the traffic.
    """
    phase_s = phase_s or spec.phase_s
    result = LiveResult()
    fixture_tasks = asyncio.all_tasks()
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        stack, connect_ms = await _establish_timed(
            spec.rung, fx, wrap, tally, spec.connects, spec.channels
        )
        phase_start = time.perf_counter()
        if on_traffic is not None:
            on_traffic.start()
        if spec.traffic == "bulk":
            goodput, message_ms = await bulk(stack, messages, phase_s, tally)
            rtts = []
        else:
            rtts = await rpc(stack, messages, phase_s, tally)
        phase_end = time.perf_counter()
        if on_traffic is not None:
            on_traffic.stop()
        slowdown = host.slowdown(phase_start, phase_end)
        if spec.traffic == "bulk":
            result.message_ms.append(Sample(message_ms, slowdown))
        else:
            goodput = (
                2 * spec.message_size * len(rtts) / (phase_end - phase_start) / 1e6
            )
            result.rtts_ns.extend(rtts)
            result.rtt_p50_ms.append(
                Sample(statistics.median(rtts or [0]) / 1e6, slowdown)
            )
        result.goodput_mbps.append(Sample(goodput, slowdown))
        # establishing takes milliseconds, too few probes to scale by:
        # the round it opens says how fast the host was
        result.connect_ms.append(host.sample(connect_ms, round_start, phase_end))
        await stack.aclose()
        for task in await stacks.settle(fixture_tasks):
            tally.fail(f"round leaked a task: {task.get_coro()!r}")
            task.cancel()
        round_s = (time.perf_counter() - started) / len(result.goodput_mbps)
        if time.perf_counter() - started + round_s > seconds:
            return result
