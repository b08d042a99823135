"""Per-layer numbers that need no stack: direct calls, and the waterfall.

The direct calls time the functions the live workloads' hot paths spend
their self time in, at the sizes those paths use (64 KiB records, 16 KiB
DATA frames, the drivers' three counter labels).  The waterfall runs one
short bulk phase and one short request/echo phase on each rung of the
stack, untraced, so "what does adding ``session`` cost on live?" is one
subtraction — and covers ``compress`` and ``parallel``, which no gated
workload carries.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Callable

from repro import obs
from repro.mux.frames import decode_frame, encode_data
from repro.security import (
    CertificateAuthority,
    ClientHandshake,
    Identity,
    ServerHandshake,
    chacha20_xor,
)
from repro.util.framing import ByteWriter
from repro.workloads import payloads

import live
import stacks
from harness import HostSpeed
from shims import NoShims

__all__ = ["direct_calls", "waterfall"]

RECORD = 64 * 1024
DATA_FRAME = 16 * 1024


def direct_calls(seed: int, host: HostSpeed, quick: bool = False) -> dict:
    """``security.*``, ``obs.*``, ``mux.frames.*`` and ``util.framing.*``."""
    many = 2_000 if quick else 20_000
    record_size = 4096 if quick else RECORD

    def _timed(fn: Callable[[], object], repeat: int) -> float:
        """Seconds per call at reference host speed."""
        start = time.perf_counter()
        for _ in range(repeat):
            fn()
        end = time.perf_counter()
        return host.sample((end - start) / repeat, start, end).at_reference("lower")

    record = payloads.incompressible(record_size, seed)
    frame_payload = record[:DATA_FRAME]
    ca = CertificateAuthority("perf-ca")
    key, cert = ca.issue_identity("perf-server")
    identity = Identity(key, [cert])
    sessions = []

    def handshake_pair() -> None:
        client = ClientHandshake(trust_anchors=[ca.certificate])
        server = ServerHandshake(identity=identity)
        finished, client_session = client.finish(server.respond(client.hello()))
        sessions[:] = [client_session, server.finish(finished)]

    out = {"security.handshake.pair_ms": _timed(handshake_pair, 1) * 1e3}
    sealer, opener = sessions
    sealed = []
    seal_s = _timed(lambda: sealed.append(sealer.seal(record)), 1)
    opened = []
    open_s = _timed(lambda: opened.append(opener.open(sealed[0])), 1)
    if opened != [record]:
        raise AssertionError("record layer did not round-trip the payload")
    xor_s = _timed(lambda: chacha20_xor(bytes(32), 1, bytes(12), record), 1)
    out["security.record.seal_MBps"] = record_size / seal_s / 1e6
    out["security.record.open_MBps"] = record_size / open_s / 1e6
    out["security.chacha20.xor_MBps"] = record_size / xor_s / 1e6

    previous = obs.set_registry(obs.MetricsRegistry())
    try:
        out["obs.metrics.counter_inc_ns"] = 1e9 * _timed(
            lambda: obs.metrics().counter(
                "driver.bytes_total",
                driver="tcp_block", direction="tx", backend="live",
            ).inc(record_size),
            many,
        )
    finally:
        obs.set_registry(previous)
    out["obs.event_ns"] = 1e9 * _timed(
        lambda: obs.event(
            "channel.message", ctx=None, direction="tx", bytes=record_size
        ),
        many,
    )
    encoded = encode_data(1, frame_payload)
    out["mux.frames.encode_data_ns"] = 1e9 * _timed(
        lambda: encode_data(1, frame_payload), many
    )
    out["mux.frames.decode_data_ns"] = 1e9 * _timed(
        lambda: decode_frame(encoded), many
    )
    out["util.framing.frame_ns"] = 1e9 * _timed(
        lambda: ByteWriter().u32(len(encoded)).raw(encoded).getvalue(), many
    )
    return out


async def _rung(
    rung: str, seed: int, size: int, bulk_s: float, rpc_s: float, tally,
    host: HostSpeed,
) -> tuple:
    # compressible, so the compress rung deflates rather than giving up
    bulk_messages = live.make_payloads(size, seed, compressible=True)
    requests = live.make_payloads(256, seed)
    fx = await stacks.Fixture.build(rung, NoShims)
    fixture_tasks = asyncio.all_tasks()
    try:
        stack = await stacks.establish(rung, fx, NoShims)
        start = time.perf_counter()
        goodput, _spacing = await live.bulk(stack, bulk_messages, bulk_s, tally)
        middle = time.perf_counter()
        rtts = await live.rpc(stack, requests, rpc_s, tally)
        end = time.perf_counter()
        await stack.aclose()
        for task in await stacks.settle(fixture_tasks):
            tally.fail(f"waterfall {rung} leaked a task: {task.get_coro()!r}")
            task.cancel()
    finally:
        fx.close()
    rtt_us = statistics.median(rtts) / 1e3 if rtts else 0.0
    return (
        host.sample(goodput, start, middle).at_reference("higher"),
        host.sample(rtt_us, middle, end).at_reference("lower"),
    )


def waterfall(seed: int, tally, host: HostSpeed, quick: bool = False) -> dict:
    """``waterfall.<rung>.MBps`` and ``.rtt_us`` for every rung."""
    bulk_s, rpc_s = (0.05, 0.03) if quick else (0.3, 0.2)
    out = {}
    for rung in stacks.RUNGS:
        # one record per message where a record costs a third of a second
        size = RECORD if rung == "tls" else 1 << 20
        if quick:
            size //= 16
        mbps, rtt_us = asyncio.run(
            _rung(rung, seed, size, bulk_s, rpc_s, tally, host)
        )
        out[f"waterfall.{rung}.MBps"] = mbps
        out[f"waterfall.{rung}.rtt_us"] = rtt_us
    return out
