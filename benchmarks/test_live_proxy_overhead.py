"""Live chaos gate apparatus cost: proxy pass-through latency.

The live test tier routes every byte through the in-process
:class:`~repro.livenet.proxy.ChaosTcpProxy`; its results are only
meaningful if the apparatus itself is invisible when no fault is armed.
This benchmark measures the client-perceived TLS handshake latency over
loopback — TCP connect through handshake completion — directly against
the server and again with the proxy on the path, min-of-N to cut
scheduler noise, and holds the pass-through tax under 10%.
"""

import asyncio
import time

import pytest

from conftest import once
from repro.core.utilization import TcpBlockDriver, TlsDriver
from repro.livenet import (
    ChaosTcpProxy,
    live_connect,
    live_listen,
)
from repro.security import CertificateAuthority, Identity

pytestmark = pytest.mark.livenet

ROUNDS = 9
OVERHEAD_BUDGET_PCT = 10.0


async def _handshakes(rounds: int, proxied: bool) -> list:
    ca = CertificateAuthority("bench-root")
    key, cert = ca.issue_identity("bench-server")
    identity = Identity(key, [cert])
    listener = await live_listen()
    proxy = None
    dial_addr = listener.addr
    if proxied:
        proxy = await ChaosTcpProxy(listener.addr, name="bench-gw").start()
        dial_addr = proxy.addr

    async def serve_one() -> None:
        sock = await listener.accept()
        try:
            drv = TlsDriver(TcpBlockDriver(sock))
            await drv.handshake_server(identity)
        finally:
            sock.close()

    samples = []
    try:
        for _ in range(rounds):
            server = asyncio.ensure_future(serve_one())
            t0 = time.perf_counter()
            sock = await live_connect(dial_addr)
            drv = TlsDriver(TcpBlockDriver(sock))
            await drv.handshake_client(
                [ca.certificate], expected_server="bench-server"
            )
            samples.append(time.perf_counter() - t0)
            sock.close()
            await server
    finally:
        if proxy is not None:
            proxy.close()
        listener.close()
    return samples


def _measure() -> dict:
    async def run() -> dict:
        # warm-up round absorbs import/alloc costs, then interleave-free
        # min-of-N for each path
        await _handshakes(1, proxied=False)
        direct = min(await _handshakes(ROUNDS, proxied=False))
        proxied = min(await _handshakes(ROUNDS, proxied=True))
        return {"direct_s": direct, "proxied_s": proxied}

    return asyncio.run(asyncio.wait_for(run(), timeout=60.0))


def test_proxy_pass_through_latency_under_10_percent(
    benchmark, report, bench_json
):
    res = once(benchmark, _measure)
    direct_ms = res["direct_s"] * 1e3
    proxied_ms = res["proxied_s"] * 1e3
    overhead_pct = (proxied_ms / direct_ms - 1.0) * 100.0

    report(
        "live_proxy_overhead",
        "Live chaos proxy pass-through (loopback TLS handshake, "
        f"min of {ROUNDS})\n"
        f"  direct   : {direct_ms:8.3f} ms\n"
        f"  proxied  : {proxied_ms:8.3f} ms\n"
        f"  overhead : {overhead_pct:+7.2f} %  (budget < "
        f"{OVERHEAD_BUDGET_PCT:.0f}%)\n",
    )
    bench_json(
        "live_proxy_overhead",
        clock="wall",
        direct_ms=round(direct_ms, 4),
        proxied_ms=round(proxied_ms, 4),
        overhead_pct=round(overhead_pct, 2),
    )
    assert overhead_pct < OVERHEAD_BUDGET_PCT, (
        f"proxy pass-through costs {overhead_pct:.1f}% "
        f"(budget {OVERHEAD_BUDGET_PCT:.0f}%)"
    )
