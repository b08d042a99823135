#!/usr/bin/env python3
"""The live backend: the same protocol suite over real TCP sockets.

Runs on loopback: a live relay, routed links, and a full driver stack —
TLS over compression over 4 parallel real TCP connections — moving a
payload and reporting wall-clock throughput.

Run:  python examples/live_loopback.py
"""

import asyncio
import time

from repro.core.utilization import BlockChannel, CompressionDriver, TlsDriver
from repro.livenet import (
    AsyncParallelStreamsDriver,
    LiveRelayClient,
    LiveRelayServer,
    live_connect,
    live_listen,
)
from repro.security import CertificateAuthority, Identity
from repro.workloads import payload_with_ratio


async def demo_relay() -> None:
    print("== live relay (routed messages over real TCP) ==")
    relay = await LiveRelayServer().start()
    node_a = await LiveRelayClient("node-a", relay.addr).connect()
    node_b = await LiveRelayClient("node-b", relay.addr).connect()

    async def b_side():
        link = await node_b.accept_link()
        data = await link.recv_exactly(21)
        await link.send_all(b"ack")
        return data

    link = await node_a.open_link("node-b", payload=b"service")
    await link.send_all(b"routed through a real")
    data, ack = await asyncio.gather(b_side(), link.recv_exactly(3))
    print(f"   b received {data!r}, a got {ack!r}")
    node_a.close(); node_b.close(); relay.close()
    await asyncio.sleep(0.05)


async def demo_stack() -> None:
    print("== tls | compress | parallel:4 over loopback TCP ==")
    ca = CertificateAuthority("live-ca")
    key, cert = ca.issue_identity("live-server")

    listener = await live_listen()
    n = 4
    client_socks, server_socks = [], []
    for _ in range(n):
        c, s = await asyncio.gather(live_connect(listener.addr), listener.accept())
        client_socks.append(c)
        server_socks.append(s)
    listener.close()

    tx_tls = TlsDriver(
        CompressionDriver(AsyncParallelStreamsDriver(client_socks))
    )
    rx_tls = TlsDriver(
        CompressionDriver(AsyncParallelStreamsDriver(server_socks))
    )
    await asyncio.gather(
        tx_tls.handshake_client([ca.certificate]),
        rx_tls.handshake_server(Identity(key, [cert])),
    )
    print(f"   authenticated: {tx_tls.peer_subject}")

    tx = BlockChannel(tx_tls)
    rx = BlockChannel(rx_tls)
    payload = payload_with_ratio(4 << 20, 3.0, seed=2)

    async def sender():
        await tx.send_message(payload)

    async def receiver():
        return await rx.recv_message()

    t0 = time.perf_counter()
    _, got = await asyncio.gather(sender(), receiver())
    dt = time.perf_counter() - t0
    assert got == payload
    print(f"   {len(payload) / 1e6:.1f} MB moved intact in {dt:.2f}s "
          f"({len(payload) / dt / 1e6:.0f} MB/s wall-clock on loopback)")
    tx.close()


async def main() -> None:
    await demo_relay()
    await demo_stack()


if __name__ == "__main__":
    asyncio.run(main())
