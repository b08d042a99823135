"""Table-1 matrix cells on the live backend (paper Table 1 / Figure 4).

The sim matrix (``tests/core/test_middlebox_matrix.py``) exercises every
middlebox × method cell through the simulated network.  This module runs
the rows the live backend *can* express on real loopback sockets, with
the in-process chaos proxy standing in as the responder's campus
gateway:

* **open** — the gateway forwards transparently;
* **firewall** — the gateway resets unsolicited inbound connections at
  accept time (``set_refusing``), the live analogue of a stateful
  firewall dropping SYNs that match no outbound flow.

NAT kinds (cone, broken, symmetric) require address translation the
live loopback gateway cannot express — those cells skip cleanly and
remain sim-only, which is itself part of the Table-1 story: the sim is
the oracle for cells reality (here: a loopback test process) cannot
stage.

Rows:

* **tcp** — direct dial through the gateway (the paper's
  client/server row: works only where the path is open);
* **relay** — both peers dial *out* to a relay and the stream is
  routed (the paper's universal fall-back: works even when inbound is
  refused, because nothing inbound ever crosses the gateway);
* **session** — a resumable session link dialled through the gateway
  (rides direct TCP, so its live feasibility column equals tcp's);
* **mesh** — both peers dial *out* to every relay of a live mesh and
  the route table picks the carrier (the PR-8 extension of the routed
  row: same outbound-only feasibility column, now without a single
  point of relay failure).
"""

import asyncio

import pytest

from repro.core.retry import RetryPolicy
from repro.livenet import (
    AsyncSessionError,
    AsyncSessionLink,
    AsyncSessionListener,
    ChaosTcpProxy,
    LiveMeshRelayClient,
    LiveRelayClient,
    LiveRelayServer,
    live_connect,
    live_listen,
)

pytestmark = pytest.mark.livenet

KINDS = ["open", "firewall", "cone_nat", "broken_nat", "symmetric_nat"]
ROWS = ["tcp", "relay", "session", "mesh"]

#: middlebox kind -> rows that must succeed on the live backend
EXPECTED_OK = {
    "open": {"tcp", "relay", "session", "mesh"},
    "firewall": {"relay", "mesh"},
}

#: kinds the live loopback gateway cannot stage (no address translation)
LIVE_INEXPRESSIBLE = {
    "cone_nat": "cone NAT needs per-flow address translation",
    "broken_nat": "broken NAT needs SYN-mangling address translation",
    "symmetric_nat": "symmetric NAT needs per-destination mappings",
}

_FAILURES = (
    AsyncSessionError,
    ConnectionError,
    EOFError,
    OSError,
    asyncio.TimeoutError,
)


async def _gateway(kind: str):
    """Responder listener behind a chaos proxy configured as ``kind``."""
    listener = await live_listen()
    proxy = await ChaosTcpProxy(listener.addr, name=f"gw-{kind}").start()
    if kind == "firewall":
        proxy.set_refusing(True)
    return listener, proxy


async def _row_tcp(kind: str) -> bytes:
    listener, proxy = await _gateway(kind)
    client = server = None
    try:
        async def responder():
            sock = await listener.accept()
            data = await sock.recv_exactly(4)
            await sock.send_all(data)
            return sock

        async def initiator():
            sock = await live_connect(proxy.addr)
            await sock.send_all(b"ping")
            return sock, await asyncio.wait_for(sock.recv_exactly(4), 5.0)

        responder_task = asyncio.ensure_future(responder())
        try:
            client, echo = await initiator()
        finally:
            responder_task.cancel()
            server = (
                responder_task.result()
                if responder_task.done() and not responder_task.cancelled()
                and responder_task.exception() is None
                else None
            )
        if not echo:
            raise EOFError("no echo through the gateway")
        return echo
    finally:
        for sock in (client, server):
            if sock is not None:
                sock.close()
        proxy.close()
        listener.close()


async def _row_relay(kind: str) -> bytes:
    # Both sides dial OUT: the responder's outbound path does not cross
    # its own inbound gateway, exactly as in the paper's routed method.
    listener, proxy = await _gateway(kind)
    relay = await LiveRelayServer().start()
    a = b = None
    try:
        a = await LiveRelayClient("matrix-ini", relay.addr).connect()
        b = await LiveRelayClient("matrix-res", relay.addr).connect()

        async def initiator():
            link = await a.open_link("matrix-res", payload=b"matrix")
            await link.send_all(b"ping")
            return await link.recv_exactly(4)

        async def responder():
            link = await b.accept_link()
            data = await link.recv_exactly(4)
            await link.send_all(data)

        echo, _ = await asyncio.gather(initiator(), responder())
        return echo
    finally:
        for client in (a, b):
            if client is not None:
                client.close()
        relay.close()
        proxy.close()
        listener.close()


async def _row_session(kind: str) -> bytes:
    listener, proxy = await _gateway(kind)
    slistener = AsyncSessionListener(listener, node="matrix-res")
    link = peer = None
    try:
        async def dial():
            return await live_connect(proxy.addr)

        async def responder():
            accepted = await slistener.accept()
            data = await accepted.recv_exactly(4)
            await accepted.send_all(data)
            return accepted

        responder_task = asyncio.ensure_future(responder())
        try:
            link = await AsyncSessionLink.connect(
                dial, node="matrix-ini", retry_policy=RetryPolicy(max_attempts=1)
            )
            await link.send_all(b"ping")
            echo = await asyncio.wait_for(link.recv_exactly(4), 5.0)
        finally:
            responder_task.cancel()
            peer = (
                responder_task.result()
                if responder_task.done() and not responder_task.cancelled()
                and responder_task.exception() is None
                else None
            )
        return echo
    finally:
        for endpoint in (link, peer):
            if endpoint is not None:
                endpoint.abort()
        slistener.close()
        proxy.close()
        listener.close()


async def _row_mesh(kind: str) -> bytes:
    # Like the relay row, but through a two-relay mesh: both peers hold
    # outbound registrations with every relay, and the initiator's route
    # table picks the carrier.  Feasibility equals the relay row's — all
    # traffic is outbound — with no single relay as a point of failure.
    listener, proxy = await _gateway(kind)
    relays = {rid: await LiveRelayServer(name=rid).start() for rid in ("r1", "r2")}
    addrs = {rid: ("127.0.0.1", s.port) for rid, s in relays.items()}
    for rid, server in relays.items():
        server.enable_mesh(
            rid, {p: a for p, a in addrs.items() if p != rid}, seed=11
        )
    a = b = None
    try:
        a = await LiveMeshRelayClient("matrix-ini", addrs, seed=11).connect()
        b = await LiveMeshRelayClient("matrix-res", addrs, seed=12).connect()

        async def initiator():
            link = await a.open_link("matrix-res", payload=b"matrix")
            await link.send_all(b"ping")
            return await link.recv_exactly(4)

        async def responder():
            link = await b.accept_link()
            data = await link.recv_exactly(4)
            await link.send_all(data)

        echo, _ = await asyncio.gather(initiator(), responder())
        return echo
    finally:
        for client in (a, b):
            if client is not None:
                client.close()
        for server in relays.values():
            server.stop()
        proxy.close()
        listener.close()


_ROW_IMPL = {
    "tcp": _row_tcp,
    "relay": _row_relay,
    "session": _row_session,
    "mesh": _row_mesh,
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("row", ROWS)
def test_live_matrix_cell(kind, row, live_run):
    if kind in LIVE_INEXPRESSIBLE:
        pytest.skip(
            f"live backend cannot express {kind}: "
            f"{LIVE_INEXPRESSIBLE[kind]} (sim-only cell)"
        )
    if row in EXPECTED_OK[kind]:
        assert live_run(_ROW_IMPL[row](kind)) == b"ping"
    else:
        with pytest.raises(_FAILURES):
            live_run(_ROW_IMPL[row](kind), timeout=10.0)
