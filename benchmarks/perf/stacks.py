"""Live stack builders: one function per rung of the stack waterfall.

Every rung ends in the same application surface — pairs of
``AsyncBlockChannel`` (``a`` dials, ``b`` accepts) — so one traffic loop
drives them all.  ``wrap`` interposes a shim at every layer boundary
(:class:`shims.Tracer`) or nothing at all (:class:`shims.NoShims`).
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
from typing import Callable

from repro.livenet import (
    AsyncBlockChannel,
    AsyncCompressionDriver,
    AsyncParallelStreamsDriver,
    AsyncSessionLink,
    AsyncSessionListener,
    AsyncTcpBlockDriver,
    AsyncTlsDriver,
    LiveRelayClient,
    LiveRelayServer,
    live_connect,
    live_listen,
)
from repro.livenet.mux import AsyncMuxEndpoint
from repro.security import CertificateAuthority, Identity

__all__ = ["Fixture", "Stack", "RUNGS", "establish", "settle"]

#: how long teardown may take before the tasks still alive count as leaked
_SETTLE_TIMEOUT = 3.0

_node_ids = itertools.count(1)


class Fixture:
    """What a workload builds once, before its first timed round."""

    def __init__(self):
        self.listener = None
        self.relay = None
        self.trust = None
        self.identity = None

    @classmethod
    async def build(cls, rung: str, wrap) -> "Fixture":
        fx = cls()
        if rung == "tls":
            ca = CertificateAuthority("perf-ca")
            key, cert = ca.issue_identity("perf-server")
            fx.trust = [ca.certificate]
            fx.identity = Identity(key, [cert])
        if rung in ("relay", "routed_full"):
            with wrap.relay_transport():
                fx.relay = await LiveRelayServer().start()
        else:
            fx.listener = await live_listen()
        return fx

    def close(self) -> None:
        if self.relay is not None:
            self.relay.close()
        if self.listener is not None:
            self.listener.close()


class Stack:
    """One established stack: its channel pairs and how to take it down.

    Teardown runs the dialling side's closers, newest first, then the
    accepting side's.  The order matters to the session layer: when both
    ends ``aclose`` at once, an end whose bytes are all acked tears down
    without waiting for its peer's FIN, and the peer then waits out its
    20 s close timeout for an ack of its tail (seen once in ~350 closes).
    So the dialler closes gracefully while the acceptor is still there to
    ack, and the acceptor goes down with its listener.
    """

    def __init__(self, wrap):
        self.wrap = wrap
        self.pairs: list[tuple] = []
        self._closers: dict[str, list[Callable]] = {"a": [], "b": []}

    def defer(self, side: str, closer: Callable) -> None:
        self._closers[side].append(closer)

    def add_pair(self, a_driver, b_driver) -> None:
        a = AsyncBlockChannel(a_driver)
        b = AsyncBlockChannel(b_driver)
        self.defer("a", a.close)
        self.defer("b", b.close)
        self.pairs.append((self.wrap.channel(a), self.wrap.channel(b)))

    async def aclose(self) -> None:
        """Close every layer, top down, and wait for what that starts."""
        for side in ("a", "b"):
            for closer in reversed(self._closers[side]):
                result = closer()
                if inspect.isawaitable(result):
                    await result


async def settle(allowed: set) -> list:
    """Wait for the tasks teardown started; returns those that never end."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + _SETTLE_TIMEOUT
    keep = allowed | {asyncio.current_task()}
    while True:
        extra = [t for t in asyncio.all_tasks() if t not in keep]
        if not extra or loop.time() > deadline:
            return extra
        await asyncio.wait(extra, timeout=0.05)


async def _socket_pair(fx: Fixture, stack: Stack) -> tuple:
    """One direct loopback connection; both ends, shimmed."""
    a, b = await asyncio.gather(
        live_connect(fx.listener.addr), fx.listener.accept()
    )
    for side, sock in (("a", a), ("b", b)):
        stack.defer(side, sock.wait_closed)
        stack.defer(side, sock.close)
    return stack.wrap.link(a), stack.wrap.link(b)


def _tcp_block(stack: Stack, link):
    return stack.wrap.driver(AsyncTcpBlockDriver(link))


async def _rung_tcp_block(fx, stack, channels):
    a, b = await _socket_pair(fx, stack)
    stack.add_pair(_tcp_block(stack, a), _tcp_block(stack, b))


async def _rung_compress(fx, stack, channels):
    a, b = await _socket_pair(fx, stack)
    stack.add_pair(
        *(
            stack.wrap.driver(AsyncCompressionDriver(_tcp_block(stack, link)))
            for link in (a, b)
        )
    )


async def _rung_parallel2(fx, stack, channels):
    first = await _socket_pair(fx, stack)
    second = await _socket_pair(fx, stack)
    stack.add_pair(
        *(
            stack.wrap.driver(AsyncParallelStreamsDriver(list(side)))
            for side in zip(first, second)
        )
    )


async def _rung_tls(fx, stack, channels):
    a, b = await _socket_pair(fx, stack)
    a_tls = AsyncTlsDriver(_tcp_block(stack, a))
    b_tls = AsyncTlsDriver(_tcp_block(stack, b))
    await asyncio.gather(
        a_tls.handshake_client(fx.trust), b_tls.handshake_server(fx.identity)
    )
    stack.add_pair(stack.wrap.driver(a_tls), stack.wrap.driver(b_tls))


async def _session_pair(stack, dial, listener) -> tuple:
    """A survivable session over whatever ``dial``/``listener`` reach."""
    sessions = AsyncSessionListener(listener)
    # also tears the accepted link down, in the same step as the layer
    # above closes it: nothing of its stream is left unverified
    stack.defer("b", sessions.close)
    a = await AsyncSessionLink.connect(dial)
    stack.defer("a", a.aclose)
    b = await sessions.accept()
    return stack.wrap.link(a), stack.wrap.link(b)


async def _rung_session(fx, stack, channels):
    listener = await live_listen()

    async def dial():
        return stack.wrap.link(await live_connect(listener.addr))

    a, b = await _session_pair(stack, dial, stack.wrap.listener(listener))
    stack.add_pair(_tcp_block(stack, a), _tcp_block(stack, b))


async def _mux_channels(stack, a_link, b_link, channels) -> None:
    a_end, b_end = await asyncio.gather(
        AsyncMuxEndpoint.establish(a_link, AsyncMuxEndpoint.INITIATOR),
        AsyncMuxEndpoint.establish(b_link, AsyncMuxEndpoint.RESPONDER),
    )
    stack.defer("a", a_end.close)
    stack.defer("b", b_end.close)
    for _ in range(channels):
        a, b = await asyncio.gather(
            a_end.open_channel(), b_end.accept_channel()
        )
        stack.add_pair(
            _tcp_block(stack, stack.wrap.link(a)),
            _tcp_block(stack, stack.wrap.link(b)),
        )


async def _rung_mux(fx, stack, channels):
    a, b = await _socket_pair(fx, stack)
    await _mux_channels(stack, a, b, channels)


class _RoutedListener:
    """``accept``/``close``/``addr`` over a relay client's incoming links."""

    addr = ("relay", 0)

    def __init__(self, client: LiveRelayClient, wrap):
        self._client = client
        self._wrap = wrap

    async def accept(self):
        return self._wrap.link(await self._client.accept_link())

    def close(self) -> None:
        pass  # the relay client is closed by the stack


async def _relay_clients(fx, stack) -> tuple:
    n = next(_node_ids)
    with stack.wrap.relay_transport():
        a, b = await asyncio.gather(
            LiveRelayClient(f"a{n}", fx.relay.addr).connect(),
            LiveRelayClient(f"b{n}", fx.relay.addr).connect(),
        )

    async def close_clients():
        # routed links announce their CLOSE from a task of their own;
        # let it reach the relay before the connection under it goes
        await asyncio.sleep(0)
        a.close()
        b.close()

    stack.defer("b", close_clients)
    return a, b


async def _rung_relay(fx, stack, channels):
    a_client, b_client = await _relay_clients(fx, stack)
    a = await a_client.open_link(b_client.node_id)
    b = await b_client.accept_link()
    stack.add_pair(
        _tcp_block(stack, stack.wrap.link(a)),
        _tcp_block(stack, stack.wrap.link(b)),
    )


async def _rung_routed_full(fx, stack, channels):
    a_client, b_client = await _relay_clients(fx, stack)

    async def dial():
        return stack.wrap.link(await a_client.open_link(b_client.node_id))

    a, b = await _session_pair(
        stack, dial, _RoutedListener(b_client, stack.wrap)
    )
    await _mux_channels(stack, a, b, channels)


RUNGS = {
    "tcp_block": _rung_tcp_block,
    "compress": _rung_compress,
    "parallel2": _rung_parallel2,
    "session": _rung_session,
    "mux": _rung_mux,
    "tls": _rung_tls,
    "relay": _rung_relay,
    "routed_full": _rung_routed_full,
}


async def establish(rung: str, fx: Fixture, wrap, channels: int = 1) -> Stack:
    """First dial to both ends ready to send, for one rung."""
    stack = Stack(wrap)
    try:
        await RUNGS[rung](fx, stack, channels)
    except BaseException:
        await stack.aclose()
        raise
    return stack
