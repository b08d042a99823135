"""Livenet test configuration: real sockets get real deadlines.

Unlike the simulated backend, these tests run over actual loopback TCP,
so a wedged handshake would otherwise hang the whole suite.  Every test
body runs inside its own event loop under a hard wall-clock deadline
(``asyncio.wait_for``), and every module here is marked ``livenet`` so
constrained environments can deselect them with ``-m "not livenet"``.

Deflaking ground rules, enforced by the helpers here:

* **OS-assigned ports only.**  ``live_listen()`` binds port 0 and every
  helper routes through it; a hard-coded port is a collision (and a
  parallel-run flake) waiting to happen.
* **Event-driven waits, never ``sleep``-and-hope.**  Tests synchronise
  on the actual completion signal — ``await``-ing the peer task,
  ``asyncio.gather``, an ``asyncio.Event`` — and use :func:`eventually`
  only for state that has no awaitable edge (e.g. a counter maintained
  by a background pump).  ``eventually`` backs off geometrically from a
  sub-millisecond first probe, so it resolves as fast as the condition
  does instead of quantising to a fixed polling period.
"""

import asyncio
import contextlib
import os

import pytest

from repro.ipl.registry import RegistryClient
from repro.livenet import live_connect, live_listen

#: hard per-test wall-clock deadline (seconds); generous on purpose —
#: loopback operations finish in milliseconds, so hitting this means hung
#: I/O, not slowness.  Override with ``LIVENET_DEADLINE`` for slow CI.
LIVENET_DEADLINE = float(os.environ.get("LIVENET_DEADLINE", "30.0"))


@pytest.fixture
def live_run():
    """Run a coroutine in a fresh event loop under the livenet deadline."""

    def run(coro, timeout: float = LIVENET_DEADLINE):
        return asyncio.run(asyncio.wait_for(coro, timeout=timeout))

    return run


def registry_client(addr) -> RegistryClient:
    """The one registry client, dialling over asyncio as ``LiveIbis`` does."""
    return RegistryClient(None, addr, connector=lambda _host, a: live_connect(a))


@contextlib.asynccontextmanager
async def socket_pairs(n=1):
    """``n`` connected (client, server) LiveSocket pairs, closed on exit.

    The listener binds an OS-assigned port and is gone before the body
    runs — nothing in a test ever names a port number.
    """
    listener = await live_listen()
    client_socks, server_socks = [], []
    try:
        for _ in range(n):
            client, server = await asyncio.gather(
                live_connect(listener.addr), listener.accept()
            )
            client_socks.append(client)
            server_socks.append(server)
        listener.close()
        yield client_socks, server_socks
    finally:
        listener.close()
        for sock in client_socks + server_socks:
            sock.close()


async def eventually(predicate, timeout: float = 5.0,
                     first_interval: float = 0.0005) -> None:
    """Wait until ``predicate()`` is truthy, geometric backoff, bounded.

    For conditions without an awaitable edge.  The first probe is
    sub-millisecond and the interval doubles (capped at 50ms), so the
    wait tracks the condition instead of a fixed polling clock.  Raises
    ``TimeoutError`` with the predicate's repr if the deadline passes.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    interval = first_interval
    while not predicate():
        if loop.time() >= deadline:
            raise TimeoutError(
                f"condition never became true within {timeout}s: {predicate!r}"
            )
        await asyncio.sleep(min(interval, max(0.0, deadline - loop.time())))
        interval = min(interval * 2, 0.05)
