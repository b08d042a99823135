"""Real-socket transport: the sim socket API over asyncio streams.

The paper's architecture claim — establishment and utilization are
orthogonal, drivers compose over any stream — is demonstrated off the
simulator too: :mod:`repro.livenet` runs the same wire formats (block
framing, striping layout, compression flags, the sans-IO TLS handshake)
over genuine TCP connections.

Scope note: OS-level middlebox behaviour (firewalls, NAT) obviously cannot
be created from user space, so the live backend covers the *utilization*
side plus relay-routed connectivity; the establishment matrix lives in the
simulator.  Simultaneous open (TCP splicing) *is* exposed — Linux supports
it — as :func:`live_connect_simultaneous`, best-effort.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Optional, Tuple

__all__ = [
    "LiveSocket",
    "LiveListener",
    "live_connect",
    "live_listen",
    "live_connect_simultaneous",
    "set_connect_hook",
]

Addr = Tuple[str, int]

#: optional dial hook: every ``live_connect`` target passes through it,
#: letting a harness interpose a gateway (e.g. the chaos proxy) between
#: endpoints without the endpoint factories knowing.  The hook receives
#: the requested address and returns the address to actually dial.
_connect_hook = None


def set_connect_hook(hook):
    """Install (or with ``None`` clear) the dial hook; returns the old one."""
    global _connect_hook
    previous = _connect_hook
    _connect_hook = hook
    return previous


class LiveSocket:
    """A connected TCP stream (asyncio) with the library's socket API."""

    # Table 1's metadata, as :class:`repro.core.links.Link` carries it
    method = "client_server"
    native_tcp = True
    relayed = False

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @property
    def laddr(self) -> Addr:
        return self._writer.get_extra_info("sockname")[:2]

    @property
    def raddr(self) -> Addr:
        return self._writer.get_extra_info("peername")[:2]

    async def send_all(self, data: bytes) -> None:
        self._writer.write(data)
        await self._writer.drain()

    async def recv(self, maxbytes: int) -> bytes:
        return await self._reader.read(maxbytes)

    async def recv_exactly(self, n: int) -> bytes:
        try:
            return await self._reader.readexactly(n)
        except asyncio.IncompleteReadError as exc:
            raise EOFError(
                f"stream ended with {n - len(exc.partial)}/{n} bytes missing"
            ) from exc

    def close(self) -> None:
        self._writer.close()

    def write_eof(self) -> None:
        """Half-close: signal EOF to the peer, keep receiving."""
        try:
            self._writer.write_eof()
        except (ConnectionError, OSError, RuntimeError):
            pass

    async def wait_closed(self) -> None:
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def abort(self) -> None:
        transport = self._writer.transport
        if transport is not None:
            transport.abort()


class LiveListener:
    """A listening socket; ``accept`` yields :class:`LiveSocket`."""

    def __init__(self, server: asyncio.Server, queue: asyncio.Queue):
        self._server = server
        self._queue = queue

    @property
    def addr(self) -> Addr:
        return self._server.sockets[0].getsockname()[:2]

    @property
    def port(self) -> int:
        return self.addr[1]

    async def accept(self) -> LiveSocket:
        return await self._queue.get()

    def close(self) -> None:
        self._server.close()


async def live_listen(host: str = "127.0.0.1", port: int = 0) -> LiveListener:
    """Open a listener; connections queue until accepted."""
    queue: asyncio.Queue = asyncio.Queue()

    async def on_connect(reader, writer):
        await queue.put(LiveSocket(reader, writer))

    server = await asyncio.start_server(on_connect, host, port)
    return LiveListener(server, queue)


async def live_connect(addr: Addr, lport: int = 0) -> LiveSocket:
    """Connect to ``addr``; optionally from a fixed local port."""
    if _connect_hook is not None:
        addr = _connect_hook(addr) or addr
    local_addr = ("0.0.0.0", lport) if lport else None
    reader, writer = await asyncio.open_connection(
        addr[0], addr[1], local_addr=local_addr
    )
    return LiveSocket(reader, writer)


async def live_connect_simultaneous(
    addr: Addr,
    lport: int,
    attempts: int = 5,
    retry_delay: float = 0.3,
) -> LiveSocket:
    """Best-effort TCP splicing on a real network.

    Binds the agreed local port (SO_REUSEADDR) and dials the peer, retrying
    on refusal — identical in shape to the simulated splicing method.  On
    Linux, crossing SYNs complete the simultaneous open across a real
    network path.

    Note: this cannot succeed on *loopback* — with zero RTT the kernel
    evaluates each connect synchronously (no listener, no in-flight SYN →
    instant refusal), so the crossing window never opens.  The behaviour
    needs genuine network latency, which is exactly what the simulator
    provides; see the simnet splicing tests for the verified mechanism.
    """
    last: Optional[Exception] = None
    for attempt in range(attempts):
        if attempt:
            await asyncio.sleep(retry_delay)
        raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        raw.setblocking(False)
        try:
            raw.bind(("0.0.0.0", lport))
            loop = asyncio.get_running_loop()
            await loop.sock_connect(raw, addr)
        except (ConnectionError, OSError) as exc:
            raw.close()
            last = exc
            continue
        reader, writer = await asyncio.open_connection(sock=raw)
        return LiveSocket(reader, writer)
    raise last if last is not None else ConnectionError("splice failed")
