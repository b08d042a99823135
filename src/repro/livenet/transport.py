"""Real-socket transport: the sim socket API over asyncio.

The paper's architecture claim — establishment and utilization are
orthogonal, drivers compose over any stream — is demonstrated off the
simulator too: :mod:`repro.livenet` runs the same wire formats (block
framing, striping layout, compression flags, the sans-IO TLS handshake)
over genuine TCP connections.

Every live layer reads and writes through :class:`LiveSocket`, so it is
the floor under every live number, and it is kept thin.  It is its own
``asyncio.Protocol`` rather than a wrapper of asyncio's stream reader and
writer: it keeps the ``bytes`` chunks the transport hands to
``data_received`` as they are (a read takes a whole chunk when it fits, a
copy of only what it takes otherwise), and a parked reader waits on one
future for as many bytes as it asked for, not one per chunk.  Reading
pauses while more than :data:`HIGH_WATER` bytes sit unread and resumes
below half of it; a write waits only while the transport has paused
writing.  ``tests/livenet/test_transport.py`` pins the contract.

It is the bottom of the stack's copy discipline
(:mod:`repro.util.bytesbuf`).  ``send_all`` takes a buffer list: into a
transport that holds nothing it goes with one ``writelines`` (``sendmsg``
from Python 3.12, one join before that), so that a header never leaves
alone; into one that already holds data, one ``write`` per buffer, each of
which only adds to what it holds.  ``recv_exactly`` hands a large read
that one received chunk holds out as a view of that chunk.

Scope note: OS-level middlebox behaviour (firewalls, NAT) obviously cannot
be created from user space, so the live backend covers the *utilization*
side plus relay-routed connectivity; the establishment matrix lives in the
simulator.  Simultaneous open (TCP splicing) *is* exposed — Linux supports
it — as :func:`live_connect_simultaneous`, best-effort.
"""

from __future__ import annotations

import asyncio
import socket
from collections import deque
from typing import Callable, Optional, Tuple

from ..util.bytesbuf import BY_REF

__all__ = [
    "LiveSocket",
    "LiveListener",
    "live_connect",
    "live_listen",
    "live_connect_simultaneous",
    "set_connect_hook",
    "HIGH_WATER",
]

Addr = Tuple[str, int]

#: unread bytes per connection above which reading from the socket pauses
#: (it resumes below half) — where asyncio's stream reader paused.  1 MiB
#: was measured against it: ``bulk_routed`` lost 1.5 % (7 of 7 pairs),
#: ``bulk_plain`` gained 1.6 %, inside its spread.
HIGH_WATER = 1 << 17

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


class LiveSocket(asyncio.Protocol):
    """A connected TCP stream (asyncio) with the library's socket API."""

    # Table 1's metadata, as :class:`repro.core.links.Link` carries it
    method = "client_server"
    native_tcp = True
    relayed = False
    #: what a routed link names its peer by; a direct socket names none
    #: (a request on it names its sender)
    peer = ""
    #: ``send_all`` takes a buffer list (``repro.util.bytesbuf.for_stream``)
    gathers = True

    def __init__(self, on_connected: Optional[Callable] = None):
        self._loop = asyncio.get_running_loop()
        self._on_connected = on_connected
        self._transport: Optional[asyncio.Transport] = None
        #: received chunks not yet read (``_head`` bytes of the first are)
        self._chunks: deque = deque()
        self._head = 0
        self._buffered = 0
        #: the peer's EOF or the connection's end; ``_lost`` its error
        self._eof = False
        self._lost: Optional[BaseException] = None
        #: the one parked reader's future, and how many bytes wake it
        self._waiter: Optional[asyncio.Future] = None
        self._want = 0
        self._reading_paused = False
        self._writing_paused = False
        self._drain_waiters: deque = deque()
        self._closed = self._loop.create_future()

    # -- asyncio.Protocol ----------------------------------------------------
    def connection_made(self, transport) -> None:
        self._transport = transport
        if self._on_connected is not None:
            self._on_connected(self)

    def data_received(self, data: bytes) -> None:
        self._chunks.append(data)
        self._buffered += len(data)
        if self._waiter is not None:
            if self._buffered >= self._want:
                self._wake()
        elif self._buffered > HIGH_WATER and not self._reading_paused:
            self._reading_paused = True
            self._transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        return True  # half-close: keep the transport for writing

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._eof = True
        self._lost = exc
        self._wake()
        self.resume_writing()  # parked writers find the transport closing
        if not self._closed.done():
            self._closed.set_result(None)

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_result(None)

    # -- the socket API --------------------------------------------------------
    @property
    def laddr(self) -> Addr:
        return self._transport.get_extra_info("sockname")[:2]

    @property
    def raddr(self) -> Addr:
        return self._transport.get_extra_info("peername")[:2]

    @property
    def buffered(self) -> int:
        """Received bytes a read takes without waiting."""
        return self._buffered

    async def send_all(self, data) -> None:
        """Write ``data``, one buffer or a buffer list (see the module
        docstring for how a list is written)."""
        transport = self._transport
        if type(data) is list:
            if transport.get_write_buffer_size():
                for part in data:
                    transport.write(part)
            else:
                transport.writelines(data)
        else:
            transport.write(data)
        while self._writing_paused and not transport.is_closing():
            waiter = self._loop.create_future()
            self._drain_waiters.append(waiter)
            try:
                await waiter
            finally:
                self._drain_waiters.remove(waiter)
        if transport.is_closing():
            raise ConnectionResetError("Connection lost")

    async def recv(self, maxbytes: int) -> bytes:
        """Up to ``maxbytes``: a whole received chunk when it fits;
        ``b""`` at EOF."""
        while not self._buffered:
            if self._eof:
                return self._end()
            await self._wait(1)
        return self._take(min(maxbytes, len(self._chunks[0]) - self._head))

    async def recv_exactly(self, n: int) -> bytes:
        """Exactly ``n`` bytes: ``bytes``, or for a read of at least
        :data:`~repro.util.bytesbuf.BY_REF` bytes that one received chunk
        holds, a view of that chunk."""
        while self._buffered < n:
            if self._eof:
                self._end()
                raise EOFError(
                    f"stream ended with {n - self._buffered}/{n} bytes missing")
            await self._wait(n)
        return self._take(n, n >= BY_REF) if n else b""

    def close(self) -> None:
        self._transport.close()

    def write_eof(self) -> None:
        """Half-close: signal EOF to the peer, keep receiving."""
        try:
            self._transport.write_eof()
        except (ConnectionError, OSError, RuntimeError):
            pass

    async def wait_closed(self) -> None:
        await asyncio.shield(self._closed)

    def abort(self) -> None:
        self._transport.abort()

    # -- reading internals -----------------------------------------------------
    async def _wait(self, want: int) -> None:
        """Park until ``want`` bytes are buffered, or EOF."""
        if self._waiter is not None:
            raise RuntimeError("another coroutine is already reading this socket")
        if self._reading_paused:
            self._resume_reading()
        self._want = want
        self._waiter = waiter = self._loop.create_future()
        try:
            await waiter
        finally:
            self._waiter = None

    def _wake(self) -> None:
        waiter, self._waiter = self._waiter, None
        if waiter is not None and not waiter.done():  # else: cancelled
            waiter.set_result(None)

    def _end(self) -> bytes:
        """Nothing buffered is left: the reset's error, else EOF."""
        if self._lost is not None:
            raise self._lost
        return b""

    def _take(self, n: int, view: bool = False) -> bytes:
        """The next ``n`` buffered bytes: the first chunk whole, a slice of
        it (with ``view``, a view of it), or the one join of the chunks
        they span."""
        chunks = self._chunks
        chunk = chunks[0]
        head = self._head
        end = head + n
        if end < len(chunk):
            self._head = end
            data = memoryview(chunk)[head:end] if view else chunk[head:end]
        elif end == len(chunk):
            chunks.popleft()
            self._head = 0
            if head:
                data = memoryview(chunk)[head:] if view else chunk[head:]
            else:
                data = chunk
        else:
            parts = []
            while n:
                chunk = chunks[0]
                size = len(chunk) - head
                if size > n:
                    parts.append(memoryview(chunk)[head:head + n])
                    head += n
                    break
                chunks.popleft()
                parts.append(memoryview(chunk)[head:] if head else chunk)
                head = 0
                n -= size
            self._head = head
            data = b"".join(parts)
        self._buffered -= len(data)
        if self._reading_paused and self._buffered < HIGH_WATER // 2:
            self._resume_reading()
        return data

    def _resume_reading(self) -> None:
        self._reading_paused = False
        self._transport.resume_reading()


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
    server = await asyncio.get_running_loop().create_server(
        lambda: LiveSocket(queue.put_nowait), host, port)
    return LiveListener(server, queue)


async def live_connect(addr: Addr, lport: int = 0) -> LiveSocket:
    """Connect to ``addr``; optionally from a fixed local port."""
    if _connect_hook is not None:
        addr = _connect_hook(addr) or addr
    local_addr = ("0.0.0.0", lport) if lport else None
    _, sock = await asyncio.get_running_loop().create_connection(
        LiveSocket, addr[0], addr[1], local_addr=local_addr)
    return sock


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
    loop = asyncio.get_running_loop()
    for attempt in range(attempts):
        if attempt:
            await asyncio.sleep(retry_delay)
        raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        raw.setblocking(False)
        try:
            raw.bind(("0.0.0.0", lport))
            await loop.sock_connect(raw, addr)
        except (ConnectionError, OSError) as exc:
            raw.close()
            last = exc
            continue
        _, sock = await loop.create_connection(LiveSocket, sock=raw)
        return sock
    raise last if last is not None else ConnectionError("splice failed")
