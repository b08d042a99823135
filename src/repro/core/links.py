"""The link abstraction: an established byte stream, however it was built.

"For clarity, we use the term link for an established connection" (paper
§2).  A link exposes the same stream interface whether it is a native TCP
connection (client/server or spliced), a SOCKS-proxied connection, or a
virtual stream routed through the relay — that uniformity is what lets the
utilization drivers compose with any establishment method.

Every link carries the metadata of Table 1 (native TCP? relayed? which
method built it?) so benchmarks and the decision logic can inspect it.
"""

from __future__ import annotations

from ..simnet.packet import Addr
from ..simnet.sockets import SimSocket

__all__ = [
    "Link",
    "BufferedLink",
    "TcpLink",
    "LinkClosed",
    "feed",
    "link_ended",
    "transport_errors",
    "LINK_KIND_DATA",
    "LINK_KIND_SERVICE",
    "LINK_KIND_BOOTSTRAP",
]

LINK_KIND_DATA = "data"
LINK_KIND_SERVICE = "service"
LINK_KIND_BOOTSTRAP = "bootstrap"


class LinkClosed(Exception):
    """Operation on a closed link."""


def link_ended(missing: int, n: int) -> EOFError:
    """What a read of ``n`` bytes raises when its link ends ``missing``
    bytes short."""
    return EOFError(f"link ended with {missing}/{n} bytes missing")


def feed(link, received, ended, read, errors, spawn) -> None:
    """Hand what ``link`` receives to one consumer.

    A link whose class has ``push_to`` holds what it receives in a core
    and pushes it: ``received(data)`` is called with every payload inside
    the call that received it, what was queued before first, and
    ``ended(exc)`` with the end, once (``None`` at a clean end of the
    stream).  Any other link is read for the consumer by one pump, which
    ``spawn`` starts: each ``await read()`` goes to ``received`` for as
    long as that answers true, and a read that raises one of ``errors``
    goes to ``ended``.  A consumer keeps nothing it is handed past the
    call unless it is :func:`~repro.util.bytesbuf.frozen`, and raises
    nothing: a failure fails its own layer."""
    push_to = getattr(type(link), "push_to", None)
    if push_to is not None:
        push_to(link, received, ended)
    else:
        spawn(_pump(read, received, ended, errors))


async def _pump(read, received, ended, errors):
    try:
        while received(await read()):
            pass
    except errors as exc:
        ended(exc)


def transport_errors() -> tuple:
    """The exception classes that mean "the underlying transport died",
    of both families: the simulator's and (``OSError``) real sockets'.

    Computed lazily to avoid an import cycle (``relay`` imports ``links``).
    Session-layer recovery treats exactly these — plus :class:`EOFError`
    from a mid-frame stream end — as survivable transport failures.
    """
    from ..simnet.tcp import TcpError
    from .relay import RelayError

    return (EOFError, OSError, LinkClosed, TcpError, RelayError)


class Link:
    """Abstract established connection (paper §2).

    Subclasses provide the stream operations as awaitables (``async
    def``, or a simulator socket's generator-based leaves), which a
    simulator process and an asyncio task both drive.  Metadata:

    * ``method`` — establishment method name ("client_server", "splicing",
      "socks_proxy", "routed").
    * ``native_tcp`` — True when the bytes ride a dedicated TCP connection
      end to end (Table 1: only such links compose with all utilization
      methods; routed links are message-based).
    * ``relayed`` — True when an application-level relay forwards the data.

    ``gathers`` is True on a class whose ``send_all`` also takes a buffer
    list (:func:`repro.util.bytesbuf.for_stream`); any other is handed
    one ``bytes`` per write.  What a link receives goes up to the layer
    above it through :func:`feed`.
    """

    method: str = "abstract"
    native_tcp: bool = False
    relayed: bool = False
    gathers: bool = False

    @property
    def sim(self):
        """The simulator this link lives in."""
        raise NotImplementedError

    async def send_all(self, data: bytes):
        raise NotImplementedError

    async def recv(self, maxbytes: int):
        raise NotImplementedError

    async def recv_exactly(self, n: int):
        chunks = []
        remaining = n
        while remaining > 0:
            data = await self.recv(remaining)
            if not data:
                raise link_ended(remaining, n)
            if len(data) == n:
                return data  # one chunk satisfied the read: nothing to join
            chunks.append(data)
            remaining -= len(data)
        return b"".join(chunks)

    def close(self) -> None:
        raise NotImplementedError

    def abort(self) -> None:
        self.close()


class BufferedLink(Link):
    """A link whose received bytes a sans-IO core holds: ``read`` answers
    at once — bytes, ``b""`` at EOF, ``None`` to wait — and what
    ``_readable()`` returns is awaited until ``read`` may answer again.
    ``recv_exactly`` is :class:`Link`'s loop with ``recv`` unrolled into
    it: a frame read off a mux channel or a session link is two calls,
    not four (11 Python calls of an rpc round trip)."""

    def read(self, maxbytes: int):
        raise NotImplementedError

    def _readable(self):
        raise NotImplementedError

    async def recv(self, maxbytes: int):
        while (data := self.read(maxbytes)) is None:
            await self._readable()
        return data

    async def recv_exactly(self, n: int):
        chunks = []
        remaining = n
        while remaining > 0:
            while (data := self.read(remaining)) is None:
                await self._readable()
            if not data:
                raise link_ended(remaining, n)
            if len(data) == n:
                return data  # one read satisfied it: nothing to join
            chunks.append(data)
            remaining -= len(data)
        return b"".join(chunks)


class TcpLink(Link):
    """A link over a native TCP connection (direct or via SOCKS pipe)."""

    native_tcp = True

    def __init__(self, sock: SimSocket, method: str, relayed: bool = False):
        self._sock = sock
        self.method = method
        self.relayed = relayed

    @property
    def laddr(self) -> Addr:
        return self._sock.laddr

    @property
    def raddr(self) -> Addr:
        return self._sock.raddr

    @property
    def socket(self) -> SimSocket:
        return self._sock

    @property
    def sim(self):
        return self._sock.sim

    async def send_all(self, data: bytes):
        await self._sock.send_all(data)

    async def recv(self, maxbytes: int):
        return await self._sock.recv(maxbytes)

    def close(self) -> None:
        self._sock.close()

    def abort(self) -> None:
        self._sock.abort()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TcpLink {self.method} {self._sock.laddr}->{self._sock.raddr}>"
