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
    "TcpLink",
    "LinkClosed",
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
    one ``bytes`` per write.
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
                raise EOFError(f"link ended with {remaining}/{n} bytes missing")
            if len(data) == n:
                return data  # one chunk satisfied the read: nothing to join
            chunks.append(data)
            remaining -= len(data)
        return b"".join(chunks)

    def close(self) -> None:
        raise NotImplementedError

    def abort(self) -> None:
        self.close()


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
