"""Blocking-style socket API for simulation processes.

Thin generator wrappers over :mod:`repro.simnet.tcp` so application code
reads like ordinary socket programming::

    async def client(host):
        sock = await connect(host, ("198.51.100.10", 5000))
        await sock.send_all(b"hello")
        reply = await sock.recv_exactly(5)
        sock.close()

The waiting helpers are generator-based coroutines (``types.coroutine``)
that yield the simulator's events: a coroutine a process drives
``await``s them, and a plain generator process may ``yield from`` them.
"""

from __future__ import annotations

from types import coroutine
from typing import Generator, Optional

from .engine import any_of
from .packet import Addr
from .tcp import ConnectTimeout, ListenSocket, TcpConfig, TcpError, TcpSocket

__all__ = [
    "SimSocket",
    "SimListener",
    "connect",
    "listen",
    "connect_simultaneous",
]


class SimSocket:
    """A connected stream socket bound to a simulation process' host."""

    def __init__(self, tcp: TcpSocket):
        self._tcp = tcp

    @property
    def laddr(self) -> Addr:
        return self._tcp.laddr

    @property
    def raddr(self) -> Addr:
        return self._tcp.raddr

    @property
    def tcp(self) -> TcpSocket:
        """The underlying TCP connection (for inspecting counters)."""
        return self._tcp

    @property
    def sim(self):
        """The simulator this socket lives in."""
        return self._tcp.sim

    @coroutine
    def send_all(self, data: bytes) -> Generator:
        """Send all of ``data``, blocking on send-buffer backpressure."""
        yield self._tcp.send(data)

    @coroutine
    def recv(self, maxbytes: int) -> Generator:
        """Receive up to ``maxbytes``; returns b"" at EOF."""
        data = yield self._tcp.recv(maxbytes)
        return data

    @coroutine
    def recv_exactly(self, n: int) -> Generator:
        """Receive exactly ``n`` bytes; raises :class:`EOFError` if the
        stream ends first."""
        chunks = []
        remaining = n
        while remaining > 0:
            data = yield self._tcp.recv(remaining)
            if not data:
                raise EOFError(
                    f"stream from {self.raddr} ended with {remaining} of {n} bytes missing"
                )
            chunks.append(data)
            remaining -= len(data)
        return b"".join(chunks)

    def close(self) -> None:
        self._tcp.close()

    def abort(self) -> None:
        self._tcp.abort()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimSocket {self._tcp!r}>"


class SimListener:
    """A listening socket; ``accept`` yields :class:`SimSocket`."""

    def __init__(self, listener: ListenSocket):
        self._listener = listener

    @property
    def addr(self) -> Addr:
        return self._listener.addr

    @property
    def port(self) -> int:
        return self._listener.port

    @coroutine
    def accept(self) -> Generator:
        sock = yield self._listener.accept()
        return SimSocket(sock)

    def close(self) -> None:
        self._listener.close()


def listen(host, port: int = 0, backlog: int = 64) -> SimListener:
    """Open a listening socket on ``host``."""
    return SimListener(host.tcp.listen(port, backlog))


@coroutine
def connect(
    host,
    raddr: Addr,
    lport: int = 0,
    config: Optional[TcpConfig] = None,
    laddr_ip: Optional[str] = None,
    reuse: bool = False,
) -> Generator:
    """Actively connect from ``host`` to ``raddr``; yields a SimSocket.

    Raises :class:`~repro.simnet.tcp.ConnectTimeout` /
    :class:`~repro.simnet.tcp.ConnectRefused` on failure.
    """
    sock = host.tcp.connect(
        raddr, lport=lport, config=config, laddr_ip=laddr_ip, reuse=reuse
    )
    yield sock.connected
    return SimSocket(sock)


@coroutine
def connect_simultaneous(
    host,
    raddr: Addr,
    lport: int,
    config: Optional[TcpConfig] = None,
    laddr_ip: Optional[str] = None,
    reuse: bool = False,
) -> Generator:
    """TCP splicing: simultaneous connect with an agreed port pair.

    Identical to :func:`connect` at the API level — the RFC 793 state
    machine handles the crossing SYNs — but requires ``lport`` because the
    peer must know which (ip, port) pair to dial.  ``reuse`` allows sharing
    the local port with the STUN-style mapping probe that NAT traversal
    needs (the probe keeps the cone-NAT mapping alive).
    """
    if lport == 0:
        raise ValueError("splicing requires an agreed local port")
    return (
        yield from connect(
            host, raddr, lport=lport, config=config, laddr_ip=laddr_ip, reuse=reuse
        )
    )
