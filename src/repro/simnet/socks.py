"""SOCKS5 proxy (RFC 1928) over simulated TCP — paper §3.3.

"The main versatile TCP proxy is SOCKS, which also has been standardized."
The proxy runs on a site gateway (dual-homed host); clients inside the
firewall connect out to it and it dials the true destination on their
behalf.

We implement the two commands the paper's scenarios need:

* **CONNECT** — outbound through a firewall, or out of a private/NATted
  site ("it also allows hosts with private IP addresses ... to connect to
  the outside").
* **BIND** — the server-behind-the-proxy case: "clients have to connect to
  a dynamically-allocated port number on the proxy itself, which requires
  some information exchange" — which is exactly why SOCKS is unusable for
  bootstrap links (Table 1) and needs brokering.

Wire format follows RFC 1928 (no-auth method, IPv4 address type) so the
byte-level framing is real, not a stand-in.

Causal tracing rides the method negotiation: RFC 1928 reserves methods
``0x80``–``0xFE`` for private use, so a client holding a
:class:`~repro.obs.context.TraceContext` offers method ``0x80``
("trace metadata") alongside no-auth.  A server that understands it
selects ``0x80`` and reads the 24-byte context before the request; any
other SOCKS server simply picks no-auth and the handshake proceeds
untraced — the extension degrades cleanly.
"""

from __future__ import annotations

import struct
from typing import Generator, Optional

from .. import obs
from ..obs import TraceContext
from ..obs.flight import FlightRecorder
from .packet import Addr, int_to_ip, ip_to_int
from .sockets import SimSocket, connect, listen
from .tcp import SocketClosed

__all__ = [
    "SocksServer",
    "SocksError",
    "socks_connect",
    "socks_bind",
    "socks_accept_bound",
    "PIPE_CHUNK",
    "METHOD_TRACE",
]

SOCKS_VERSION = 5
CMD_CONNECT = 1
CMD_BIND = 2
ATYP_IPV4 = 1
REP_OK = 0
REP_FAILURE = 1
REP_REFUSED = 5
METHOD_NOAUTH = 0
#: private-use method (RFC 1928 §3) carrying a 24-byte trace context
METHOD_TRACE = 0x80

PIPE_CHUNK = 65536


class SocksError(Exception):
    """SOCKS negotiation failed."""


def _pack_addr(addr: Addr) -> bytes:
    return struct.pack("!B4sH", ATYP_IPV4, ip_to_int(addr[0]).to_bytes(4, "big"), addr[1])


def _reply(rep: int, addr: Addr = ("0.0.0.0", 0)) -> bytes:
    return struct.pack("!BBB", SOCKS_VERSION, rep, 0) + _pack_addr(addr)


def _parse_addr(raw: bytes) -> Addr:
    atyp, packed, port = struct.unpack("!B4sH", raw)
    if atyp != ATYP_IPV4:
        raise SocksError(f"unsupported address type {atyp}")
    return (int_to_ip(int.from_bytes(packed, "big")), port)


class SocksServer:
    """A SOCKS5 server process on a (gateway) host."""

    def __init__(self, host, port: int = 1080):
        self.host = host
        self.port = port
        self.listener = None
        self.sessions = 0
        self._process = None
        #: sockets of in-flight proxied streams, severed on :meth:`stop` in
        #: the order they were accepted (a dict, not a set: hash order would
        #: make a ``proxy_restart`` differ from run to run)
        self._active: dict[SimSocket, None] = {}
        #: always-on black box (node-tagged by the proxy host's address)
        self.flight = FlightRecorder(
            f"proxy:{host.ip}", clock=lambda: host.sim.now
        )

    def start(self) -> None:
        """Begin accepting SOCKS clients (spawns the accept loop)."""
        self.listener = listen(self.host, self.port)
        self._process = self.host.sim.process(self._accept_loop(), name="socks-accept")

    def stop(self) -> None:
        """Crash the proxy: stop accepting and sever every proxied stream.

        Fault-injection hook (``proxy_restart``): a gateway proxy reboot
        resets every stream spliced through it, even though the endpoints'
        own networks never blinked.  :meth:`start` brings it back.
        """
        if self.listener is not None:
            self.listener.close()
            self.listener = None
        for sock in list(self._active):
            try:
                sock.abort()
            except Exception:
                pass
        self._active.clear()

    @property
    def addr(self) -> Addr:
        return (self.host.ip, self.port)

    def _accept_loop(self) -> Generator:
        try:
            while True:
                client = yield from self.listener.accept()
                self.host.sim.process(self._session(client), name="socks-session")
                self.sessions += 1
        except SocketClosed:
            return  # stopped

    def _session(self, client: SimSocket) -> Generator:
        self._active[client] = None
        try:
            # Greeting: VER NMETHODS METHODS...
            head = yield from client.recv_exactly(2)
            ver, nmethods = head[0], head[1]
            if ver != SOCKS_VERSION:
                raise SocksError(f"bad version {ver}")
            methods = yield from client.recv_exactly(nmethods)
            ctx = None
            if METHOD_TRACE in methods:
                # Select the trace-metadata method: the client follows up
                # with its 24-byte context before the request.
                yield from client.send_all(bytes([SOCKS_VERSION, METHOD_TRACE]))
                blob = yield from client.recv_exactly(24)
                try:
                    ctx = TraceContext.decode(blob).child()
                except ValueError:
                    ctx = None
            else:
                yield from client.send_all(bytes([SOCKS_VERSION, METHOD_NOAUTH]))

            # Request: VER CMD RSV ATYP ADDR PORT
            req = yield from client.recv_exactly(4 + 4 + 2)
            ver, cmd, _rsv = req[0], req[1], req[2]
            target = _parse_addr(req[3:])
            if ver != SOCKS_VERSION:
                raise SocksError(f"bad version {ver}")
            self.flight.note(
                "socks.request", ctx=ctx,
                cmd="connect" if cmd == CMD_CONNECT else f"cmd{cmd}",
                target=f"{target[0]}:{target[1]}",
            )

            if cmd == CMD_CONNECT:
                yield from self._do_connect(client, target, ctx)
            elif cmd == CMD_BIND:
                yield from self._do_bind(client, target, ctx)
            else:
                yield from client.send_all(_reply(REP_FAILURE))
                client.close()
        except (EOFError, SocksError):
            client.abort()
            self._active.pop(client, None)

    def _do_connect(
        self, client: SimSocket, target: Addr, ctx: Optional[TraceContext] = None
    ) -> Generator:
        try:
            upstream = yield from connect(self.host, target)
        except Exception:
            self.flight.note("socks.refused", ctx=ctx, target=f"{target[0]}:{target[1]}")
            yield from client.send_all(_reply(REP_REFUSED))
            client.close()
            self._active.pop(client, None)
            return
        yield from client.send_all(_reply(REP_OK, upstream.laddr))
        self._start_pipes(client, upstream, ctx)

    def _do_bind(
        self, client: SimSocket, _hint: Addr, ctx: Optional[TraceContext] = None
    ) -> Generator:
        bound = listen(self.host, 0, backlog=1)
        # First reply: where the remote peer should connect.
        yield from client.send_all(_reply(REP_OK, bound.addr))
        inbound = yield from bound.accept()
        bound.close()
        # Second reply: who connected.
        yield from client.send_all(_reply(REP_OK, inbound.raddr))
        self._start_pipes(client, inbound, ctx)

    def _start_pipes(
        self, a: SimSocket, b: SimSocket, ctx: Optional[TraceContext] = None
    ) -> None:
        sim = self.host.sim
        node = self.flight.node
        self._active.update({a: None, b: None})
        done = {"count": 0, "bytes": 0}
        t0 = sim.now

        def run(src: SimSocket, dst: SimSocket) -> Generator:
            done["bytes"] += yield from _pipe(src, dst)
            done["count"] += 1
            if done["count"] == 2:
                self._active.pop(a, None)
                self._active.pop(b, None)
                obs.record_span(
                    "socks.pipe", t0, sim.now, ctx=ctx, node=node,
                    bytes=done["bytes"],
                )

        sim.process(run(a, b), name="socks-pipe")
        sim.process(run(b, a), name="socks-pipe")


def _pipe(src: SimSocket, dst: SimSocket) -> Generator:
    """Copy src -> dst until EOF, then half-close dst; returns byte count."""
    copied = 0
    try:
        while True:
            data = yield from src.recv(PIPE_CHUNK)
            if not data:
                break
            copied += len(data)
            yield from dst.send_all(data)
    except Exception:
        dst.abort()
        return copied
    dst.close()
    return copied


# -- client side ---------------------------------------------------------------


def _client_handshake(
    sock: SimSocket, ctx: Optional[TraceContext] = None
) -> Generator:
    if ctx is None:
        yield from sock.send_all(bytes([SOCKS_VERSION, 1, METHOD_NOAUTH]))
    else:
        # Offer trace metadata alongside no-auth; either answer is fine.
        yield from sock.send_all(
            bytes([SOCKS_VERSION, 2, METHOD_TRACE, METHOD_NOAUTH])
        )
    resp = yield from sock.recv_exactly(2)
    if resp[0] != SOCKS_VERSION:
        raise SocksError(f"method negotiation failed: {resp!r}")
    if resp[1] == METHOD_TRACE and ctx is not None:
        yield from sock.send_all(ctx.encode())
    elif resp[1] != METHOD_NOAUTH:
        raise SocksError(f"method negotiation failed: {resp!r}")


def _read_reply(sock: SimSocket) -> Generator:
    head = yield from sock.recv_exactly(3)
    if head[0] != SOCKS_VERSION:
        raise SocksError(f"bad version in reply {head[0]}")
    if head[1] != REP_OK:
        raise SocksError(f"proxy reported error {head[1]}")
    addr = _parse_addr((yield from sock.recv_exactly(7)))
    return addr


def socks_connect(
    host, proxy: Addr, target: Addr, ctx: Optional[TraceContext] = None
) -> Generator:
    """CONNECT to ``target`` through the SOCKS proxy at ``proxy``.

    Returns a :class:`SimSocket` whose byte stream is piped to the target —
    "the link may then be used exactly like a direct TCP connection".
    """
    sock = yield from connect(host, proxy)
    try:
        yield from _client_handshake(sock, ctx)
        yield from sock.send_all(
            struct.pack("!BBB", SOCKS_VERSION, CMD_CONNECT, 0) + _pack_addr(target)
        )
        yield from _read_reply(sock)
    except Exception:
        sock.abort()
        raise
    return sock


def socks_bind(
    host, proxy: Addr, ctx: Optional[TraceContext] = None
) -> Generator:
    """BIND: ask the proxy for an inbound listening address.

    Returns ``(sock, bound_addr)``; share ``bound_addr`` with the remote
    peer out of band, then call :func:`socks_accept_bound`.
    """
    sock = yield from connect(host, proxy)
    try:
        yield from _client_handshake(sock, ctx)
        yield from sock.send_all(
            struct.pack("!BBB", SOCKS_VERSION, CMD_BIND, 0) + _pack_addr(("0.0.0.0", 0))
        )
        bound_addr = yield from _read_reply(sock)
    except Exception:
        sock.abort()
        raise
    return sock, bound_addr


def socks_accept_bound(sock: SimSocket) -> Generator:
    """Wait for the second BIND reply; returns the connecting peer's addr."""
    peer = yield from _read_reply(sock)
    return peer
