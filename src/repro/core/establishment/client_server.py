"""Standard TCP client/server establishment (paper §3.1, Figure 1 left).

The preferred method whenever the responder can accept unsolicited inbound
connections: native TCP, no brokering beyond learning the listener address,
no relay in the path.
"""

from __future__ import annotations

from typing import Optional

from ... import obs
from ...obs import TraceContext
from ...simnet.packet import Addr
from ...simnet.sockets import connect, listen
from ...simnet.tcp import TcpConfig
from ..links import TcpLink
from .base import CLIENT_SERVER
from .verify import verify_initiator, verify_responder

__all__ = ["open_listener", "connect_and_verify", "accept_and_verify"]


def open_listener(host, port: int = 0):
    """Responder side: open an ephemeral listener; returns it (addr known)."""
    return listen(host, port, backlog=4)


async def connect_and_verify(
    host,
    addr: Addr,
    nonce: int,
    config: Optional[TcpConfig] = None,
    ctx: Optional[TraceContext] = None,
):
    """Initiator side: dial the listener, run the cookie exchange."""
    sock = await connect(host, addr, config=config)
    link = TcpLink(sock, CLIENT_SERVER)
    try:
        await verify_initiator(link, nonce)
    except Exception:
        link.abort()
        raise
    obs.event(
        "establish.link", ctx=ctx, method=CLIENT_SERVER, role="initiator"
    )
    return link


async def accept_and_verify(
    listener, nonce: int, ctx: Optional[TraceContext] = None
):
    """Responder side: accept one connection, run the cookie exchange."""
    sock = await listener.accept()
    link = TcpLink(sock, CLIENT_SERVER)
    try:
        await verify_responder(link, nonce)
    except Exception:
        link.abort()
        raise
    obs.event(
        "establish.link", ctx=ctx, method=CLIENT_SERVER, role="responder"
    )
    return link
