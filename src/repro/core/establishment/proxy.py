"""SOCKS-proxied establishment (paper §3.3).

Two shapes, both producing a native-TCP (but relayed) link:

* **CONNECT** — the initiator's site proxy dials an accepting responder
  ("a SOCKS proxy allows an outgoing connection to cross a firewall; it
  also allows hosts with private IP addresses ... to connect to the
  outside").
* **BIND** — the responder is itself behind the proxy: it asks its proxy
  for a dynamically allocated inbound port and sends that address to the
  initiator over the service link ("clients have to connect to a
  dynamically-allocated port number on the proxy itself, which requires
  some information exchange").
"""

from __future__ import annotations

from typing import Optional

from ... import obs
from ...obs import TraceContext
from ...simnet.packet import Addr
from ...simnet.sockets import SimSocket, connect
from ...simnet.socks import socks_accept_bound, socks_bind, socks_connect
from ..links import TcpLink
from .base import SOCKS_PROXY
from .verify import verify_initiator, verify_responder

__all__ = [
    "connect_direct_and_verify",
    "connect_via_proxy_and_verify",
    "bind_via_proxy",
    "await_bound_and_verify",
]


async def connect_via_proxy_and_verify(
    host, proxy: Addr, target: Addr, nonce: int,
    ctx: Optional[TraceContext] = None,
):
    """Initiator: CONNECT through ``proxy`` to ``target`` and verify."""
    sock = await socks_connect(host, proxy, target, ctx=ctx)
    link = TcpLink(sock, SOCKS_PROXY, relayed=True)
    try:
        await verify_initiator(link, nonce)
    except Exception:
        link.abort()
        raise
    obs.event("establish.link", ctx=ctx, method=SOCKS_PROXY, role="initiator")
    return link


async def connect_direct_and_verify(
    host, target: Addr, nonce: int, ctx: Optional[TraceContext] = None
):
    """Initiator without a proxy dialing a proxy-bound address directly."""
    sock = await connect(host, target)
    link = TcpLink(sock, SOCKS_PROXY, relayed=True)
    try:
        await verify_initiator(link, nonce)
    except Exception:
        link.abort()
        raise
    obs.event("establish.link", ctx=ctx, method=SOCKS_PROXY, role="initiator")
    return link


async def bind_via_proxy(host, proxy: Addr):
    """Responder: BIND on its proxy; returns (control_sock, bound_addr)."""
    sock, bound = await socks_bind(host, proxy)
    return sock, bound


async def await_bound_and_verify(
    sock: SimSocket, nonce: int, ctx: Optional[TraceContext] = None
):
    """Responder: wait for the initiator on the bound port and verify."""
    await socks_accept_bound(sock)
    link = TcpLink(sock, SOCKS_PROXY, relayed=True)
    try:
        await verify_responder(link, nonce)
    except Exception:
        link.abort()
        raise
    obs.event("establish.link", ctx=ctx, method=SOCKS_PROXY, role="responder")
    return link
