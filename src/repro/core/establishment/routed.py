"""Routed-messages establishment: the last-resort fallback (paper §3.3).

A data path through the relay always works for any node that managed to
register, but it is message-based (not native TCP) and every byte crosses
the relay, so "routed messages are not supposed to be used for data,
except in extreme cases when there is no other connection method
possible."
"""

from __future__ import annotations

from typing import Optional

from ... import obs
from ...obs import TraceContext
from ..relay import RoutedLink
from .base import ROUTED
from .verify import verify_responder

__all__ = ["accept_routed_and_verify"]


async def accept_routed_and_verify(
    link: RoutedLink, nonce: int, ctx: Optional[TraceContext] = None
):
    """Responder: verify an incoming routed channel."""
    try:
        await verify_responder(link, nonce)
    except Exception:
        link.close()
        raise
    obs.event("establish.link", ctx=ctx, method=ROUTED, role="responder")
    return link
