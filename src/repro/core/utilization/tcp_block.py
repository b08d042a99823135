"""``TCP_Block``: the basic networking driver (paper §4.1, §5.2).

Blocks are length-prefixed frames over a single established link.  The
paper's point is that *user-space aggregation with explicit flush* — not
per-call ``send`` of small packets, and not Nagle — is what achieves both
high bandwidth and low latency; the aggregation itself lives in the
stream adapter (:class:`~repro.core.utilization.stream.BlockChannel`),
which feeds this driver whole blocks.
"""

from __future__ import annotations

from ..wire import recv_frame, send_frame
from .base import BlockMeters, Driver

__all__ = ["TcpBlockDriver"]


class TcpBlockDriver(Driver):
    """Block transport over one link (any establishment method, either
    backend: a ``Link`` in the simulator, a ``LiveSocket``, mux channel or
    session link on asyncio)."""

    name = "tcp_block"
    links_required = 1

    def __init__(self, link):
        self.link = link
        self.blocks_sent = 0
        self.blocks_received = 0
        self._tx = BlockMeters(self.name, "tx")
        self._rx = BlockMeters(self.name, "rx")

    async def send_block(self, block: bytes):
        self.blocks_sent += 1
        self._tx.record(len(block))
        await send_frame(self.link, block)

    async def recv_block(self):
        """The next block, as ``bytes``: a view the link handed up (a large
        payload never copied on its way through the layers below) is
        copied here, once, where it leaves the stack."""
        block = await recv_frame(self.link)
        if type(block) is not bytes:
            block = bytes(block)
        self.blocks_received += 1
        self._rx.record(len(block))
        return block

    def close(self) -> None:
        self.link.close()

    def abort(self) -> None:
        self.link.abort()
