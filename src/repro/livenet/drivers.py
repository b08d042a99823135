"""The one driver the live backend does not share: striping over asyncio.

``tcp_block``, ``compress``, ``tls`` and the block channel are
:mod:`repro.core.utilization`'s own classes, awaited instead of
``yield from``-ed.  The striping driver owns per-stream writer tasks and
queues, so it is written against asyncio here — wire-compatible with the
simulated one (header on stream ``n % N``, deterministic round-robin
fragments).
"""

from __future__ import annotations

import asyncio
import struct
from typing import Sequence

from .. import obs
from ..core.utilization.base import BlockMeters, Driver
from ..core.utilization.parallel import DEFAULT_FRAGMENT
from .transport import LiveSocket

__all__ = ["AsyncParallelStreamsDriver"]


class AsyncParallelStreamsDriver(Driver):
    """Striping over N live sockets (same layout as the sim driver).

    Sender-side concurrency comes from per-stream writer tasks behind
    queues, receiver-side from eager reader tasks — mirroring the
    simulated implementation.
    """

    name = "parallel"

    def __init__(
        self,
        links: Sequence[LiveSocket],
        host=None,
        fragment: int = DEFAULT_FRAGMENT,
    ):
        if not links:
            raise ValueError("parallel driver needs at least one socket")
        self.links = list(links)
        self.host = host
        self.fragment = fragment
        self._send_seq = 0
        self._recv_seq = 0
        self._queues = [asyncio.Queue(maxsize=8) for _ in self.links]
        self._writers = [
            asyncio.ensure_future(self._writer(q, s))
            for q, s in zip(self._queues, self.links)
        ]
        self._tx = BlockMeters(self.name, "tx")
        self._rx = BlockMeters(self.name, "rx")
        obs.metrics().gauge("driver.streams", driver=self.name).set(
            len(self.links)
        )

    @property
    def nstreams(self) -> int:
        return len(self.links)

    async def _writer(self, queue: asyncio.Queue, sock: LiveSocket) -> None:
        while True:
            item = await queue.get()
            if item is None:
                sock.close()
                return
            await sock.send_all(item)

    async def send_block(self, block: bytes) -> None:
        n = self.nstreams
        start = self._send_seq % n
        self._send_seq += 1
        await self._queues[start].put(struct.pack("!I", len(block)))
        for i, offset in enumerate(range(0, len(block), self.fragment)):
            await self._queues[(start + i) % n].put(
                block[offset : offset + self.fragment]
            )
        self._tx.record(len(block))

    async def recv_block(self) -> bytes:
        n = self.nstreams
        start = self._recv_seq % n
        self._recv_seq += 1
        header = await self.links[start].recv_exactly(4)
        length = struct.unpack("!I", header)[0]
        parts = []
        remaining = length
        i = 0
        while remaining > 0:
            take = min(self.fragment, remaining)
            parts.append(await self.links[(start + i) % n].recv_exactly(take))
            remaining -= take
            i += 1
        block = b"".join(parts)
        self._rx.record(len(block))
        return block

    def close(self) -> None:
        for queue in self._queues:
            queue.put_nowait(None)
