"""Channel multiplexing on the live (asyncio) backend.

The asyncio binding of :mod:`repro.mux.core` — the very same protocol
state machine the simulator runs — adding only the HELLO exchange, the
two pump tasks and the ``asyncio.Event``s callers park on until the core
wakes them.  An :class:`AsyncMuxChannel` exposes the live socket surface
(``send_all`` / ``recv`` / ``recv_exactly`` / ``close``), so the async
driver stacks compose over channels unchanged.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from .. import obs
from ..core.wire import WireError, recv_frame, send_frame
from ..mux.core import DEFAULT_WINDOW, ChannelState, MuxCore
from ..mux.frames import (
    MUX_VERSION,
    MuxProtocolError,
    decode_hello,
    encode_hello,
)
from ..mux.scheduler import Scheduler
from ..obs import TraceContext
from .wire import ExactReads

__all__ = ["AsyncMuxEndpoint", "AsyncMuxChannel", "LiveMuxError"]


class LiveMuxError(Exception):
    """Live mux endpoint failure."""


class AsyncMuxChannel(ChannelState, ExactReads):
    """One logical stream over a shared live socket."""

    async def send_all(self, data: bytes) -> None:
        self.write(data)
        while self._tx_buffered > 0 and self._error is None:
            await self._ep._wait(self.WAKE_DRAINED, self)
        if self._error is not None:
            raise self._error

    async def recv(self, maxbytes: int) -> bytes:
        while (chunk := self.read(maxbytes)) is None:
            await self._ep._wait(self.WAKE_RX, self)
        return chunk


class AsyncMuxEndpoint(MuxCore):
    """Multiplexes logical channels over one live socket."""

    channel_class = AsyncMuxChannel
    closed_error = LiveMuxError

    def __init__(self, sock, role: str, *, window: int = DEFAULT_WINDOW,
                 scheduler: Optional[Scheduler] = None, node: str = ""):
        super().__init__(role, window=window, scheduler=scheduler, node=node)
        self.sock = sock
        self._tasks: list = []

    @classmethod
    async def establish(cls, sock, role: str, *, window: int = DEFAULT_WINDOW,
                        scheduler: Optional[Scheduler] = None, node: str = "",
                        ctx: Optional[TraceContext] = None
                        ) -> "AsyncMuxEndpoint":
        """HELLO version exchange over ``sock``, then a running endpoint
        (both sides write first and read second, so it cannot deadlock)."""
        ctx = ctx or obs.current()
        await send_frame(sock, encode_hello(MUX_VERSION, window))
        decode_hello(await recv_frame(sock))
        obs.event("mux.establish", ctx=ctx, node=node, role=role,
                  backend="live")
        endpoint = cls(sock, role, window=window, scheduler=scheduler,
                       node=node)
        endpoint._tasks = [
            asyncio.ensure_future(endpoint._rx_pump()),
            asyncio.ensure_future(endpoint._tx_pump()),
        ]
        return endpoint

    async def open_channel(self, tag: bytes = b"", *,
                           window: Optional[int] = None, weight: int = 1,
                           ctx: Optional[TraceContext] = None
                           ) -> AsyncMuxChannel:
        """Open a logical channel; returns once the peer ACCEPTs."""
        channel, child = self.open(tag, window=window, weight=weight, ctx=ctx)
        while not channel._accepted and channel._error is None:
            await self._wait(channel.WAKE_ACCEPTED, channel)
        if channel._error is not None:
            raise channel._error
        obs.event("mux.channel_open", ctx=child, node=self.node,
                  channel=channel.channel_id, backend="live")
        return channel

    async def accept_channel(self, tag: Optional[bytes] = None, *,
                             match=None) -> AsyncMuxChannel:
        """Accept the next incoming channel; ``tag`` or ``match`` filter as
        in :meth:`MuxCore.accept`, so independent acceptors can share one
        endpoint without stealing each other's channels."""
        while (channel := self.accept(tag, match=match)) is None:
            await self._wait(self.WAKE_INCOMING)
        return channel

    def close(self) -> None:
        if not self._closed:
            super().close()
            for task in self._tasks:
                task.cancel()
            self.sock.close()

    # -- waiters ---------------------------------------------------------------
    async def _wait(self, what: str,
                    channel: Optional[AsyncMuxChannel] = None) -> None:
        """Park until the core's next ``wake(what, channel)``.  The caller
        tested its condition with no ``await`` since, so clearing the event
        here cannot lose a wake-up."""
        waiters = (channel or self)._waiters
        event = waiters.get(what)
        if event is None:
            event = waiters[what] = asyncio.Event()
        event.clear()
        await event.wait()

    def wake(self, what: str,
             channel: Optional[AsyncMuxChannel] = None) -> None:
        event = (channel or self)._waiters.get(what)
        if event is not None:
            event.set()

    # -- pumps ----------------------------------------------------------------
    async def _rx_pump(self) -> None:
        try:
            while not self._closed:
                self.feed(await recv_frame(self.sock))
        except (EOFError, OSError) as exc:  # the carrier died
            self.fail(exc)
        except (MuxProtocolError, WireError) as exc:
            self.fail(exc)
            # close, not abort: on a session carrier abort() only kills the
            # current transport and the session would resume under us
            self.sock.close()

    async def _tx_pump(self) -> None:
        try:
            while True:
                frame = self.next_frame()
                if frame is not None:
                    await send_frame(self.sock, frame)
                elif not self.alive:
                    return
                elif self.idle:
                    self.close()
                    return
                else:
                    await self._wait(self.WAKE_TX)
        except (EOFError, OSError) as exc:  # the carrier died
            self.fail(exc)
