"""Channel multiplexing over one established link.

An expensively-brokered WAN link (spliced, SOCKS or routed — §3's
establishment methods) should be reused, not re-established per
conversation.  :class:`MuxEndpoint` wraps any established
:class:`~repro.core.links.Link` and carries many :class:`MuxChannel`
streams over it, each credit-flow-controlled (a sender that outruns its
receiver blocks — bytes are never dropped) and fairly scheduled against
the others (``docs/MUX.md``).  A channel *is* a ``Link``, so driver
stacks, block channels and survivable sessions compose over it unchanged.

The protocol itself lives in :mod:`repro.mux.core`; this module is its
one binding: the HELLO exchange, the carrier's write turn (taken by the
task that calls :meth:`MuxChannel.send_all`, and by the tx pump for frames
no writer is waiting to send), what feeds the core's parser (a carrier
that pushes, inside the call that received the bytes; the rx pump reading
any other), and the parking of callers until the core wakes them, written
as ``async def`` coroutines over :mod:`repro.core.runtime`.  On the
simulator the runtime comes with the link; :mod:`repro.livenet.mux`
subclasses name the asyncio one.
"""

from __future__ import annotations

from typing import Optional

from .. import obs
from ..core.links import (BufferedLink, Link, LinkClosed, feed, link_ended,
                          transport_errors)
from ..core.runtime import Bound
from ..core.wire import WireError, recv_frame, send_frame
from ..obs import TraceContext
from ..util.bytesbuf import size
from .core import (
    DEFAULT_WINDOW,
    LONE_DATA_PAYLOAD,
    MAX_DATA_PAYLOAD,
    ChannelState,
    MuxCore,
    MuxError,
)
from .frames import MUX_VERSION, MuxProtocolError, decode_hello, encode_hello
from .scheduler import Scheduler

__all__ = ["MuxEndpoint", "MuxChannel", "MuxError", "DEFAULT_WINDOW",
           "MAX_DATA_PAYLOAD"]


class MuxChannel(ChannelState, BufferedLink):
    """One logical stream multiplexed over a shared link.

    Mirrors the carrier's Table-1 metadata (``method``, ``native_tcp``,
    ``relayed``) so decision logic and benchmarks see through the mux;
    ``muxed`` marks the difference.
    """

    #: ``send_all`` takes a buffer list (``repro.util.bytesbuf.for_stream``)
    gathers = True

    @property
    def method(self) -> str:  # type: ignore[override]
        return self._ep.link.method

    @property
    def native_tcp(self) -> bool:  # type: ignore[override]
        return self._ep.link.native_tcp

    @property
    def relayed(self) -> bool:  # type: ignore[override]
        return self._ep.link.relayed

    @property
    def sim(self):
        return self._ep.sim

    async def send_all(self, data):
        """Queue ``data`` (one buffer or a buffer list) and block until the
        scheduler has put every byte on the wire under credit —
        backpressure, never drops.  When the carrier's write turn is free
        the caller takes it and writes the frames itself, yielding to the
        runtime once per ``LONE_DATA_PAYLOAD`` written while nothing else
        ran, so that a writer with credit to spare does not keep the others
        from the turn; otherwise whoever holds it, or the tx pump after
        them, does."""
        ep = self._ep
        if ep._writing:
            self.write(data)
        else:
            await ep._write_turn(self, data)
        while self._tx_buffered > 0 and self._error is None:
            ep._unyielded = 0
            await ep._wait(self.WAKE_DRAINED, self)
        if self._error is not None:
            raise self._error

    def _readable(self):
        return self._ep.runtime.park(self._waiters, self.WAKE_RX)


class MuxEndpoint(Bound, MuxCore):
    """Multiplexes logical channels over one established link."""

    channel_class = MuxChannel
    closed_error = LinkClosed

    def __init__(self, link: Link, role: str, *, window: int = DEFAULT_WINDOW,
                 scheduler: Optional[Scheduler] = None, node: str = "",
                 flight=None):
        #: a writer or the tx pump is putting frames on the carrier
        self._writing = False
        #: bytes write turns have put on the carrier since the other tasks
        #: last ran, as far as the endpoint can tell: since a writer parked
        #: or yielded, or a frame was fed
        self._unyielded = 0
        self._transport_errors = transport_errors()
        super().__init__(role, window=window, scheduler=scheduler, node=node)
        self.link = link
        self.flight = flight
        #: what a read raises once the carrier is dead: a transport's
        #: errors, or the carrier's own (a failed session's, say)
        self._carrier_errors = (*self._transport_errors,
                                getattr(link, "error_class", LinkClosed))

    @classmethod
    async def establish(cls, link: Link, role: str, *, window: int = DEFAULT_WINDOW,
                  scheduler: Optional[Scheduler] = None, node: str = "",
                  flight=None, ctx: Optional[TraceContext] = None):
        """HELLO version exchange over ``link``, then a running endpoint
        (both sides write first and read second, so it cannot deadlock)."""
        ctx = ctx or obs.current()
        # Table 1's method, of a carrier that says (a bare stream need not)
        method = getattr(link, "method", None)
        with obs.span("mux.establish", ctx=ctx.child() if ctx else None,
                      node=node, role=role, method=method):
            await send_frame(link, encode_hello(MUX_VERSION, window))
            decode_hello(await recv_frame(link))
        endpoint = cls(link, role, window=window, scheduler=scheduler,
                       node=node, flight=flight)
        endpoint._start_rx()
        endpoint._spawn(endpoint._tx_pump(), f"mux-tx:{node}")
        if flight is not None:
            flight.note("mux.establish", ctx=ctx, role=role,
                        method=method, window=window)
        return endpoint

    @property
    def sim(self):
        return self.link.sim

    # -- channel API ---------------------------------------------------------
    async def open_channel(self, tag: bytes = b"", *, window: Optional[int] = None,
                     weight: int = 1,
                     ctx: Optional[TraceContext] = None):
        """Open a logical channel; returns once the peer ACCEPTs."""
        channel, child = self.open(tag, window=window, weight=weight, ctx=ctx)
        with obs.span("mux.channel_open", ctx=child, node=self.node,
                      channel=channel.channel_id, tag_bytes=len(tag)):
            while not channel._accepted and channel._error is None:
                await self._wait(channel.WAKE_ACCEPTED, channel)
            if channel._error is not None:
                raise channel._error
        if self.flight is not None:
            self.flight.note("mux.channel_open", ctx=channel.ctx,
                             channel=channel.channel_id, node=self.node)
        return channel

    async def accept_channel(self, tag: Optional[bytes] = None, *,
                       match=None):
        """Wait for a peer OPEN, grant our window, return the channel;
        ``tag`` or ``match`` filter as in :meth:`MuxCore.accept`, so
        independent acceptors can share one endpoint without stealing each
        other's channels."""
        while (channel := self.accept(tag, match=match)) is None:
            await self._wait(self.WAKE_INCOMING)
        if self.flight is not None:
            self.flight.note("mux.channel_accept", ctx=channel.ctx,
                             channel=channel.channel_id, node=self.node)
        return channel

    def close(self) -> None:
        """Tear down the endpoint and every channel (the link dies too)."""
        if not self._closed:
            super().close()
            self.link.close()

    def fail(self, exc: BaseException) -> None:
        super().fail(exc)
        if self.flight is not None:
            self.flight.note("mux.endpoint_failed", node=self.node,
                             error=type(exc).__name__)

    # -- waiters -------------------------------------------------------------
    def _wait(self, what: str, channel: Optional[MuxChannel] = None):
        """Park until the core's next ``wake(what, channel)``."""
        return self.runtime.park((channel or self)._waiters, what)

    def wake(self, what: str, channel: Optional[MuxChannel] = None) -> None:
        if what == self.WAKE_TX and self._writing:
            return  # the turn's holder sends it, or wakes the pump after
        waiters = (channel or self)._waiters
        if what in waiters:
            self.runtime.unpark(waiters, what)

    # -- bytes in -----------------------------------------------------------
    def _start_rx(self) -> None:
        """Feed the core's parser (:func:`~repro.core.links.feed`): a
        carrier that pushes hands it each payload itself, what it received
        after the HELLO first; any other is read by the rx pump exactly as
        ``recv_frame`` reads it, the length prefix and then the body."""
        link = self.link
        feed(link, self._received, self._carrier_ended,
             lambda: link.recv_exactly(self.rx_need), self._carrier_errors,
             lambda pump: self._spawn(pump, f"mux-rx:{self.node}"))

    def _received(self, data) -> bool:
        """What the carrier received, parsed inside the call that hands it
        up; whether to read on.  A violation fails this endpoint and drops
        the carrier; it never reaches the carrier's own parser."""
        try:
            if self.receive_data(data):
                self._unyielded = 0  # the other tasks ran: a turn restarts
        except (MuxProtocolError, WireError):
            self._violation()  # the core has failed the endpoint
            return False
        return not self._closed

    def _carrier_ended(self, exc) -> None:
        """The carrier ended: with ``exc``, or at a clean end of a pushing
        one, which reads as it does to ``recv_frame``."""
        if exc is None:
            need = self.rx_need
            exc = link_ended(need, need + len(self._inbuf))
        self.fail(exc)

    def _violation(self) -> None:
        """The peer broke the protocol: make sure it learns of it too."""
        self.link.abort()

    # -- bytes out ----------------------------------------------------------
    async def _write_turn(self, channel: MuxChannel, data: bytes):
        """``channel``'s writer holds the carrier: queue ``data``, write
        frames in the core's order (control first, then scheduler turns,
        whoever's they are) until ``channel`` has drained or nothing can be
        sent, acknowledge the last one and hand the turn back, waking the
        tx pump only if it has something to do.  Every ``LONE_DATA_PAYLOAD``
        written lets the other tasks run once: a writer that joins then
        queues its data, and the scheduler shares the turn with it."""
        self._writing = True
        try:
            channel.write(data)
            while channel._tx_buffered and (
                    frame := self.next_frame()) is not None:
                try:
                    await send_frame(self.link, frame)
                except self._transport_errors as exc:
                    self.fail(exc)
                    return
                self._unyielded += (len(frame) if type(frame) is not list
                                    else size(frame))
                if self._unyielded >= LONE_DATA_PAYLOAD:
                    self._unyielded = 0
                    await self.runtime.sleep(0)
            self.frame_sent()
        finally:
            self._writing = False
            # frames left, or the endpoint died or went idle during the turn
            if (self._ctlq or self.scheduler.any_ready() or not self.alive
                    or self.idle):
                self.wake(self.WAKE_TX)

    async def _tx_pump(self):
        """What no writer is waiting to send — a read's CREDIT, OPEN /
        ACCEPT / CLOSE, the rest of a write an incoming CREDIT released —
        under the same write turn, and the end of an idle endpoint."""
        try:
            while True:
                if self._writing:
                    await self._wait(self.WAKE_TX)
                    continue
                if not self.alive:
                    return
                frame = self.next_frame()
                if frame is not None:
                    self._writing = True
                    try:
                        await send_frame(self.link, frame)
                    finally:
                        self._writing = False
                elif self.idle:
                    self.close()
                    return
                else:
                    await self._wait(self.WAKE_TX)
        except self._transport_errors as exc:
            self.fail(exc)
