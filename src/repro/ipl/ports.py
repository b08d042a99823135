"""Send and receive ports (paper §5).

"The IPL provides one elementary communication abstraction, unidirectional
message channels.  Endpoints of communication are send ports and receive
ports.  For supporting group communication, one send port might be
connected to multiple receive ports, and vice versa."

Every ``SendPort → ReceivePort`` connection is "an isolated,
unidirectional, FIFO-ordered virtual networking link" (§5.1): a brokered
driver-stack channel.  A send port connected to several receive ports
writes each finished message to every channel; a receive port fans
incoming channels into one FIFO message queue per arrival order.

Written once on :mod:`repro.core.runtime`: a simulator process runs the
port operations with ``yield from``, an asyncio task ``await``s them.
"""

from __future__ import annotations

from types import coroutine
from typing import Generator, Optional

from .. import obs
from ..obs import TraceContext
from ..core.utilization.stream import BlockChannel
from .identifiers import PortIdentifier
from .serialization import MessageReader, MessageWriter

__all__ = ["SendPort", "ReceivePort", "WriteMessage", "ReadMessage", "PortClosed"]


class PortClosed(Exception):
    """Operation on a closed port."""


class WriteMessage(MessageWriter):
    """A message under construction on a send port.

    Call the typed ``write_*`` methods, then ``finish()`` (a generator) to
    transmit to every connected receive port and release the port for the
    next message.
    """

    def __init__(self, port: "SendPort"):
        super().__init__()
        self._port = port
        self._finished = False

    @coroutine
    def finish(self) -> Generator:
        if self._finished:
            raise PortClosed("message already finished")
        self._finished = True
        payload = self.getvalue()
        yield from self._port._transmit(payload)
        self._port._message_done(self)
        return len(payload)


class ReadMessage(MessageReader):
    """A received message; read items in the order they were written."""

    def __init__(
        self,
        payload: bytes,
        origin: Optional[str] = None,
        ctx: Optional[TraceContext] = None,
    ):
        super().__init__(payload)
        #: name of the sending Ibis node, when known
        self.origin = origin
        #: trace context that rode the message header, when the sender traced
        self.ctx = ctx


class SendPort:
    """The sending endpoint of unidirectional message channels."""

    def __init__(self, ibis, name: str):
        self.ibis = ibis
        self.name = name
        self.channels: dict[str, BlockChannel] = {}  # port name -> channel
        self._active_message: Optional[WriteMessage] = None
        self.closed = False
        self.messages_sent = 0
        self.bytes_sent = 0

    @property
    def identifier(self) -> PortIdentifier:
        return PortIdentifier(self.ibis.identifier, self.name)

    @coroutine
    def connect(self, port_name: str, spec=None) -> Generator:
        """Connect to a named receive port (resolved via the name service).

        May be called multiple times — one send port, many receive ports.
        """
        if self.closed:
            raise PortClosed(f"send port {self.name} closed")
        if port_name in self.channels:
            raise ValueError(f"already connected to {port_name!r}")
        channel = yield from self.ibis._connect_port(self, port_name, spec)
        self.channels[port_name] = channel
        return channel

    def disconnect(self, port_name: str) -> None:
        channel = self.channels.pop(port_name, None)
        if channel is not None:
            channel.close()

    def new_message(self) -> WriteMessage:
        """Start a message (one at a time per send port, like the IPL)."""
        if self.closed:
            raise PortClosed(f"send port {self.name} closed")
        if not self.channels:
            raise PortClosed(f"send port {self.name} is not connected")
        if self._active_message is not None:
            raise PortClosed("previous message not finished")
        self._active_message = WriteMessage(self)
        return self._active_message

    @coroutine
    def _transmit(self, payload: bytes) -> Generator:
        # One trace per IPL message: the same context rides every fan-out
        # channel's header, so all receive-side records share the tree.
        parent = obs.current()
        ctx = parent.child() if parent is not None else TraceContext.new()
        for channel in self.channels.values():
            yield from channel.send_message(payload, ctx=ctx)
        self.messages_sent += 1
        self.bytes_sent += len(payload)
        reg = obs.metrics()
        reg.counter("ipl.messages_total", port=self.name, direction="tx").inc()
        reg.histogram("ipl.message_bytes", port=self.name, direction="tx").observe(
            len(payload)
        )
        obs.event(
            "ipl.message", ctx=ctx, node=self.ibis.name,
            port=self.name, direction="tx", bytes=len(payload),
            fanout=len(self.channels),
        )

    def _message_done(self, message: WriteMessage) -> None:
        if self._active_message is message:
            self._active_message = None

    def close(self) -> None:
        self.closed = True
        for channel in self.channels.values():
            channel.close()
        self.channels.clear()


class ReceivePort:
    """The receiving endpoint; fans in any number of send ports."""

    def __init__(self, ibis, name: str):
        self.ibis = ibis
        self.name = name
        self._queue: list[ReadMessage] = []
        self._waiters: list = []  # an event per parked receive, oldest first
        self._channels: list[BlockChannel] = []
        self.closed = False
        self.messages_received = 0
        #: per-channel terminal errors (EOF is normal and not recorded)
        self.channel_errors: list[tuple[str, Exception]] = []

    @property
    def identifier(self) -> PortIdentifier:
        return PortIdentifier(self.ibis.identifier, self.name)

    # -- wiring (driven by the Ibis) -----------------------------------------
    def _attach(self, channel: BlockChannel, origin: str) -> None:
        self._channels.append(channel)
        self.ibis._spawn(self._pump(channel, origin), name=f"rcvport-{self.name}")

    @coroutine
    def _pump(self, channel: BlockChannel, origin: str) -> Generator:
        try:
            while True:
                payload = yield from channel.recv_message()
                rctx = channel.last_ctx.child() if channel.last_ctx else None
                message = ReadMessage(payload, origin=origin, ctx=rctx)
                self.messages_received += 1
                reg = obs.metrics()
                reg.counter(
                    "ipl.messages_total", port=self.name, direction="rx"
                ).inc()
                reg.histogram(
                    "ipl.message_bytes", port=self.name, direction="rx"
                ).observe(len(payload))
                obs.event(
                    "ipl.message", ctx=rctx, node=self.ibis.name,
                    port=self.name, direction="rx",
                    bytes=len(payload), origin=origin,
                )
                self._deliver(message)
        except EOFError:
            return  # the sender disconnected cleanly
        except Exception as exc:
            # Record the failure so applications can inspect it; a dead
            # channel must not take the whole port (other senders) down.
            self.channel_errors.append((origin, exc))
            return

    def _deliver(self, message: ReadMessage) -> None:
        while self._waiters:
            waiter = self._waiters.pop(0)
            if not waiter.done():  # else: its receiver was cancelled
                waiter.set_result(message)
                return
        self._queue.append(message)

    # -- user API ---------------------------------------------------------------
    @coroutine
    def receive(self) -> Generator:
        """The next message, FIFO across all connected senders."""
        if self.closed:
            raise PortClosed(f"receive port {self.name} closed")
        runtime = self.ibis.runtime
        ev = runtime.event()
        if self._queue:
            ev.set_result(self._queue.pop(0))
        else:
            self._waiters.append(ev)
        message = yield from runtime.wait(ev)
        if message is None:  # woken by close()
            raise PortClosed(f"receive port {self.name} closed")
        return message

    def poll(self) -> Optional[ReadMessage]:
        """Non-blocking receive; None when no message is queued."""
        if self._queue:
            return self._queue.pop(0)
        return None

    def close(self) -> None:
        self.closed = True
        for channel in self._channels:
            channel.close()
        self._channels.clear()
        for ev in self._waiters:
            if not ev.done():
                ev.set_result(None)
        self._waiters.clear()
