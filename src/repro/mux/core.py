"""The mux protocol as one sans-IO state machine.

:class:`MuxCore` and :class:`ChannelState` own every protocol decision —
channel-id parity, the credit ledger and grant debt, window retunes, the
OPEN/ACCEPT/DATA/CREDIT/CLOSE/WINDOW dispatch, frame selection, the close
handshake, ``close_when_idle`` and the bound ``mux.*`` instruments — and
know nothing of simulator events or asyncio.  A binding
(:mod:`repro.mux.endpoint`, :mod:`repro.livenet.mux`) adds only IO: it
hands each frame body it reads to :meth:`MuxCore.feed`, writes whatever
:meth:`MuxCore.next_frame` returns, and overrides :meth:`MuxCore.wake` to
resume whoever is parked on the condition the core names.  Two cores run
back to back with no IO at all: ``b.feed(a.next_frame())``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from .. import obs
from ..obs import TraceContext
from ..util.bytesbuf import frozen, size, split
from ..util.sizes import DEFAULT_WINDOW, LONE_DATA_PAYLOAD, cut
from . import frames
from .frames import MuxProtocolError
from .scheduler import RoundRobinScheduler, Scheduler

__all__ = ["MuxCore", "ChannelState", "MuxError", "DEFAULT_WINDOW",
           "MAX_DATA_PAYLOAD", "LONE_DATA_PAYLOAD"]

#: largest DATA payload of a scheduler turn while another channel is
#: ready — small enough that interleaving stays fine-grained on a shared
#: link.  A channel that has the carrier to itself sends a whole write,
#: up to ``LONE_DATA_PAYLOAD``, in one frame.
MAX_DATA_PAYLOAD = 16384


class MuxError(Exception):
    """Mux endpoint failure (closed endpoint, closed or aborted channel)."""


class ChannelState:
    """One logical stream's protocol state: buffers, credit, close flags."""

    muxed = True

    # what MuxCore.wake() reports about one channel
    WAKE_ACCEPTED = "accepted"  #: the peer's ACCEPT arrived, or we failed
    WAKE_RX = "rx"              #: read() has data, EOF or an error to deliver
    WAKE_DRAINED = "drained"    #: every written byte is on the wire, or failed

    def __init__(self, endpoint: "MuxCore", channel_id: int, tag: bytes,
                 window: int, ctx: Optional[TraceContext] = None):
        self._ep = endpoint
        self.channel_id = channel_id
        self.tag = tag
        self.weight = 1
        self.ctx = ctx
        #: bytes we may still send (granted by the peer, spent on DATA)
        self._tx_credit = 0
        self._txq: deque = deque()
        self._tx_buffered = 0
        #: buffered bytes are waiting on peer credit (a backpressure episode)
        self._stalled = False
        #: bytes the peer may still send toward us before a CREDIT grant
        self._rx_window = window
        self._rx_allowance = window
        #: grants withheld after a window shrink (drains the allowance)
        self._grant_debt = 0
        #: the peer's last announced steady-state window (via WINDOW)
        self.peer_rx_window = 0
        self._rxq: deque = deque()
        self._consumed_since_grant = 0
        self._accepted = False
        #: ``(flags, reason)`` once closed locally; CLOSE goes out when the
        #: tx buffer has drained
        self._pending_close: Optional[tuple] = None
        self._close_sent = False
        self._remote_closed = False
        self._error: Optional[BaseException] = None
        #: WAKE_* kind -> whatever the binding parks this channel's callers on
        self._waiters: dict = {}
        reg = obs.metrics()
        labels = {"node": endpoint.node, "channel": str(channel_id)}
        self._m_tx_bytes = reg.counter("mux.tx_bytes", **labels)
        self._m_rx_bytes = reg.counter("mux.rx_bytes", **labels)
        self._m_granted = reg.counter("mux.credit_granted", **labels)
        self._m_turns = reg.counter("mux.sched_turns", **labels)
        # the window OPEN/ACCEPT announces is the first grant, so the
        # ledger reads ``sent <= granted`` whatever window was asked for
        self._m_granted.inc(window)

    # -- application side ----------------------------------------------------
    def write(self, data) -> None:
        """Queue ``data`` (one buffer, or a buffer list kept by reference):
        it reaches the wire as credit allows and is never dropped;
        ``_tx_buffered`` is back to zero at ``WAKE_DRAINED``."""
        if self._error is not None:
            raise self._error
        if self._pending_close is not None:
            raise self._ep.closed_error(
                f"mux channel {self.channel_id} closed")
        if type(data) is list:
            n = size(data)
        else:
            n = len(data)
            if type(data) is not bytes:
                data = frozen(data)
        if n:
            self._txq.append(data)
            self._tx_buffered += n
            self._ep._update_ready(self)

    def read(self, maxbytes: int) -> Optional[bytes]:
        """Up to ``maxbytes`` of received data, ``b""`` at clean EOF (peer
        closed, buffer drained), ``None`` to wait for ``WAKE_RX``.  A large
        DATA payload is read as views of the buffer it arrived in."""
        if not self._rxq:
            if self._error is not None:
                raise self._error
            return b"" if self._remote_closed else None
        chunk = self._rxq.popleft()
        if len(chunk) > maxbytes:
            self._rxq.appendleft(chunk[maxbytes:])
            chunk = chunk[:maxbytes]
        # the application drained bytes: maybe replenish the peer's credit
        self._consumed_since_grant += len(chunk)
        if (not self._remote_closed
                and self._consumed_since_grant >= self._grant_threshold()):
            grant, self._consumed_since_grant = self._consumed_since_grant, 0
            self._grant(grant)
        return chunk

    def _grant_threshold(self) -> int:
        """Consumed bytes that earn the peer a CREDIT: half the window —
        a handful of grants per window's worth, not one per read — but no
        more than a contended quantum once the peer cannot send even that,
        so a sender is not left parked on bytes already consumed."""
        half = max(1, self._rx_window // 2)
        if self._rx_allowance < MAX_DATA_PAYLOAD:
            return min(half, MAX_DATA_PAYLOAD)
        return half

    def close(self) -> None:
        """Graceful half-close once everything written has been sent."""
        self._close(frames.CLOSE_GRACEFUL)

    def abort(self) -> None:
        """Error close: unsent bytes are discarded, the peer's reads fail."""
        self._txq.clear()
        self._tx_buffered = 0
        self._close(frames.CLOSE_ERROR, "aborted")

    def retune_window(self, new_window: int) -> None:
        """Renegotiate this channel's receive credit window mid-stream.

        Growth is granted at once as extra CREDIT.  Shrink is *graceful*:
        nothing is clawed back, consumption-driven grants are withheld
        until the outstanding allowance has drained to the new window.
        Either way a WINDOW frame announces the new steady state
        (informational; CREDIT frames carry the flow-control effect).
        """
        if new_window <= 0:
            raise ValueError(f"window must be positive: {new_window}")
        old = self._rx_window
        if new_window == old:
            return
        self._rx_window = new_window
        if self._remote_closed:
            return  # the peer sends nothing more: no credit left to manage
        if new_window > old:
            self._grant(new_window - old)
        else:
            self._grant_debt += old - new_window
        self._ep._send_ctl(frames.encode_window(self.channel_id, new_window))
        self._ep._m_retunes.inc()
        obs.event("mux.window_retune", ctx=self.ctx, node=self._ep.node,
                  channel=self.channel_id, old=old, new=new_window)

    # -- protocol internals --------------------------------------------------
    @property
    def _tx_ready(self) -> bool:
        return (
            self._tx_buffered > 0
            and self._tx_credit > 0
            and self._accepted
            and not self._close_sent
            and self._error is None
        )

    def _grant(self, grant: int) -> None:
        """Extend the peer's allowance by ``grant``, less what a pending
        window shrink still withholds (its debt drains first)."""
        absorbed = min(self._grant_debt, grant)
        self._grant_debt -= absorbed
        grant -= absorbed
        if grant > 0:
            self._rx_allowance += grant
            self._m_granted.inc(grant)
            self._ep._send_ctl(frames.encode_credit(self.channel_id, grant))

    def _close(self, flags: int, reason: str = "") -> None:
        if self._pending_close is not None:
            return
        self._pending_close = (flags, reason)
        if self._tx_buffered == 0 or flags == frames.CLOSE_ERROR:
            self._ep._flush_pending_close(self)

    def _fail(self, exc: BaseException) -> None:
        if self._error is None:
            self._error = exc
        for what in (self.WAKE_DRAINED, self.WAKE_RX, self.WAKE_ACCEPTED):
            self._ep.wake(what, self)

    # -- one handler per frame kind that names an existing channel -----------
    def _on_accept(self, frame) -> None:
        self._accepted = True
        self._tx_credit += frame.window
        self._ep.wake(self.WAKE_ACCEPTED, self)
        self._ep._update_ready(self)

    def _on_data(self, frame) -> None:
        n = len(frame.payload)
        self._rx_allowance -= n
        if self._rx_allowance < 0:
            raise MuxProtocolError(
                f"credit violation on channel {self.channel_id}: "
                f"{-self._rx_allowance} bytes over the granted window")
        self._rxq.append(frame.payload)
        self._m_rx_bytes.inc(n)
        self._ep.wake(self.WAKE_RX, self)

    def _on_credit(self, frame) -> None:
        self._tx_credit += frame.grant
        self._ep._update_ready(self)

    def _on_window(self, frame) -> None:
        self.peer_rx_window = frame.window
        obs.event("mux.window_announced", ctx=self.ctx, node=self._ep.node,
                  channel=self.channel_id, window=frame.window)

    def _on_close(self, frame) -> None:
        self._remote_closed = True
        if frame.flags == frames.CLOSE_ERROR and self._error is None:
            self._error = self._ep.closed_error(
                f"peer aborted mux channel {self.channel_id}: {frame.reason}")
        self._ep.wake(self.WAKE_RX, self)
        obs.event("mux.close_received", ctx=self.ctx, node=self._ep.node,
                  channel=self.channel_id, flags=frame.flags)
        if self._close_sent:
            self._ep._drop_channel(self)

    # HELLO and OPEN are absent on purpose: OPEN names no existing channel,
    # HELLO belongs to establish() and is a violation once the endpoint runs
    _HANDLERS = {
        frames.T_ACCEPT: _on_accept,
        frames.T_DATA: _on_data,
        frames.T_CREDIT: _on_credit,
        frames.T_WINDOW: _on_window,
        frames.T_CLOSE: _on_close,
    }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.channel_id} over {self._ep!r}>"


class MuxCore:
    """Channel table, credit flow control and frame scheduling for one end
    of a carrier link: bytes in through :meth:`feed`, bytes out through
    :meth:`next_frame`."""

    INITIATOR = "initiator"
    RESPONDER = "responder"

    # what wake() reports about the endpoint itself (channel None)
    WAKE_TX = "tx"              #: next_frame() may have something to return
    WAKE_INCOMING = "incoming"  #: an OPEN arrived, or the endpoint died

    #: what open() and an incoming OPEN instantiate; a binding substitutes
    #: its ChannelState subclass carrying the stream surface
    channel_class: Callable[..., ChannelState] = ChannelState
    #: raised for use of a closed endpoint/channel and for a peer abort
    closed_error: type = MuxError

    def __init__(self, role: str, *, window: int = DEFAULT_WINDOW,
                 scheduler: Optional[Scheduler] = None, node: str = ""):
        if role not in (self.INITIATOR, self.RESPONDER):
            raise ValueError(f"bad mux role {role!r}")
        self.role = role
        self.window = int(window)
        self.node = node
        self.scheduler = scheduler or RoundRobinScheduler()
        self._channels: dict[int, ChannelState] = {}
        # whoever initiated the carrier allocates odd ids, the acceptor even
        # ones, so both sides can open channels without coordination
        self._next_cid = 1 if role == self.INITIATOR else 2
        #: channels the peer OPENed that no accept() has claimed yet
        self._incoming: deque = deque()
        self._ctlq: deque = deque()
        #: ``(channel, nbytes)`` of the DATA frame the binding is writing
        self._in_flight: Optional[tuple] = None
        self._closed = False
        #: when True, tearing down the last channel closes the endpoint
        #: (and the carrier link) — set by the factory so a muxed stack's
        #: lifetime matches what dedicated per-conversation links had
        self.close_when_idle = False
        self._had_channels = False
        self._error: Optional[BaseException] = None
        #: WAKE_* kind -> whatever the binding parks endpoint callers on
        self._waiters: dict = {}
        reg = obs.metrics()
        self._m_frames_tx = reg.counter("mux.frames_total", node=node,
                                        direction="tx")
        self._m_frames_rx = reg.counter("mux.frames_total", node=node,
                                        direction="rx")
        self._m_backpressure = reg.counter("mux.backpressure_waits", node=node)
        self._m_retunes = reg.counter("mux.window_retunes_total", node=node)
        self._m_open = reg.gauge("mux.channels_open", node=node)

    def wake(self, what: str, channel: Optional[ChannelState] = None) -> None:
        """Binding hook: condition ``what`` (a ``WAKE_*`` constant) may now
        hold for ``channel``, or for the endpoint when None.  A hint, not a
        promise: the woken waiter re-checks.  Must not re-enter the core."""

    @property
    def alive(self) -> bool:
        return not self._closed and self._error is None

    @property
    def channels_open(self) -> int:
        return len(self._channels)

    @property
    def idle(self) -> bool:
        """``close_when_idle`` is set and the last channel is gone."""
        return (self.close_when_idle and self._had_channels
                and not self._channels)

    # -- channel API ---------------------------------------------------------
    def open(self, tag: bytes = b"", *, window: Optional[int] = None,
             weight: int = 1, ctx: Optional[TraceContext] = None) -> tuple:
        """Queue an OPEN; the channel is usable once the peer's ACCEPT is in
        (``WAKE_ACCEPTED``).  Returns ``(channel, wire_ctx)``, the latter
        being the child context the OPEN carries."""
        self._check_alive()
        ctx = ctx or obs.current() or TraceContext.new()
        channel = self._add_channel(self._next_cid, tag,
                                    window or self.window, weight, ctx)
        self._next_cid += 2
        child = ctx.child()
        self._send_ctl(frames.encode_open(
            channel.channel_id, channel._rx_window, tag, child.encode()))
        return channel, child

    def accept(self, tag: Optional[bytes] = None, *,
               match=None) -> Optional[ChannelState]:
        """Claim a channel the peer opened and queue its ACCEPT; ``None``
        when none is waiting (look again at ``WAKE_INCOMING``).

        With ``tag``, only a channel opened with exactly that tag is taken,
        so concurrent accepts on a shared endpoint each claim their own
        conversation's channels instead of racing for arrival order.
        ``match`` (exclusive with ``tag``) generalizes that to a predicate
        over the tag bytes; it must never claim another consumer's tags —
        see :func:`repro.ipl.runtime.is_port_tag`.
        """
        if tag is not None and match is not None:
            raise ValueError("accept takes tag or match, not both")
        if tag is not None:
            match = lambda t, want=bytes(tag): t == want  # noqa: E731
        self._check_alive()
        for channel in self._incoming:
            if match is None or match(channel.tag):
                self._incoming.remove(channel)
                channel._accepted = True
                self._send_ctl(frames.encode_accept(
                    channel.channel_id, channel._rx_window))
                return channel
        return None

    def close(self) -> None:
        """Fail every channel and refuse further use (idempotent)."""
        if not self._closed:
            self._closed = True
            self._fail_channels(self.closed_error("mux endpoint closed"))
            self._channels.clear()
            self._m_open.set(0)

    def fail(self, exc: BaseException) -> None:
        """The carrier died or the peer broke the protocol: every channel
        and every parked caller gets ``exc`` (the first failure wins)."""
        if self._error is None:
            self._error = exc
        self._fail_channels(exc)

    def _fail_channels(self, exc: BaseException) -> None:
        for channel in list(self._channels.values()):
            channel._fail(exc)
        self.wake(self.WAKE_TX)
        self.wake(self.WAKE_INCOMING)

    # -- bytes in ------------------------------------------------------------
    def feed(self, body: bytes) -> None:
        """Apply one frame body read off the carrier.  A malformed frame or
        protocol violation fails the endpoint and raises
        :class:`MuxProtocolError`; the binding then drops the carrier so the
        peer learns of it too."""
        self._m_frames_rx.inc()
        try:
            frame = frames.decode_frame(body)
            channel = self._channels.get(frame.channel)
            handler = ChannelState._HANDLERS.get(frame.kind)
            if frame.kind == frames.T_OPEN:
                self._on_open(frame)
            elif handler is None:
                raise MuxProtocolError(
                    f"unexpected {frame.name.upper()} after establishment")
            elif channel is not None:
                handler(channel, frame)
            elif frame.kind in (frames.T_ACCEPT, frames.T_DATA):
                raise MuxProtocolError(
                    f"{frame.name.upper()} for unknown channel {frame.channel}")
            # else CREDIT/WINDOW/CLOSE raced our own CLOSE: harmless
        except MuxProtocolError as exc:
            self.fail(exc)
            raise

    def _on_open(self, frame) -> None:
        cid = frame.channel
        expected_parity = 0 if self.role == self.INITIATOR else 1
        if cid % 2 != expected_parity or cid in self._channels:
            raise MuxProtocolError(f"bad OPEN channel id {cid}")
        ctx = None
        if frame.ctx:
            try:
                ctx = TraceContext.decode(frame.ctx)
            except ValueError:
                pass  # a garbled trace context must not cost the channel
        channel = self._add_channel(cid, frame.tag, self.window, 1, ctx)
        channel._tx_credit = frame.window
        obs.event("mux.open_received", ctx=ctx, node=self.node, channel=cid,
                  window=frame.window)
        self._incoming.append(channel)
        self.wake(self.WAKE_INCOMING)

    # -- bytes out -----------------------------------------------------------
    @property
    def has_frames(self) -> bool:
        """:meth:`next_frame` may return a frame (a channel marked ready
        may turn out stale: a hint, as ``WAKE_TX`` is)."""
        return bool(self._ctlq) or self.scheduler.any_ready()

    def frame_sent(self) -> None:
        """The frame :meth:`next_frame` last returned is on the carrier:
        account its channel's turn and, if that emptied the channel's
        buffer, release its writer and queue a pending graceful CLOSE.
        :meth:`next_frame` calls this first; a binding calls it on its own
        after the last frame it writes."""
        if self._in_flight is None:
            return
        channel, n = self._in_flight
        self._in_flight = None
        channel._m_tx_bytes.inc(n)
        channel._m_turns.inc()
        self.scheduler.sent(channel.channel_id, n)
        if channel._tx_buffered == 0:
            self.wake(channel.WAKE_DRAINED, channel)
            self._flush_pending_close(channel)

    def next_frame(self):
        """The next frame body to write — every queued control frame first,
        then one scheduler turn of DATA (a buffer list when its payload is
        large: :func:`~repro.mux.frames.data_frame`) — or ``None`` when
        there is nothing to send (park until ``WAKE_TX``).  A turn carries
        the head of the channel's oldest write: all of it, up to
        ``LONE_DATA_PAYLOAD``, while no other channel is ready, at most
        ``MAX_DATA_PAYLOAD`` the moment one is; never more than the peer's
        credit, and never cut so as to leave a runt.  Asking acknowledges
        that the previous frame has been handed to the carrier
        (:meth:`frame_sent`)."""
        self.frame_sent()
        if self._ctlq:
            self._m_frames_tx.inc()
            return self._ctlq.popleft()
        channel = self._pick_ready()
        if channel is None:
            return None
        payload = channel._txq.popleft()
        quantum = (LONE_DATA_PAYLOAD if self.scheduler.lone()
                   else MAX_DATA_PAYLOAD)
        n = len(payload) if type(payload) is not list else size(payload)
        take = cut(n, min(quantum, channel._tx_credit))
        if take < n:
            payload, rest = split(payload, take)
            channel._txq.appendleft(rest)
        channel._tx_buffered -= take
        channel._tx_credit -= take
        self._update_ready(channel)
        self._in_flight = (channel, take)
        self._m_frames_tx.inc()
        return frames.data_frame(channel.channel_id, payload)

    def _pick_ready(self) -> Optional[ChannelState]:
        while True:
            try:
                cid = self.scheduler.pick()
            except LookupError:
                return None
            channel = self._channels.get(cid)
            if channel is not None and channel._tx_ready:
                return channel
            # stale readiness (aborted or failed since it was marked)
            self.scheduler.set_ready(cid, False)

    # -- shared bookkeeping --------------------------------------------------
    def _add_channel(self, cid: int, tag: bytes, window: int, weight: int,
                     ctx: Optional[TraceContext]) -> ChannelState:
        channel = self.channel_class(self, cid, tag, window, ctx=ctx)
        channel.weight = weight
        self._channels[cid] = channel
        self._had_channels = True
        self.scheduler.add(cid, weight)
        self._m_open.set(len(self._channels))
        return channel

    def _update_ready(self, channel: ChannelState) -> None:
        ready = channel._tx_ready
        self.scheduler.set_ready(channel.channel_id, ready)
        if ready:
            self.wake(self.WAKE_TX)
        # one backpressure wait per episode: buffered bytes met zero credit
        stalled = channel._tx_buffered > 0 and channel._tx_credit <= 0
        if stalled and not channel._stalled:
            self._m_backpressure.inc()
        channel._stalled = stalled

    def _send_ctl(self, frame: bytes) -> None:
        self._check_alive()
        self._ctlq.append(frame)
        self.wake(self.WAKE_TX)

    def _flush_pending_close(self, channel: ChannelState) -> None:
        if channel._pending_close is None or channel._close_sent:
            return
        channel._close_sent = True
        if self.alive:
            self._send_ctl(frames.encode_close(
                channel.channel_id, *channel._pending_close))
        if channel._remote_closed:
            self._drop_channel(channel)

    def _drop_channel(self, channel: ChannelState) -> None:
        self._channels.pop(channel.channel_id, None)
        self.scheduler.remove(channel.channel_id)
        self._m_open.set(len(self._channels))
        if self.idle:
            self.wake(self.WAKE_TX)  # the tx pump closes us once ctlq drains

    def _check_alive(self) -> None:
        if self._error is not None:
            raise self._error
        if self._closed:
            raise self.closed_error("mux endpoint closed")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} {self.role} node={self.node} "
                f"channels={len(self._channels)}>")
