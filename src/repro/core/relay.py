"""Routed messages through a relay on a gateway host (paper §3.3, Figure 3).

"When a node is started, it connects to the relay.  When a node wants to
establish a connection to another node, it sends a request to the relay,
which forwards the request to its final recipient."

* :class:`RelayServer` runs on a host visible from the Internet (a gateway
  machine or a public host).  It keeps one TCP connection per registered
  node and forwards frames between them.
* :class:`RelayClient` maintains a node's connection to the relay and
  multiplexes any number of :class:`RoutedLink` virtual streams over it.

Routed links satisfy the full :class:`~repro.core.links.Link` interface but
are *not* native TCP (Table 1), and every byte crosses the relay — which is
why they are meant for bootstrap/service traffic, "not supposed to be used
for data, except in extreme cases".

This module is the one binding of :mod:`repro.core.relay_core`: the
protocol lives there, the loops that move its frames live here, written as
``async def`` coroutines over :mod:`repro.core.runtime`.  On the
simulator the runtime comes with the host, and dialling and listening are
the simulator's; :mod:`repro.livenet.relay` subclasses name the asyncio
runtime and dial real sockets.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from .. import obs
from ..simnet.packet import Addr
from ..simnet.sockets import SimSocket, connect, listen
from ..simnet.tcp import SocketClosed, TcpError
from ..util.framing import FrameError
from .links import Link
from .relay_core import (
    MAX_MSG,
    MAX_RELAY_FRAME,
    PING_FRAME,
    Hop,
    RelayClientCore,
    RelayCore,
    RelayError,
    RoutedChannel,
)
from .retry import RetryExhausted, RetryPolicy, retrying
from .runtime import Bound
from .wire import WireError, recv_frame, send_frame

__all__ = ["RelayServer", "RelayClient", "RoutedLink", "RelayError", "MAX_MSG",
           "MAX_RELAY_FRAME"]

#: a write (or dial) to a dead connection, of either family: the
#: simulator's and (``OSError``, which a missed deadline is too) real sockets'
_TRANSPORT_ERRORS = (EOFError, TcpError, OSError)
#: everything that ends a connection's read loop
_SESSION_ERRORS = (*_TRANSPORT_ERRORS, RelayError, FrameError, WireError)

#: budget for one relay-to-relay wait (the gossip reply; on real sockets
#: the dial too): a dead peer must cost one bounded round, not a hung loop
_PEER_IO_TIMEOUT = 2.0


class RelayServer(Bound, RelayCore):
    """The relay process (optionally one member of a relay mesh).

    :class:`~repro.core.relay_core.RelayCore` decides; this class listens,
    runs one read loop per connection, performs the hops the core names
    and sleeps between gossip rounds.
    """

    def __init__(self, host, port: int = 4000, name: str = "relay"):
        self.host = host
        self.port = port
        super().__init__(name, clock=self.runtime.now)
        self._listener = None
        self._gossip_token: Optional[object] = None
        #: transient sockets in flight (gossip exchanges, accepted
        #: connections awaiting classification, trunk dials mid-hello),
        #: aborted on stop() so a mid-exchange crash/teardown leaks nothing
        self._inflight_socks: set = set()

    @property
    def addr(self) -> Addr:
        return (self.host.ip, self.port)

    @property
    def running(self) -> bool:
        return self._listener is not None

    @property
    def sim(self):
        return self.host.sim

    def _dial(self, addr: Addr):
        """A connection to a peer relay."""
        return connect(self.host, addr)

    def start(self) -> None:
        self._listener = listen(self.host, self.port, backlog=64)
        self._spawn(self._accept_loop(), "relay-accept")
        self.started()

    def stop(self) -> None:
        """Crash/stop the relay: drop every session and stop accepting."""
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self._gossip_token = None
        self._drop_trunks()
        for sock in list(self._inflight_socks):
            sock.abort()
        self._inflight_socks.clear()
        self._drop_sessions()

    # -- mesh mode -----------------------------------------------------------
    def _start_gossip(self) -> None:
        token = object()
        self._gossip_token = token
        self._spawn(self._gossip_loop(token), f"mesh-gossip-{self.relay_id}")

    async def _gossip_loop(self, token: object):
        while self._gossip_token is token and self._listener is not None:
            rnd = self.gossip_begin()
            reply = None
            if rnd.partner is not None:
                try:
                    sock = await self._dial(rnd.addr)
                    self._inflight_socks.add(sock)
                    try:
                        await send_frame(sock, self.gossip_frame())
                        reply = await self.runtime.bounded(
                            recv_frame(sock, MAX_RELAY_FRAME), _PEER_IO_TIMEOUT)
                    finally:
                        self._inflight_socks.discard(sock)
                        sock.close()
                except (*_TRANSPORT_ERRORS, WireError):
                    pass
            if self.gossip_end(rnd, reply):
                await self._push_mesh_views()
            await self.runtime.sleep(self.gossip_delay())

    async def _push_mesh_views(self):
        """Best-effort view push to every registered client."""
        frame = self._mesh_view_frame()
        for sock in list(self.sessions.values()):
            try:
                await send_frame(sock, frame)
            except _TRANSPORT_ERRORS:
                continue  # the session loop notices and unregisters

    async def _serve_gossip(self, sock, sender: str, entries: bytes):
        """Answer one incoming anti-entropy exchange (push-pull)."""
        answer = self.gossip_answer(sender, entries)
        if answer is None:
            return
        reply, moved = answer
        await send_frame(sock, reply)
        if moved:
            await self._push_mesh_views()
        try:
            # wait for the initiator's close
            await recv_frame(sock, MAX_RELAY_FRAME)
        except _SESSION_ERRORS:
            pass

    # -- trunks --------------------------------------------------------------
    async def _trunk(self, relay_id: str, addr: Addr):
        """The outgoing trunk to ``relay_id`` (dialled on first use)."""
        sock = self._trunks.get(relay_id)
        if sock is not None:
            return sock
        sock = await self._dial(addr)
        self._inflight_socks.add(sock)
        try:
            await send_frame(sock, self.trunk_hello())
        except BaseException:
            sock.close()
            raise
        finally:
            self._inflight_socks.discard(sock)
        kept = self.trunk_dialed(relay_id, sock)
        if kept is sock:
            self._spawn(self._trunk_reader(sock, relay_id),
                        f"mesh-trunk-{self.relay_id}-{relay_id}")
        else:
            sock.close()
        return kept

    async def _trunk_reader(self, sock, relay_id: Optional[str] = None):
        """Deliver what arrives over a trunk (forwarded bodies on one we
        accepted; routed errors and return traffic on one we dialled)."""
        try:
            while True:
                body = await recv_frame(sock, MAX_RELAY_FRAME)
                await self._deliver(self.route_trunk(body, sock))
        except _SESSION_ERRORS:
            pass
        finally:
            self.trunk_lost(sock, relay_id)
            sock.close()

    # -- serving -------------------------------------------------------------
    async def _accept_loop(self):
        listener = self._listener
        try:
            while True:
                sock = await listener.accept()
                self._spawn(self._session(sock), "relay-session")
        except SocketClosed:
            return  # stopped

    async def _session(self, sock):
        node_id: Optional[str] = None
        # Until its first frame puts this connection in a registry (and for
        # all of a gossip exchange) nothing else tracks it; stop() must.
        self._inflight_socks.add(sock)
        try:
            body = await recv_frame(sock, MAX_RELAY_FRAME)
            role, peer, rest = self.classify(body)
            if role == self.GOSSIP:
                await self._serve_gossip(sock, peer, rest)
                return
            self._inflight_socks.discard(sock)
            if role == self.TRUNK:
                if self.trunk_accepted(peer, sock):
                    await self._trunk_reader(sock)
            else:
                node_id = peer
                accepted, frames = self.register(node_id, sock)
                for frame in frames:
                    await send_frame(sock, frame)
                while accepted:
                    body = await recv_frame(sock, MAX_RELAY_FRAME)
                    await self._deliver(self.route(node_id, body, sock))
        except _SESSION_ERRORS:
            pass
        finally:
            self._inflight_socks.discard(sock)
            self.unregister(node_id, sock)
            sock.close()

    async def _deliver(self, hop: Optional[Hop]):
        """The hop loop: try the write; on a transport error the core
        names the next hop, down to an error back to the origin.  A body
        forwarded as it arrived goes out by reference behind its length
        prefix: the relay copies a large one only where the socket joins
        what it writes."""
        while hop is not None:
            try:
                if hop.conn is None:
                    hop.conn = await self._trunk(*hop.trunk)
                await send_frame(hop.conn, hop.frame)
            except _TRANSPORT_ERRORS:
                if hop.last:
                    raise  # the origin itself is gone: its loop's problem
                hop = self.hop_failed(hop)
            else:
                return self.hop_done(hop)


class ReflectorServer:
    """Address reflector (STUN-style): tells clients their observed address.

    Usually co-located with the relay on a public host; NAT traversal for
    TCP splicing probes its external mapping here (paper §3.2: splicing
    through NAT needs "a known and predictable port translation rule" —
    the probe is how a node learns its mapping under that rule).

    The connection stays open after the reply so the NAT mapping it pinned
    stays alive; the client closes it when done.
    """

    def __init__(self, host, port: int = 3478):
        self.host = host
        self.port = port
        self.probes = 0

    @property
    def addr(self) -> Addr:
        return (self.host.ip, self.port)

    def start(self) -> None:
        listener = listen(self.host, self.port, backlog=32)

        async def accept_loop():
            while True:
                sock = await listener.accept()
                self.probes += 1
                self.host.sim.process(self._serve(sock), name="reflect")

        self.host.sim.process(accept_loop(), name="reflector-accept")

    async def _serve(self, sock: SimSocket):
        ip, port = sock.raddr
        await sock.send_all(f"{ip}:{port}".ljust(32).encode())
        await sock.recv(1)  # wait for client close
        sock.close()


class RoutedLink(RoutedChannel, Link):
    """A virtual stream carried as routed messages through the relay; it
    pushes (:meth:`RoutedChannel.push_to`): the relay client's reader
    hands an attached consumer each payload."""

    method = "routed"
    native_tcp = False
    relayed = True
    gathers = True

    def __init__(self, client: "RelayClient", peer: str, channel: int, owned: bool = True):
        super().__init__(client, peer, channel, owned)
        #: parked ``recv`` callers, oldest first: (event, maxbytes)
        self._readers: deque = deque()

    @property
    def sim(self):
        return self.client.sim

    def _wake(self) -> None:
        """Serve parked readers in order; what each gets is decided now,
        not when it resumes."""
        while self._readers and (self._buffer or self._eof):
            event, maxbytes = self._readers.popleft()
            if event.done():
                continue  # cancelled while parked
            try:
                event.set_result(self.take(maxbytes))
            except RelayError as exc:
                event.set_exception(exc)

    # -- Link interface ----------------------------------------------------------
    async def send_all(self, data):
        """One routed message per ``MAX_MSG`` bytes of ``data`` (one buffer
        or a buffer list); a large payload goes down by reference."""
        if self.closed:
            raise self.client.link_error("send on closed routed link")
        for frame in self.msg_frames(data):
            await self.client._send(frame)

    async def recv(self, maxbytes: int):
        """Queued data (or the end) at once: no reader is parked then, as
        ``_wake`` serves them while anything is left.  Else park."""
        if self._buffer or self._eof:
            return self.take(maxbytes)
        runtime = self.client.runtime
        event = runtime.event()
        self._readers.append((event, maxbytes))
        return await runtime.wait(event)


class RelayClient(Bound, RelayClientCore):
    """A node's connection to the relay; demultiplexes routed links.

    ``connector`` customizes how the relay itself is reached (e.g. through
    a SOCKS proxy on a severely firewalled site); it is a coroutine
    ``connector(host, relay_addr) -> stream``.

    With ``auto_reconnect`` the client transparently re-registers after
    losing its relay session (relay crash/restart, severed TCP): existing
    routed links are still EOF'd — frames in flight during the outage may
    be gone, so a raw routed stream cannot be resumed exactly-once — but
    new service/data links work again as soon as registration succeeds.
    Exactly-once mid-stream recovery on top of that is the session
    layer's job (:mod:`~repro.core.session`): a ``SessionLink`` re-runs
    establishment over the reconnected relay and negotiates a resume
    offset, replaying whatever the outage swallowed.
    """

    link_class = RoutedLink

    def __init__(
        self,
        host,
        node_id: str,
        relay_addr: Addr,
        connector: Optional[Callable] = None,
        auto_reconnect: bool = False,
        reconnect_policy=None,
        keepalive: float = 10.0,
    ):
        super().__init__(node_id)
        self.host = host
        self.relay_addr = relay_addr
        self.connector = connector
        self.auto_reconnect = auto_reconnect
        #: seconds between T_PING frames to the relay (0 disables).  The
        #: ping keeps the registration's conntrack/NAT entries warm: after
        #: a firewall reboot flushes its table, the next outbound ping
        #: re-creates the entry and the relay's queued frames flow again.
        self.keepalive = keepalive
        self.reconnect_policy = reconnect_policy or RetryPolicy(
            max_attempts=10, base_delay=0.25, multiplier=2.0, max_delay=5.0
        )
        self._sock = None
        #: accepted links waiting for ``accept_link`` callers, or the reverse
        self._accepts = self.runtime.queue()
        #: ``wait_connected`` callers, parked
        self._waiters: dict = {}
        #: True once :meth:`close` was called (suppresses reconnection)
        self.closed = False
        #: successful re-registrations after a lost session
        self.reconnects = 0

    @property
    def sim(self):
        return self.host.sim

    def _dial(self, addr: Addr):
        """A connection to the relay (when no ``connector`` makes it)."""
        return connect(self.host, addr)

    # -- lifecycle -----------------------------------------------------------
    async def connect(self):
        """Register with the relay and start the demux loop."""
        self.closed = False
        if self.connector is not None:
            self._sock = await self.connector(self.host, self.relay_addr)
        else:
            self._sock = await self._dial(self.relay_addr)
        await send_frame(self._sock, self.register_frame())
        self.registered(await recv_frame(self._sock, MAX_RELAY_FRAME))
        self.runtime.unpark(self._waiters, "connected")
        self._spawn(self._reader(), f"relay-client-{self.node_id}")
        if self.keepalive > 0:
            self._spawn(self._keepalive_loop(self._sock),
                        f"relay-keepalive-{self.node_id}")
        return self

    async def wait_connected(self, timeout: float = 30.0):
        """Wait until the client holds a live relay registration."""
        if self.connected:
            return self
        if self.closed:
            raise RelayError("relay client closed")

        async def registered():
            await self.runtime.park(self._waiters, "connected")

        try:
            await self.runtime.bounded(registered(), timeout)
        except TimeoutError:
            raise TimeoutError(
                f"relay connection not up within {timeout}s") from None
        return self

    def close(self) -> None:
        self.closed = True
        self._drop_session()

    def _drop_session(self) -> None:
        """Close our half too (a FIN'd session must not linger in
        CLOSE_WAIT), then EOF every link."""
        if self._sock is not None:
            self._sock.close()
        self.lost()

    def drop(self) -> None:
        """Fault-injection hook: sever the relay session abruptly.

        Unlike :meth:`close` this looks like a network failure — the
        session socket is reset, the relay sees the peer disappear
        mid-conversation, and (with ``auto_reconnect``) the client will
        try to re-register.
        """
        if self._sock is not None:
            self._sock.abort()

    async def _keepalive_loop(self, sock):
        """Ping the relay periodically while this registration is alive."""
        while True:
            await self.runtime.sleep(self.keepalive)
            if self.closed or not self.connected or self._sock is not sock:
                return
            try:
                await send_frame(sock, PING_FRAME)
            except (*_TRANSPORT_ERRORS, RelayError):
                return  # the reader notices the loss and handles it

    # -- outgoing ---------------------------------------------------------------
    async def _send(self, frame: bytes):
        if self._sock is None:
            raise self.link_error("relay client not connected")
        await send_frame(self._sock, frame)

    def _notify(self, frame: bytes) -> None:
        async def notify():
            # Best-effort: the relay session may die under us mid-frame
            # (crash, reset) — the peer learns about the close from its
            # own session loss in that case.
            try:
                await self._send(frame)
            except (*_TRANSPORT_ERRORS, RelayError):
                pass

        self._spawn(notify(), "routed-close")

    async def open_link(
        self, peer: str, payload: bytes = b"",
        ctx: Optional[obs.TraceContext] = None,
    ):
        """Open a routed link to ``peer`` (see ``RelayClientCore.open``)."""
        link, frame = self.open(peer, payload, ctx)
        await self._send(frame)
        return link

    async def accept_link(self):
        """Wait for a peer-initiated routed link."""
        return await self._accepts.get()

    # -- incoming ----------------------------------------------------------------
    async def _reader(self):
        try:
            while True:
                body = await recv_frame(self._sock, MAX_RELAY_FRAME)
                link = self.dispatch(body)
                if link is not None:
                    self._accepts.put(link)
        except _SESSION_ERRORS as exc:
            # Relay unreachable/crashed: every routed link is dead.
            self._drop_session()
            if self.auto_reconnect and not self.closed:
                obs.event(
                    "relay.client.lost",
                    node=self.node_id,
                    error=f"{type(exc).__name__}: {exc}",
                )
                self._spawn(self._reconnect_loop(),
                            f"relay-reconnect-{self.node_id}")

    async def _reconnect_loop(self):
        """Re-register with (jittered, bounded) backoff after a lost session."""

        async def attempt(_i: int):
            if self.closed:
                return None
            return await self.connect()

        try:
            await retrying(
                self.runtime,
                attempt,
                self.reconnect_policy,
                retry_on=_SESSION_ERRORS,
                key=self.node_id,
                name="relay.client.reconnect",
            )
        except RetryExhausted:
            return  # stays disconnected; wait_connected() callers time out
        if self.connected:
            self.reconnects += 1
            obs.event(
                "relay.client.reconnected",
                node=self.node_id,
                reconnects=self.reconnects,
            )
