"""Live relay: the routed-messages relay over real sockets.

The asyncio binding of :mod:`repro.core.relay_core` — the same protocol
state machines as :mod:`repro.core.relay`, so the same wire format,
routing table, mesh behaviour and traces.  A public machine runs
:class:`LiveRelayServer`; nodes keep a :class:`LiveRelayClient`
connection and multiplex :class:`LiveRoutedLink` streams over it;
:class:`LiveMeshRelayClient` holds one registration per relay of a mesh
and route-table-picks the carrier for each link, so a mid-stream relay
kill fails over to a survivor exactly as in the simulator.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from ..core.relay_core import (
    MAX_RELAY_FRAME,
    Hop,
    MeshSelection,
    RelayClientCore,
    RelayCore,
    RelayError,
    RoutedChannel,
)
from ..core.wire import WireError, recv_frame, send_frame
from ..mesh.config import MeshConfig
from ..obs import TraceContext
from ..util.framing import FrameError
from .transport import Addr, LiveSocket, live_connect, live_listen
from .wire import ExactReads

__all__ = [
    "LiveRelayServer",
    "LiveRelayClient",
    "LiveRoutedLink",
    "LiveMeshRelayClient",
    "LiveRelayError",
]

#: dial/handshake budget for relay-to-relay exchanges (gossip, trunks);
#: a dead peer must cost one bounded round, not a hung task
_PEER_IO_TIMEOUT = 2.0

#: a write (or dial) to a dead connection
_TRANSPORT_ERRORS = (EOFError, OSError, asyncio.TimeoutError)
#: everything that ends a connection's read loop
_SESSION_ERRORS = (*_TRANSPORT_ERRORS, RelayError, FrameError, WireError)


class LiveRelayError(RelayError, ConnectionError):
    """A relay's refusal as the live stack sees it: also a dead transport,
    so the session and mux layers recover from it like from any other."""


class LiveRelayServer(RelayCore):
    """asyncio relay server (optionally one member of a relay mesh).

    :class:`~repro.core.relay_core.RelayCore` decides; this class listens,
    runs one read loop per connection, performs the hops the core names
    and sleeps between gossip rounds.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, name: str = "relay"):
        super().__init__(name, clock=time.monotonic)
        self.host = host
        self.port = port
        self._listener = None
        #: accept loop, gossip loop, one per connection, one per dialled trunk
        self._tasks: set[asyncio.Task] = set()
        self._gossip_task: Optional[asyncio.Task] = None

    @property
    def addr(self) -> Addr:
        return self._listener.addr

    @property
    def running(self) -> bool:
        return self._listener is not None

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def start(self) -> "LiveRelayServer":
        self._listener = await live_listen(self.host, self.port)
        # Pin the OS-assigned port so a restart after a kill rebinds the
        # address every client and peer relay already knows.
        self.port = self._listener.port
        self._spawn(self._accept_loop())
        self.started()
        return self

    def stop(self) -> None:
        """Crash/stop the relay: drop every session and stop accepting."""
        for task in list(self._tasks):
            task.cancel()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self._drop_trunks()
        self._drop_sessions()

    def close(self) -> None:
        self.stop()

    # -- mesh mode -----------------------------------------------------------
    def enable_mesh(self, relay_id: str, peers: dict, seed,
                    config: Optional[MeshConfig] = None,
                    clock: Optional[Callable[[], float]] = None) -> None:
        """``clock`` lets a harness supply run-relative time so detector
        timestamps line up with its fault-plan timeline."""
        if clock is not None:
            self.clock = clock
        super().enable_mesh(relay_id, peers, seed, config)

    def _start_gossip(self) -> None:
        if self._gossip_task is not None:
            self._gossip_task.cancel()
        self._gossip_task = self._spawn(self._gossip_loop())

    async def _gossip_loop(self) -> None:
        while self._listener is not None:
            rnd = self.gossip_begin()
            reply = None
            if rnd.partner is not None:
                try:
                    sock = await asyncio.wait_for(
                        live_connect(rnd.addr), timeout=_PEER_IO_TIMEOUT)
                    try:
                        await send_frame(sock, self.gossip_frame())
                        reply = await asyncio.wait_for(
                            recv_frame(sock, MAX_RELAY_FRAME),
                            timeout=_PEER_IO_TIMEOUT)
                    finally:
                        sock.close()
                except (*_TRANSPORT_ERRORS, WireError):
                    pass
            if self.gossip_end(rnd, reply):
                await self._push_mesh_views()
            await asyncio.sleep(self.gossip_delay())

    async def _push_mesh_views(self) -> None:
        """Best-effort view push to every registered client."""
        frame = self._mesh_view_frame()
        for sock in list(self.sessions.values()):
            try:
                await send_frame(sock, frame)
            except _TRANSPORT_ERRORS:
                continue  # the session loop notices and unregisters

    async def _serve_gossip(self, sock, sender: str, entries: bytes) -> None:
        """Answer one incoming anti-entropy exchange (push-pull)."""
        answer = self.gossip_answer(sender, entries)
        if answer is None:
            return
        reply, moved = answer
        await send_frame(sock, reply)
        if moved:
            await self._push_mesh_views()
        try:
            await recv_frame(sock, MAX_RELAY_FRAME)  # wait for the initiator's close
        except _SESSION_ERRORS:
            pass

    # -- trunks --------------------------------------------------------------
    async def _trunk(self, relay_id: str, addr: Addr):
        """The outgoing trunk to ``relay_id`` (dialled on first use)."""
        sock = self._trunks.get(relay_id)
        if sock is not None:
            return sock
        sock = await asyncio.wait_for(live_connect(addr), timeout=_PEER_IO_TIMEOUT)
        try:
            await send_frame(sock, self.trunk_hello())
        except BaseException:
            sock.close()
            raise
        kept = self.trunk_dialed(relay_id, sock)
        if kept is sock:
            self._spawn(self._trunk_reader(sock, relay_id))
        else:
            sock.close()
        return kept

    async def _trunk_reader(self, sock, relay_id: Optional[str] = None) -> None:
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
    async def _accept_loop(self) -> None:
        while True:
            self._spawn(self._session(await self._listener.accept()))

    async def _session(self, sock) -> None:
        node_id: Optional[str] = None
        try:
            body = await recv_frame(sock, MAX_RELAY_FRAME)
            role, peer, rest = self.classify(body)
            if role == self.GOSSIP:
                await self._serve_gossip(sock, peer, rest)
            elif role == self.TRUNK:
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
            self.unregister(node_id, sock)
            sock.close()

    async def _deliver(self, hop: Optional[Hop]) -> None:
        """The hop loop: try the write; on a transport error the core
        names the next hop, down to an error back to the origin."""
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


class LiveRoutedLink(RoutedChannel, ExactReads):
    """A virtual stream over the live relay."""

    def __init__(
        self, client: "LiveRelayClient", peer: str, channel: int, owned: bool = True
    ):
        super().__init__(client, peer, channel, owned)
        self._event = asyncio.Event()

    def _wake(self) -> None:
        self._event.set()

    async def send_all(self, data: bytes) -> None:
        for frame in self.msg_frames(data):
            if self._eof or not self.client.connected:
                raise ConnectionResetError("routed link lost its relay")
            await self.client._send(frame)

    async def recv(self, maxbytes: int) -> bytes:
        while (data := self.take(maxbytes)) is None:
            self._event.clear()
            await self._event.wait()
        return data


class LiveRelayClient(RelayClientCore):
    """A node's live connection to the relay."""

    link_class = LiveRoutedLink
    link_error = LiveRelayError

    def __init__(self, node_id: str, relay_addr: Addr):
        super().__init__(node_id)
        self.relay_addr = relay_addr
        self._sock: Optional[LiveSocket] = None
        self._accepts: asyncio.Queue = asyncio.Queue()
        self._reader_task: Optional[asyncio.Task] = None
        self._notifying: set[asyncio.Task] = set()

    async def connect(self) -> "LiveRelayClient":
        self._sock = await live_connect(self.relay_addr)
        await send_frame(self._sock, self.register_frame())
        self.registered(await recv_frame(self._sock, MAX_RELAY_FRAME))
        self._reader_task = asyncio.ensure_future(self._reader())
        return self

    async def _send(self, frame: bytes) -> None:
        await send_frame(self._sock, frame)

    def _notify(self, frame: bytes) -> None:
        async def notify() -> None:
            try:
                await self._send(frame)
            except _TRANSPORT_ERRORS:
                pass  # the relay session is gone; nothing to tell it

        task = asyncio.ensure_future(notify())
        self._notifying.add(task)  # the loop holds tasks only weakly
        task.add_done_callback(self._notifying.discard)

    async def open_link(self, peer: str, payload: bytes = b"",
                        ctx: Optional[TraceContext] = None) -> LiveRoutedLink:
        """Open a routed link to ``peer`` (see ``RelayClientCore.open``)."""
        link, frame = self.open(peer, payload, ctx)
        await self._send(frame)
        return link

    async def accept_link(self) -> LiveRoutedLink:
        return await self._accepts.get()

    async def _reader(self) -> None:
        try:
            while True:
                link = self.dispatch(await recv_frame(self._sock, MAX_RELAY_FRAME))
                if link is not None:
                    self._accepts.put_nowait(link)
        except _SESSION_ERRORS:
            pass
        finally:
            self.lost()  # also when close() cancels us

    def close(self) -> None:
        self.connected = False
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self._sock is not None:
            self._sock.close()


class _MeshLinkListener:
    """The listener surface (``accept``/``close``/``addr``) over routed links.

    Lets :class:`~repro.livenet.session.AsyncSessionListener` sit on top
    of a :class:`LiveMeshRelayClient`, so survivable sessions run over
    relay-routed streams — including RESUME re-dials that land on a
    *different* relay than the one that died.
    """

    def __init__(self, mesh_client: "LiveMeshRelayClient"):
        self.mesh_client = mesh_client

    @property
    def addr(self) -> Addr:
        return ("mesh", 0)

    async def accept(self) -> LiveRoutedLink:
        return await self.mesh_client.accept_link()

    def close(self) -> None:
        pass  # the mesh client owns its own lifecycle


class LiveMeshRelayClient(MeshSelection):
    """A node's registrations with every relay of a mesh, route-table
    picked: :class:`~repro.core.relay_core.MeshSelection` over one
    :class:`LiveRelayClient` per relay."""

    def __init__(
        self,
        node_id: str,
        relays: dict[str, Addr],
        seed=0,
        config: Optional[MeshConfig] = None,
    ):
        clients = {rid: LiveRelayClient(node_id, addr)
                   for rid, addr in sorted(relays.items())}
        super().__init__(node_id, clients, seed, config, clock=time.monotonic)
        #: one queue for links accepted on *any* relay
        self._accepts: asyncio.Queue = asyncio.Queue()
        for client in clients.values():
            client._accepts = self._accepts

    # -- lifecycle -----------------------------------------------------------
    async def connect(self) -> "LiveMeshRelayClient":
        """Register with every relay; at least one must accept us."""
        errors: list[str] = []
        for rid in sorted(self.clients):
            try:
                await asyncio.wait_for(
                    self.clients[rid].connect(), timeout=_PEER_IO_TIMEOUT
                )
            except _SESSION_ERRORS as exc:
                errors.append(f"{rid}: {type(exc).__name__}: {exc}")
        if not self.connected:
            raise RelayError(f"no relay reachable: {'; '.join(errors)}")
        return self

    def close(self) -> None:
        self.closed = True
        for client in self.clients.values():
            client.close()

    # -- links ---------------------------------------------------------------
    async def open_link(self, peer: str, payload: bytes = b"",
                        ctx: Optional[TraceContext] = None) -> LiveRoutedLink:
        """Open a routed link to ``peer`` through the best live relay; a
        relay whose session turns out dead is skipped for the next best."""
        for _ in self.clients:
            rid = self.choose_relay(peer, ctx)
            try:
                return await self.clients[rid].open_link(peer, payload, ctx)
            except (*_TRANSPORT_ERRORS, RelayError):
                self.clients[rid].connected = False
                self.table.invalidate(rid)
        raise RelayError("no usable relay for routed open")

    async def accept_link(self) -> LiveRoutedLink:
        """Wait for a peer-initiated routed link on *any* relay."""
        return await self._accepts.get()

    def link_listener(self) -> _MeshLinkListener:
        """An ``AsyncSessionListener``-compatible listener over routed links."""
        return _MeshLinkListener(self)
