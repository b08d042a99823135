"""Live relay: the routed-messages relay over real sockets.

Same wire protocol as :mod:`repro.core.relay` (REGISTER/OPEN/MSG/CLOSE
frames), bound to asyncio.  A public machine runs :class:`LiveRelayServer`;
nodes keep a :class:`LiveRelayClient` connection and multiplex
:class:`LiveRoutedLink` streams over it.

Mesh mode is the live twin of the sim relay mesh: servers gossip their
views over short-lived TCP exchanges (``T_GOSSIP``), declare silent
peers dead with the shared deadline/phi detector, push their converged
view to registered clients (``T_MESH``), and forward routed frames for
nodes registered at a peer relay over point-to-point trunk connections
(``T_TRUNK``).  :class:`LiveMeshRelayClient` holds one registration per
relay and route-table-picks the carrier for each link, so a mid-stream
relay kill fails over to a survivor exactly as in the simulator.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from typing import Callable, Optional, Tuple

from .. import obs
from ..core.relay import (
    MAX_MSG,
    MAX_RELAY_FRAME,
    T_CLOSE,
    T_ERROR,
    T_GOSSIP,
    T_MESH,
    T_MSG,
    T_OPEN,
    T_REGISTER,
    T_REGISTER_OK,
    T_TRUNK,
    RelayError,
    _routed_body,
)
from ..mesh.config import DEFAULT_MESH_CONFIG, MeshConfig
from ..mesh.routes import RouteTable
from ..mesh.state import MeshState, decode_entries, encode_entries
from ..util.framing import ByteReader, ByteWriter, FrameError
from .transport import LiveSocket, live_connect, live_listen
from .wire import ExactReads, WireError, read_frame, write_frame

__all__ = [
    "LiveRelayServer",
    "LiveRelayClient",
    "LiveRoutedLink",
    "LiveMeshRelayClient",
]

Addr = Tuple[str, int]

#: dial/handshake budget for relay-to-relay exchanges (gossip, trunks);
#: a dead peer must cost one bounded round, not a hung task
_PEER_IO_TIMEOUT = 2.0


class LiveRelayServer:
    """asyncio relay server (optionally one member of a relay mesh)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, name: str = "relay"):
        self.host = host
        self.port = port
        self.name = name
        self.relay_id = name
        self.sessions: dict[str, LiveSocket] = {}
        self.forwarded_messages = 0
        self.forwarded_bytes = 0
        self.trunk_tx = 0
        self.trunk_rx = 0
        self._listener = None
        self._task: Optional[asyncio.Task] = None
        self._session_tasks: set[asyncio.Task] = set()
        # mesh mode
        self.mesh: Optional[MeshState] = None
        self._mesh_config: Optional[MeshConfig] = None
        self._mesh_peers: dict[str, Addr] = {}
        self._mesh_rng: Optional[random.Random] = None
        self._incarnation = 0
        self._gossip_task: Optional[asyncio.Task] = None
        self._trunks: dict[str, LiveSocket] = {}
        self._trunk_tasks: dict[str, asyncio.Task] = {}
        self._partitioned: set[str] = set()
        self._clock: Optional[Callable[[], float]] = None

    @property
    def addr(self) -> Addr:
        return self._listener.addr

    @property
    def running(self) -> bool:
        return self._listener is not None

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_running_loop().time()

    async def start(self) -> "LiveRelayServer":
        self._listener = await live_listen(self.host, self.port)
        # Pin the OS-assigned port so a restart after a kill rebinds the
        # address every client and peer relay already knows.
        self.port = self._listener.port
        self._task = asyncio.ensure_future(self._accept_loop())
        if self.mesh is not None:
            # Restart after a crash: a fresh incarnation must dominate
            # stale rumours of the previous life, and silence accumulated
            # while we were down is not evidence of anyone's death.
            self._incarnation += 1
            self.mesh.restarted(self._now())
            self._start_gossip()
        return self

    def stop(self) -> None:
        """Crash/stop the relay: drop every session and stop accepting."""
        if self._task is not None:
            self._task.cancel()
            self._task = None
        if self._gossip_task is not None:
            self._gossip_task.cancel()
            self._gossip_task = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for rid in list(self._trunks):
            self._drop_trunk(rid)
        for task in list(self._session_tasks):
            task.cancel()
        self._session_tasks.clear()
        for sock in list(self.sessions.values()):
            sock.abort()
        self.sessions.clear()

    def close(self) -> None:
        self.stop()

    # -- mesh mode -----------------------------------------------------------
    def enable_mesh(
        self,
        relay_id: str,
        peers: dict[str, Addr],
        seed,
        config: Optional[MeshConfig] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        """Join the relay mesh as ``relay_id``.

        ``peers`` are the seed contacts (relay id -> address); the gossip
        partner set self-extends to any relay learned through merges.
        ``clock`` lets a harness supply run-relative time so detector
        timestamps line up with its fault-plan timeline.
        """
        self.relay_id = relay_id
        self.name = relay_id
        self._mesh_config = config or DEFAULT_MESH_CONFIG
        self.mesh = MeshState(relay_id, self._mesh_config)
        self._mesh_peers = {
            rid: addr for rid, addr in peers.items() if rid != relay_id
        }
        self._mesh_rng = random.Random(f"{seed}:mesh:{relay_id}")
        self._clock = clock
        self._incarnation += 1
        if self._listener is not None:
            self._start_gossip()

    def partition(self, peer_ids) -> None:
        """Fault hook: refuse gossip/trunks with these peer relays."""
        for rid in peer_ids:
            self._partitioned.add(rid)
            self._drop_trunk(rid)

    def heal_partition(self, peer_ids=None) -> None:
        healed = set(peer_ids) if peer_ids is not None else set(self._partitioned)
        self._partitioned -= healed

    def _start_gossip(self) -> None:
        if self._gossip_task is not None:
            self._gossip_task.cancel()
        self._gossip_task = asyncio.ensure_future(self._gossip_loop())

    async def _gossip_loop(self) -> None:
        cfg = self._mesh_config
        reg = obs.metrics()
        try:
            while self._listener is not None:
                now = self._now()
                self.mesh.refresh_self(
                    now,
                    self.addr,
                    load=len(self.sessions),
                    nodes=self.sessions.keys(),
                    incarnation=self._incarnation,
                )
                newly_dead = self.mesh.sweep(now)
                changed = bool(newly_dead)
                for rid in newly_dead:
                    obs.event(
                        "mesh.relay_dead", node=self.name, relay=rid,
                        backend="live",
                    )
                    self._drop_trunk(rid)
                partner = self._pick_partner()
                if partner is not None:
                    partner_id, partner_addr = partner
                    t0 = self._now()
                    ok = True
                    advanced: list[str] = []
                    try:
                        sock = await asyncio.wait_for(
                            live_connect(partner_addr), timeout=_PEER_IO_TIMEOUT
                        )
                        try:
                            await write_frame(
                                sock,
                                ByteWriter()
                                .u8(T_GOSSIP)
                                .lp_str(self.relay_id)
                                .lp_bytes(
                                    encode_entries(self.mesh.entries.values())
                                )
                                .getvalue(),
                            )
                            reply = await asyncio.wait_for(
                                read_frame(sock, MAX_RELAY_FRAME),
                                timeout=_PEER_IO_TIMEOUT,
                            )
                            r = ByteReader(reply)
                            if r.u8() == T_GOSSIP:
                                r.lp_str()  # sender id
                                advanced = self.mesh.merge(
                                    decode_entries(r.lp_bytes()), self._now()
                                )
                        finally:
                            sock.close()
                    except (
                        ConnectionError,
                        OSError,
                        EOFError,
                        RelayError,
                        FrameError,
                        WireError,
                        asyncio.TimeoutError,
                    ):
                        ok = False
                    reg.counter(
                        "mesh.gossip_rounds_total",
                        relay=self.relay_id,
                        backend="live",
                    ).inc()
                    if advanced or not ok:
                        # Only state-changing (or failed) rounds become
                        # trace spans; steady-state rounds would drown it.
                        obs.record_span(
                            "mesh.gossip",
                            t0,
                            self._now(),
                            node=self.name,
                            peer=partner_id,
                            outcome="ok" if ok else "unreachable",
                            advanced=len(advanced),
                            backend="live",
                        )
                    changed = changed or bool(advanced)
                reg.gauge(
                    "mesh.relays_alive", relay=self.relay_id, backend="live"
                ).set(len(self.mesh.alive()))
                if changed:
                    await self._push_mesh_views()
                jitter = (
                    cfg.gossip_jitter
                    * cfg.gossip_interval
                    * (2.0 * self._mesh_rng.random() - 1.0)
                )
                await asyncio.sleep(max(cfg.gossip_interval + jitter, 0.02))
        except asyncio.CancelledError:
            return

    def _pick_partner(self) -> Optional[tuple[str, Addr]]:
        """A seeded-random live gossip partner (seeds + learned relays)."""
        candidates: dict[str, Addr] = dict(self._mesh_peers)
        for entry in self.mesh.alive():
            candidates.setdefault(entry.relay_id, entry.addr)
        eligible = sorted(
            rid
            for rid in candidates
            if rid != self.relay_id
            and rid not in self.mesh.dead
            and rid not in self._partitioned
        )
        if not eligible:
            return None
        rid = self._mesh_rng.choice(eligible)
        return rid, candidates[rid]

    def _mesh_view_frame(self) -> bytes:
        dead = sorted(self.mesh.dead)
        w = (
            ByteWriter()
            .u8(T_MESH)
            .lp_bytes(encode_entries(self.mesh.alive()))
            .u32(len(dead))
        )
        for rid in dead:
            w.lp_str(rid)
        return w.getvalue()

    async def _push_mesh_views(self) -> None:
        """Best-effort view push to every registered client."""
        frame = self._mesh_view_frame()
        for sock in list(self.sessions.values()):
            try:
                await write_frame(sock, frame)
            except (ConnectionError, OSError):
                continue  # the session loop notices and unregisters

    async def _serve_gossip(self, sock: LiveSocket, reader: ByteReader) -> None:
        """Answer one incoming anti-entropy exchange (push-pull)."""
        sender = reader.lp_str()
        body = reader.lp_bytes()
        if self.mesh is None or sender in self._partitioned:
            sock.close()
            return
        advanced = self.mesh.merge(decode_entries(body), self._now())
        await write_frame(
            sock,
            ByteWriter()
            .u8(T_GOSSIP)
            .lp_str(self.relay_id)
            .lp_bytes(encode_entries(self.mesh.entries.values()))
            .getvalue(),
        )
        if advanced:
            await self._push_mesh_views()
        try:
            await read_frame(sock, MAX_RELAY_FRAME)  # wait for the initiator's close
        except (EOFError, ConnectionError, OSError, RelayError, FrameError, WireError):
            pass
        sock.close()

    async def _serve_trunk(self, sock: LiveSocket, reader: ByteReader) -> None:
        """Serve an incoming trunk: deliver forwarded bodies locally."""
        peer_relay = reader.lp_str()
        if self.mesh is None or peer_relay in self._partitioned:
            sock.close()
            return
        try:
            while True:
                body = await read_frame(sock, MAX_RELAY_FRAME)
                await self._deliver_trunk(body, sock)
        except (EOFError, ConnectionError, OSError, RelayError, FrameError, WireError):
            pass
        sock.close()

    async def _deliver_trunk(self, body: bytes, trunk_sock: LiveSocket) -> None:
        """Deliver a trunk-forwarded routed body to a *local* session.

        Trunk frames are never re-forwarded to another relay — that is
        the loop-prevention rule of the overlay.  An unreachable local
        destination turns into a routed ``T_ERROR`` sent back over the
        same trunk, which the origin relay delivers to the opener.
        """
        reader = ByteReader(body)
        kind = reader.u8()
        if kind not in (T_OPEN, T_MSG, T_CLOSE, T_ERROR):
            raise RelayError(f"unexpected trunk frame type {kind}")
        reader.u8()  # ownership flag, forwarded untouched
        src = reader.lp_str()
        dst = reader.lp_str()
        channel = reader.u64()
        self.trunk_rx += 1
        dest_sock = self.sessions.get(dst)
        if dest_sock is None:
            if kind != T_ERROR:  # errors about errors stop here
                await write_frame(
                    trunk_sock,
                    _routed_body(
                        T_ERROR, dst, src, channel, b"unknown destination",
                        sender_owns_channel=False,
                    ),
                )
            return
        self.forwarded_messages += 1
        self.forwarded_bytes += len(body)
        reg = obs.metrics()
        reg.counter("relay.forwarded_total", backend="live").inc()
        reg.counter("relay.forwarded_bytes_total", backend="live").inc(len(body))
        try:
            await write_frame(dest_sock, body)
        except (ConnectionError, OSError):
            if self.sessions.get(dst) is dest_sock:
                del self.sessions[dst]
            dest_sock.abort()
            if kind != T_ERROR:
                await write_frame(
                    trunk_sock,
                    _routed_body(
                        T_ERROR, dst, src, channel, b"unknown destination",
                        sender_owns_channel=False,
                    ),
                )

    async def _get_trunk(self, relay_id: str, addr: Addr) -> Optional[LiveSocket]:
        """A live outgoing trunk to ``relay_id`` (dial on first use)."""
        sock = self._trunks.get(relay_id)
        if sock is not None:
            return sock
        try:
            sock = await asyncio.wait_for(
                live_connect(addr), timeout=_PEER_IO_TIMEOUT
            )
            await write_frame(
                sock,
                ByteWriter().u8(T_TRUNK).lp_str(self.relay_id).getvalue(),
            )
        except (ConnectionError, OSError, EOFError, asyncio.TimeoutError):
            return None
        self._trunks[relay_id] = sock
        self._trunk_tasks[relay_id] = asyncio.ensure_future(
            self._trunk_reader(relay_id, sock)
        )
        return sock

    async def _trunk_reader(self, relay_id: str, sock: LiveSocket) -> None:
        """Read replies (routed errors, return traffic) off an outgoing trunk."""
        try:
            while True:
                body = await read_frame(sock, MAX_RELAY_FRAME)
                await self._deliver_trunk(body, sock)
        except (
            EOFError, ConnectionError, OSError, RelayError, FrameError, WireError,
            asyncio.CancelledError,
        ):
            pass
        if self._trunks.get(relay_id) is sock:
            del self._trunks[relay_id]
        sock.close()

    def _drop_trunk(self, relay_id: str) -> None:
        sock = self._trunks.pop(relay_id, None)
        if sock is not None:
            sock.abort()
        task = self._trunk_tasks.pop(relay_id, None)
        if task is not None:
            task.cancel()

    async def _trunk_forward(self, dst: str, body: bytes) -> bool:
        """Forward a routed body toward the relay owning ``dst``.

        Returns True when the frame was handed to a trunk; False sends
        the caller down the unknown-destination path.
        """
        if self.mesh is None:
            return False
        owner = self.mesh.owner_of(dst)
        if (
            owner is None
            or owner.relay_id == self.relay_id
            or owner.relay_id in self._partitioned
        ):
            return False
        trunk = await self._get_trunk(owner.relay_id, owner.addr)
        if trunk is None:
            return False
        try:
            await write_frame(trunk, body)
        except (ConnectionError, OSError):
            self._drop_trunk(owner.relay_id)
            return False
        self.trunk_tx += 1
        self.forwarded_messages += 1
        self.forwarded_bytes += len(body)
        reg = obs.metrics()
        reg.counter("relay.forwarded_total", backend="live").inc()
        reg.counter("relay.forwarded_bytes_total", backend="live").inc(len(body))
        return True

    # -- serving -------------------------------------------------------------
    async def _accept_loop(self) -> None:
        while True:
            sock = await self._listener.accept()
            task = asyncio.ensure_future(self._session(sock))
            self._session_tasks.add(task)
            task.add_done_callback(self._session_tasks.discard)

    async def _session(self, sock: LiveSocket) -> None:
        node_id: Optional[str] = None
        try:
            body = await read_frame(sock, MAX_RELAY_FRAME)
            reader = ByteReader(body)
            first = reader.u8()
            if first == T_GOSSIP:
                await self._serve_gossip(sock, reader)
                return
            if first == T_TRUNK:
                await self._serve_trunk(sock, reader)
                return
            if first != T_REGISTER:
                raise RelayError("expected REGISTER")
            node_id = reader.lp_str()
            if node_id in self.sessions:
                await write_frame(
                    sock, ByteWriter().u8(T_ERROR).lp_str("duplicate id").getvalue()
                )
                sock.close()
                return
            self.sessions[node_id] = sock
            await write_frame(sock, ByteWriter().u8(T_REGISTER_OK).getvalue())
            if self.mesh is not None:
                # New registrations learn the mesh immediately (their
                # route table needs the view before the first open).
                await write_frame(sock, self._mesh_view_frame())
            while True:
                body = await read_frame(sock, MAX_RELAY_FRAME)
                await self._forward(node_id, body, sock)
        except (EOFError, RelayError, FrameError, WireError, ConnectionError, OSError):
            pass
        finally:
            if node_id is not None and self.sessions.get(node_id) is sock:
                del self.sessions[node_id]
            sock.close()

    async def _forward(self, src: str, body: bytes, src_sock: LiveSocket) -> None:
        reader = ByteReader(body)
        kind = reader.u8()
        if kind not in (T_OPEN, T_MSG, T_CLOSE):
            raise RelayError(f"unexpected frame type {kind}")
        reader.u8()  # channel-ownership flag: forwarded untouched
        claimed = reader.lp_str()
        dst = reader.lp_str()
        channel = reader.u64()
        if claimed != src:
            raise RelayError("source spoofing")
        dest = self.sessions.get(dst)
        if dest is None and self.mesh is not None:
            # Not registered here — maybe at a peer relay (trunk hop).
            if await self._trunk_forward(dst, body):
                return
        if dest is None:
            await write_frame(
                src_sock,
                _routed_body(
                    T_ERROR, dst, src, channel, b"unknown destination",
                    sender_owns_channel=False,
                ),
            )
            return
        self.forwarded_messages += 1
        self.forwarded_bytes += len(body)
        reg = obs.metrics()
        reg.counter("relay.forwarded_total", backend="live").inc()
        reg.counter("relay.forwarded_bytes_total", backend="live").inc(len(body))
        await write_frame(dest, body)


class LiveRoutedLink(ExactReads):
    """A virtual stream over the live relay."""

    def __init__(
        self, client: "LiveRelayClient", peer: str, channel: int, owned: bool = True
    ):
        self.client = client
        self.peer = peer
        self.channel = channel
        self.owned = owned
        self._buffer = bytearray()
        self._event = asyncio.Event()
        self._eof = False
        self.open_payload = b""

    def _deliver(self, payload: bytes) -> None:
        self._buffer.extend(payload)
        self._event.set()

    def _deliver_eof(self) -> None:
        self._eof = True
        self._event.set()

    async def send_all(self, data: bytes) -> None:
        for offset in range(0, len(data), MAX_MSG):
            if self._eof or not self.client.connected:
                raise ConnectionResetError("routed link lost its relay")
            chunk = bytes(data[offset : offset + MAX_MSG])
            await self.client._send_routed(
                T_MSG, self.peer, self.channel, chunk, owned=self.owned
            )

    async def recv(self, maxbytes: int) -> bytes:
        while not self._buffer and not self._eof:
            self._event.clear()
            await self._event.wait()
        take = bytes(self._buffer[:maxbytes])
        del self._buffer[: len(take)]
        return take

    def close(self) -> None:
        async def _send_close() -> None:
            try:
                await self.client._send_routed(
                    T_CLOSE, self.peer, self.channel, b"", owned=self.owned
                )
            except (ConnectionError, OSError, AttributeError):
                pass  # the relay session is gone; nothing to tell it

        asyncio.ensure_future(_send_close())

    def abort(self) -> None:
        """Hard-kill the local end: EOF to readers, best-effort CLOSE out."""
        self._deliver_eof()
        self.close()


class LiveRelayClient:
    """A node's live connection to the relay."""

    def __init__(self, node_id: str, relay_addr: Addr):
        self.node_id = node_id
        self.relay_addr = relay_addr
        self.connected = False
        self._sock: Optional[LiveSocket] = None
        # key: (peer, channel, owned_by_me)
        self._links: dict[tuple[str, int, bool], LiveRoutedLink] = {}
        self._accepts: asyncio.Queue = asyncio.Queue()
        self._channel_ids = itertools.count(1)
        self._reader_task: Optional[asyncio.Task] = None
        # mesh view (populated by T_MESH pushes from a mesh-mode relay)
        self.mesh_view: list = []
        self.mesh_dead: frozenset = frozenset()
        self.mesh_view_seq = 0
        self.on_mesh_view: Optional[Callable[["LiveRelayClient"], None]] = None

    async def connect(self) -> "LiveRelayClient":
        self._sock = await live_connect(self.relay_addr)
        await write_frame(
            self._sock, ByteWriter().u8(T_REGISTER).lp_str(self.node_id).getvalue()
        )
        body = await read_frame(self._sock, MAX_RELAY_FRAME)
        if ByteReader(body).u8() != T_REGISTER_OK:
            raise RelayError(f"registration rejected: {body!r}")
        self.connected = True
        self._reader_task = asyncio.ensure_future(self._reader())
        return self

    async def _send_routed(
        self, kind: int, peer: str, channel: int, payload: bytes, owned: bool = True
    ) -> None:
        await write_frame(
            self._sock,
            _routed_body(
                kind, self.node_id, peer, channel, payload, sender_owns_channel=owned
            ),
        )

    async def open_link(self, peer: str, payload: bytes = b"") -> LiveRoutedLink:
        channel = next(self._channel_ids)
        link = LiveRoutedLink(self, peer, channel, owned=True)
        link.open_payload = payload
        self._links[(peer, channel, True)] = link
        await self._send_routed(T_OPEN, peer, channel, payload, owned=True)
        return link

    async def accept_link(self) -> LiveRoutedLink:
        return await self._accepts.get()

    async def _reader(self) -> None:
        try:
            while True:
                body = await read_frame(self._sock, MAX_RELAY_FRAME)
                self._dispatch(body)
        except (EOFError, RelayError, FrameError, WireError, ConnectionError, OSError,
                asyncio.CancelledError):
            self.connected = False
            for link in self._links.values():
                link._deliver_eof()

    def _dispatch(self, body: bytes) -> None:
        reader = ByteReader(body)
        kind = reader.u8()
        if kind == T_MESH:
            try:
                entries = decode_entries(reader.lp_bytes())
                dead = frozenset(reader.lp_str() for _ in range(reader.u32()))
            except FrameError:
                return
            self.mesh_view = entries
            self.mesh_dead = dead
            self.mesh_view_seq += 1
            if self.on_mesh_view is not None:
                self.on_mesh_view(self)
            return
        sender_owns = bool(reader.u8())
        src = reader.lp_str()
        _dst = reader.lp_str()
        channel = reader.u64()
        payload = reader.lp_bytes()
        owned_by_me = not sender_owns
        key = (src, channel, owned_by_me)
        link = self._links.get(key)
        if kind in (T_OPEN, T_MSG) and link is None and not owned_by_me:
            link = LiveRoutedLink(self, src, channel, owned=False)
            link.open_payload = payload if kind == T_OPEN else b""
            self._links[key] = link
            self._accepts.put_nowait(link)
        if link is None:
            return
        if kind == T_MSG:
            link._deliver(payload)
        elif kind in (T_CLOSE, T_ERROR):
            link._deliver_eof()

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


class LiveMeshRelayClient:
    """A node's registrations with every relay of a mesh, route-table picked.

    The live twin of :class:`~repro.mesh.client.MeshRelayClient`: one
    :class:`LiveRelayClient` per relay, an observer
    :class:`~repro.mesh.state.MeshState` merged from relay-pushed
    ``T_MESH`` views, and a :class:`~repro.mesh.routes.RouteTable` that
    answers *which relay carries this link*.  When the incumbent relay
    dies its sub-client disconnects, making it unusable, and the next
    ``open_link`` — including a session's RESUME re-dial — lands on a
    survivor.
    """

    def __init__(
        self,
        node_id: str,
        relays: dict[str, Addr],
        seed=0,
        config: Optional[MeshConfig] = None,
    ):
        self.node_id = node_id
        self.config = config or DEFAULT_MESH_CONFIG
        self.state = MeshState("", self.config)
        self.table = RouteTable(self.state, self.config, usable=self._usable)
        self._rng = random.Random(f"{seed}:meshclient:{node_id}")
        self.clients: dict[str, LiveRelayClient] = {}
        for rid, addr in sorted(relays.items()):
            client = LiveRelayClient(node_id, addr)
            client.on_mesh_view = self._on_view
            self.clients[rid] = client
        self._accepts: asyncio.Queue = asyncio.Queue()
        self._pumps: list[asyncio.Task] = []
        self.closed = False
        self._reported_changes = 0

    # -- state ---------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return any(c.connected for c in self.clients.values())

    def usable_relays(self) -> list[str]:
        return [rid for rid in sorted(self.clients) if self._usable(rid)]

    def _usable(self, relay_id: str) -> bool:
        client = self.clients.get(relay_id)
        return client is not None and client.connected

    # -- lifecycle -----------------------------------------------------------
    async def connect(self) -> "LiveMeshRelayClient":
        """Register with every relay; at least one must accept us."""
        up = 0
        errors: list[str] = []
        for rid in sorted(self.clients):
            try:
                await asyncio.wait_for(
                    self.clients[rid].connect(), timeout=_PEER_IO_TIMEOUT
                )
                up += 1
            except (
                ConnectionError, OSError, EOFError, RelayError, FrameError, WireError,
                asyncio.TimeoutError,
            ) as exc:
                errors.append(f"{rid}: {type(exc).__name__}: {exc}")
        if up == 0:
            raise RelayError(f"no relay reachable: {'; '.join(errors)}")
        for rid in sorted(self.clients):
            self._pumps.append(
                asyncio.ensure_future(self._accept_pump(self.clients[rid]))
            )
        return self

    def close(self) -> None:
        self.closed = True
        for task in self._pumps:
            task.cancel()
        for client in self.clients.values():
            client.close()

    # -- mesh view -----------------------------------------------------------
    def _on_view(self, client: LiveRelayClient) -> None:
        self.state.merge(client.mesh_view, asyncio.get_running_loop().time())
        obs.metrics().gauge(
            "mesh.relays_usable", node=self.node_id, backend="live"
        ).set(len(self.usable_relays()))

    # -- links ---------------------------------------------------------------
    def pick_relay(self, peer: str) -> Optional[str]:
        """The relay id the route table would use for ``peer`` right now."""
        entry = self.table.pick(peer, rng=self._rng)
        if entry is not None and self._usable(entry.relay_id):
            return entry.relay_id
        for rid in sorted(self.clients):
            if self._usable(rid):
                return rid
        return None

    async def open_link(self, peer: str, payload: bytes = b"") -> LiveRoutedLink:
        """Open a routed link to ``peer`` through the best live relay."""
        last: Optional[Exception] = None
        for _ in range(len(self.clients) + 1):
            rid = self.pick_relay(peer)
            if rid is None:
                break
            if self.table.route_changes > self._reported_changes:
                obs.metrics().counter(
                    "mesh.route_changes_total", node=self.node_id, backend="live"
                ).inc(self.table.route_changes - self._reported_changes)
                self._reported_changes = self.table.route_changes
            try:
                link = await self.clients[rid].open_link(peer, payload=payload)
            except (ConnectionError, OSError, EOFError, RelayError) as exc:
                last = exc
                self.clients[rid].connected = False
                self.table.invalidate(rid)
                continue
            obs.event(
                "mesh.route", node=self.node_id, peer=peer, relay=rid,
                backend="live",
            )
            return link
        raise RelayError(f"no usable relay for routed open: {last}")

    async def _accept_pump(self, client: LiveRelayClient) -> None:
        """Funnel one sub-client's accepted links into the shared queue."""
        try:
            while True:
                link = await client.accept_link()
                await self._accepts.put(link)
        except asyncio.CancelledError:
            return

    async def accept_link(self) -> LiveRoutedLink:
        """Wait for a peer-initiated routed link on *any* relay."""
        return await self._accepts.get()

    def link_listener(self) -> _MeshLinkListener:
        """An ``AsyncSessionListener``-compatible listener over routed links."""
        return _MeshLinkListener(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LiveMeshRelayClient {self.node_id} usable={self.usable_relays()}>"
