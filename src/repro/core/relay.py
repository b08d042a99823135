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
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Generator, Optional

from .. import obs
from ..obs import TraceContext
from ..obs.flight import FlightRecorder
from ..simnet.engine import Event, Simulator, any_of
from ..simnet.packet import Addr
from ..simnet.sockets import SimSocket, connect, listen
from ..simnet.tcp import TcpError
from ..util.framing import ByteReader, ByteWriter, FrameError
from .links import Link
from .wire import WireError, recv_frame, send_frame

__all__ = ["RelayServer", "RelayClient", "RoutedLink", "RelayError", "MAX_MSG",
           "MAX_RELAY_FRAME"]

T_REGISTER = 1
T_REGISTER_OK = 2
T_OPEN = 3
T_MSG = 4
T_CLOSE = 5
T_ERROR = 6
T_PING = 7
#: relay<->relay anti-entropy exchange (mesh mode)
T_GOSSIP = 8
#: relay->client mesh view push (mesh mode)
T_MESH = 9
#: relay<->relay trunk hello: subsequent frames are forwarded routed bodies
T_TRUNK = 10

#: maximum payload per routed message
MAX_MSG = 32768


class RelayError(Exception):
    """Relay protocol failure (unknown peer, malformed frame, ...)."""


#: largest frame a relay connection carries: one routed message + header
MAX_RELAY_FRAME = MAX_MSG + 1024


def _routed_body(
    kind: int,
    src: str,
    dst: str,
    channel: int,
    payload: bytes = b"",
    sender_owns_channel: bool = True,
    ctx: Optional[TraceContext] = None,
) -> bytes:
    """Channel ids are allocated by the endpoint that opened the channel,
    so every frame carries whose numbering ``channel`` belongs to —
    otherwise two nodes opening channels to each other would collide on
    (peer, channel).

    OPEN frames may carry a trailing 24-byte causal trace context; the
    relay and the accepting peer parent their spans on it, which is what
    stitches a routed path's three processes into one trace.
    """
    w = (
        ByteWriter()
        .u8(kind)
        .u8(1 if sender_owns_channel else 0)
        .lp_str(src)
        .lp_str(dst)
        .u64(channel)
        .lp_bytes(payload)
    )
    if ctx is not None:
        w.raw(ctx.encode())
    return w.getvalue()


class RelayServer:
    """The relay process: registration plus frame forwarding.

    In **mesh mode** (:meth:`enable_mesh`) the relay additionally runs
    seeded anti-entropy gossip rounds with its peer relays, declares
    silent peers dead through a deadline/phi detector, pushes its
    converged view to registered clients (``T_MESH``), and forwards
    frames whose destination is registered at *another* relay over a
    point-to-point trunk connection (``T_TRUNK``).  Trunk-delivered
    frames are only ever delivered locally — never re-forwarded — so the
    overlay cannot loop.
    """

    def __init__(self, host, port: int = 4000, name: str = "relay"):
        self.host = host
        self.port = port
        self.name = name
        self.sessions: dict[str, SimSocket] = {}
        self.forwarded_messages = 0
        self.forwarded_bytes = 0
        self._listener = None
        #: always-on black box: recent registrations/routes/errors
        self.flight = FlightRecorder(name, clock=lambda: host.sim.now)
        # open routed channels, keyed (opener, acceptor, channel):
        # [open time, opener's trace context (or None), forwarded bytes]
        self._routes: dict[tuple[str, str, int], list] = {}
        # -- mesh mode (all inert until enable_mesh) --
        self.relay_id: Optional[str] = None
        self.mesh = None  # MeshState once enabled
        self._mesh_config = None
        self._mesh_peers: dict[str, Addr] = {}
        self._mesh_rng: Optional[random.Random] = None
        self._incarnation = 0
        self._gossip_token: Optional[object] = None
        #: peer relay ids this relay refuses to gossip/trunk with (fault)
        self._partitioned: set[str] = set()
        #: outgoing trunk connections, keyed by peer relay id
        self._trunks: dict[str, SimSocket] = {}
        #: accepted (incoming) trunk connections, closed on stop()
        self._trunks_in: set = set()
        #: transient sockets in flight (gossip exchanges, accepted
        #: connections awaiting classification, trunk dials mid-hello),
        #: aborted on stop() so a mid-exchange crash/teardown leaks nothing
        self._inflight_socks: set = set()
        #: frames handed to / received from trunks (debug surface)
        self.trunk_tx = 0
        self.trunk_rx = 0

    @property
    def addr(self) -> Addr:
        return (self.host.ip, self.port)

    def start(self) -> None:
        self._listener = listen(self.host, self.port, backlog=64)
        self.host.sim.process(self._accept_loop(), name="relay-accept")
        if self.mesh is not None:
            # Restart after a crash: a fresh incarnation must dominate
            # stale rumours of the previous life, and silence accumulated
            # while we were down is not evidence of anyone's death.
            self._incarnation += 1
            self.mesh.restarted(self.host.sim.now)
            self._start_gossip()

    def stop(self) -> None:
        """Crash/stop the relay: drop every session and stop accepting."""
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self._gossip_token = None
        for rid in list(self._trunks):
            self._drop_trunk(rid)
        for sock in list(self._trunks_in):
            sock.abort()
        self._trunks_in.clear()
        for sock in list(self._inflight_socks):
            sock.abort()
        self._inflight_socks.clear()
        self.flight.note("relay.stop", sessions=len(self.sessions))
        for key in list(self._routes):
            self._finish_route(key, "error", reason="relay stopped")
        for sock in list(self.sessions.values()):
            sock.abort()
        self.sessions.clear()

    # -- mesh mode -----------------------------------------------------------
    def enable_mesh(
        self,
        relay_id: str,
        peers: dict[str, Addr],
        seed,
        config=None,
    ) -> None:
        """Join the relay mesh as ``relay_id``.

        ``peers`` are the seed contacts (relay id -> address); the gossip
        partner set self-extends to any relay learned through merges, so
        a chain topology still converges end to end.
        """
        from ..mesh.config import DEFAULT_MESH_CONFIG
        from ..mesh.state import MeshState

        self.relay_id = relay_id
        self._mesh_config = config or DEFAULT_MESH_CONFIG
        self.mesh = MeshState(relay_id, self._mesh_config)
        self._mesh_peers = {
            rid: addr for rid, addr in peers.items() if rid != relay_id
        }
        self._mesh_rng = random.Random(f"{seed}:mesh:{relay_id}")
        self._incarnation += 1
        if self._listener is not None:
            self._start_gossip()

    def partition(self, peer_ids) -> None:
        """Fault hook: refuse gossip/trunks with these peer relays."""
        for rid in peer_ids:
            self._partitioned.add(rid)
            self._drop_trunk(rid)
        self.flight.note("mesh.partition", peers=sorted(self._partitioned))

    def heal_partition(self, peer_ids=None) -> None:
        healed = set(peer_ids) if peer_ids is not None else set(self._partitioned)
        self._partitioned -= healed
        self.flight.note("mesh.partition.healed", peers=sorted(healed))

    def _start_gossip(self) -> None:
        token = object()
        self._gossip_token = token
        self.host.sim.process(
            self._gossip_loop(token), name=f"mesh-gossip-{self.relay_id}"
        )

    def _gossip_loop(self, token: object) -> Generator:
        from ..mesh.state import decode_entries, encode_entries

        cfg = self._mesh_config
        reg = obs.metrics()
        while self._gossip_token is token and self._listener is not None:
            now = self.host.sim.now
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
                self.flight.note("mesh.dead", relay_id=rid)
                obs.event("mesh.relay_dead", node=self.name, relay=rid)
                self._drop_trunk(rid)
            partner = self._pick_partner()
            if partner is not None:
                partner_id, partner_addr = partner
                t0 = self.host.sim.now
                ok = True
                advanced: list[str] = []
                try:
                    sock = yield from connect(self.host, partner_addr)
                    self._inflight_socks.add(sock)
                    try:
                        yield from send_frame(
                            sock,
                            ByteWriter()
                            .u8(T_GOSSIP)
                            .lp_str(self.relay_id)
                            .lp_bytes(encode_entries(self.mesh.entries.values()))
                            .getvalue(),
                        )
                        reply = yield from recv_frame(sock, MAX_RELAY_FRAME)
                        r = ByteReader(reply)
                        if r.u8() == T_GOSSIP:
                            r.lp_str()  # sender id
                            advanced = self.mesh.merge(
                                decode_entries(r.lp_bytes()), self.host.sim.now
                            )
                    finally:
                        self._inflight_socks.discard(sock)
                        sock.close()
                except (TcpError, EOFError, RelayError, FrameError, WireError):
                    ok = False
                reg.counter("mesh.gossip_rounds_total", relay=self.relay_id).inc()
                if advanced or not ok:
                    # Only state-changing (or failed) rounds become trace
                    # spans; steady-state rounds would drown the trace.
                    obs.record_span(
                        "mesh.gossip",
                        t0,
                        self.host.sim.now,
                        node=self.name,
                        peer=partner_id,
                        outcome="ok" if ok else "unreachable",
                        advanced=len(advanced),
                    )
                changed = changed or bool(advanced)
            reg.gauge("mesh.relays_alive", relay=self.relay_id).set(
                len(self.mesh.alive())
            )
            if changed:
                yield from self._push_mesh_views()
            jitter = (
                cfg.gossip_jitter
                * cfg.gossip_interval
                * (2.0 * self._mesh_rng.random() - 1.0)
            )
            yield self.host.sim.timeout(max(cfg.gossip_interval + jitter, 0.05))

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
        from ..mesh.state import encode_entries

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

    def _push_mesh_views(self) -> Generator:
        """Best-effort view push to every registered client."""
        frame = self._mesh_view_frame()
        for sock in list(self.sessions.values()):
            try:
                yield from send_frame(sock, frame)
            except (EOFError, TcpError):
                continue  # the session loop notices and unregisters

    def _serve_gossip(self, sock: SimSocket, reader: ByteReader) -> Generator:
        """Answer one incoming anti-entropy exchange (push-pull)."""
        from ..mesh.state import decode_entries, encode_entries

        sender = reader.lp_str()
        body = reader.lp_bytes()
        if self.mesh is None or sender in self._partitioned:
            sock.close()
            return
        self._inflight_socks.add(sock)
        try:
            advanced = self.mesh.merge(decode_entries(body), self.host.sim.now)
            yield from send_frame(
                sock,
                ByteWriter()
                .u8(T_GOSSIP)
                .lp_str(self.relay_id)
                .lp_bytes(encode_entries(self.mesh.entries.values()))
                .getvalue(),
            )
            if advanced:
                yield from self._push_mesh_views()
            try:
                # wait for the initiator's close
                yield from recv_frame(sock, MAX_RELAY_FRAME)
            except (EOFError, TcpError, RelayError, FrameError, WireError):
                pass
        finally:
            self._inflight_socks.discard(sock)
            sock.close()

    def _serve_trunk(self, sock: SimSocket, reader: ByteReader) -> Generator:
        """Serve an incoming trunk: deliver forwarded bodies locally."""
        peer_relay = reader.lp_str()
        if self.mesh is None or peer_relay in self._partitioned:
            sock.close()
            return
        self.flight.note("mesh.trunk.accept", peer=peer_relay)
        self._trunks_in.add(sock)
        try:
            while True:
                body = yield from recv_frame(sock, MAX_RELAY_FRAME)
                yield from self._deliver_trunk(body, sock)
        except (EOFError, RelayError, FrameError, WireError, TcpError):
            pass
        finally:
            self._trunks_in.discard(sock)
        sock.close()

    def _deliver_trunk(self, body: bytes, trunk_sock: SimSocket) -> Generator:
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
        payload = reader.lp_bytes()
        self.trunk_rx += 1
        dest_sock = self.sessions.get(dst)
        if dest_sock is None:
            if kind != T_ERROR:  # errors about errors stop here
                yield from send_frame(
                    trunk_sock,
                    _routed_body(
                        T_ERROR, dst, src, channel, b"unknown destination",
                        sender_owns_channel=False,
                    ),
                )
            return
        self.forwarded_messages += 1
        self.forwarded_bytes += len(payload)
        reg = obs.metrics()
        reg.counter("relay.forwarded_total", backend="sim").inc()
        reg.counter("relay.forwarded_bytes_total", backend="sim").inc(len(payload))
        try:
            yield from send_frame(dest_sock, body)
        except (EOFError, TcpError):
            if self.sessions.get(dst) is dest_sock:
                del self.sessions[dst]
            dest_sock.abort()
            if kind != T_ERROR:
                yield from send_frame(
                    trunk_sock,
                    _routed_body(
                        T_ERROR, dst, src, channel, b"unknown destination",
                        sender_owns_channel=False,
                    ),
                )

    def _get_trunk(self, relay_id: str, addr: Addr) -> Generator:
        """A live outgoing trunk to ``relay_id`` (dial on first use)."""
        sock = self._trunks.get(relay_id)
        if sock is not None:
            return sock
        try:
            sock = yield from connect(self.host, addr)
            self._inflight_socks.add(sock)
            try:
                yield from send_frame(
                    sock,
                    ByteWriter().u8(T_TRUNK).lp_str(self.relay_id).getvalue(),
                )
            finally:
                self._inflight_socks.discard(sock)
        except (TcpError, EOFError):
            return None
        existing = self._trunks.get(relay_id)
        if existing is not None:
            # A concurrent forward dialed the same peer while we were
            # establishing; keep the winner, don't orphan our socket.
            sock.close()
            return existing
        self._trunks[relay_id] = sock
        self.flight.note("mesh.trunk.open", peer=relay_id)
        self.host.sim.process(
            self._trunk_reader(relay_id, sock),
            name=f"mesh-trunk-{self.relay_id}-{relay_id}",
        )
        return sock

    def _trunk_reader(self, relay_id: str, sock: SimSocket) -> Generator:
        """Read replies (routed errors, return traffic) off an outgoing trunk."""
        try:
            while True:
                body = yield from recv_frame(sock, MAX_RELAY_FRAME)
                yield from self._deliver_trunk(body, sock)
        except (EOFError, RelayError, FrameError, WireError, TcpError):
            pass
        if self._trunks.get(relay_id) is sock:
            del self._trunks[relay_id]
        sock.close()

    def _drop_trunk(self, relay_id: str) -> None:
        sock = self._trunks.pop(relay_id, None)
        if sock is not None:
            sock.abort()

    def _trunk_forward(
        self, dst: str, body: bytes, payload_len: int
    ) -> Generator:
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
        trunk = yield from self._get_trunk(owner.relay_id, owner.addr)
        if trunk is None:
            return False
        try:
            yield from send_frame(trunk, body)
        except (EOFError, TcpError):
            self._drop_trunk(owner.relay_id)
            return False
        self.trunk_tx += 1
        self.forwarded_messages += 1
        self.forwarded_bytes += payload_len
        reg = obs.metrics()
        reg.counter("relay.forwarded_total", backend="sim").inc()
        reg.counter("relay.forwarded_bytes_total", backend="sim").inc(payload_len)
        return True

    def _finish_route(self, key: tuple, outcome: str, **attrs) -> None:
        entry = self._routes.pop(key, None)
        if entry is None:
            return
        t0, ctx, nbytes = entry
        src, dst, channel = key
        obs.record_span(
            "relay.route",
            t0,
            self.host.sim.now,
            ctx=ctx,
            node=self.name,
            src=src,
            dst=dst,
            channel=channel,
            bytes=nbytes,
            outcome=outcome,
            **attrs,
        )
        self.flight.note(
            "relay.route.closed", ctx=ctx,
            src=src, dst=dst, channel=channel, bytes=nbytes, outcome=outcome,
        )

    def _accept_loop(self) -> Generator:
        from ..simnet.tcp import SocketClosed

        listener = self._listener
        try:
            while True:
                sock = yield from listener.accept()
                self.host.sim.process(self._session(sock), name="relay-session")
        except SocketClosed:
            return  # stopped

    def _session(self, sock: SimSocket) -> Generator:
        node_id: Optional[str] = None
        # Until the first frame classifies this connection it belongs to
        # no registry; track it so a stop() mid-hello leaks nothing.
        self._inflight_socks.add(sock)
        try:
            body = yield from recv_frame(sock, MAX_RELAY_FRAME)
            reader = ByteReader(body)
            first = reader.u8()
            self._inflight_socks.discard(sock)
            if first == T_GOSSIP:
                yield from self._serve_gossip(sock, reader)
                return
            if first == T_TRUNK:
                yield from self._serve_trunk(sock, reader)
                return
            if first != T_REGISTER:
                raise RelayError("expected REGISTER")
            node_id = reader.lp_str()
            if node_id in self.sessions:
                yield from send_frame(
                    sock, ByteWriter().u8(T_ERROR).lp_str("duplicate id").getvalue()
                )
                sock.close()
                return
            self.sessions[node_id] = sock
            self.flight.note("relay.register", node_id=node_id)
            yield from send_frame(sock, ByteWriter().u8(T_REGISTER_OK).getvalue())
            if self.mesh is not None:
                # New registrations learn the mesh immediately (their
                # route table needs the view before the first open).
                yield from send_frame(sock, self._mesh_view_frame())

            while True:
                body = yield from recv_frame(sock, MAX_RELAY_FRAME)
                if body and body[0] == T_PING:
                    continue  # client keepalive: refreshes middlebox state
                yield from self._forward(node_id, body, sock)
        except (EOFError, RelayError, FrameError, WireError, TcpError):
            pass
        finally:
            self._inflight_socks.discard(sock)
            if node_id is not None and self.sessions.get(node_id) is sock:
                del self.sessions[node_id]
                self.flight.note("relay.unregister", node_id=node_id)
                for key in list(self._routes):
                    if node_id in (key[0], key[1]):
                        self._finish_route(key, "error", reason="session lost")
            sock.close()

    def _forward(self, src: str, body: bytes, src_sock: SimSocket) -> Generator:
        reader = ByteReader(body)
        kind = reader.u8()
        if kind not in (T_OPEN, T_MSG, T_CLOSE):
            raise RelayError(f"unexpected frame type {kind}")
        sender_owns = bool(reader.u8())  # flag itself forwarded untouched
        claimed_src = reader.lp_str()
        dst = reader.lp_str()
        channel = reader.u64()
        payload = reader.lp_bytes()
        if claimed_src != src:
            raise RelayError("source spoofing")
        # Channel identity in the opener's numbering, both directions.
        route_key = (src, dst, channel) if sender_owns else (dst, src, channel)
        if kind == T_OPEN:
            ctx = None
            if reader.remaining:
                try:
                    ctx = TraceContext.decode(reader.raw(reader.remaining))
                except ValueError:
                    ctx = None
            # The relay's route span is its own node in the causal tree,
            # a child of the opener's establishment attempt.
            self._routes[route_key] = [
                self.host.sim.now, ctx.child() if ctx is not None else None, 0
            ]
            self.flight.note(
                "relay.route.open",
                ctx=self._routes[route_key][1],
                src=src, dst=dst, channel=channel,
            )
        dest_sock = self.sessions.get(dst)
        if dest_sock is None and self.mesh is not None:
            # Not registered here — maybe at a peer relay (trunk hop).
            sent = yield from self._trunk_forward(dst, body, len(payload))
            if sent:
                route = self._routes.get(route_key)
                if route is not None:
                    route[2] += len(payload)
                if kind == T_CLOSE:
                    self._finish_route(route_key, "ok", via="trunk")
                return
        if dest_sock is None:
            # The error goes back to the channel's opener: from their point
            # of view the channel is their own numbering.
            self._finish_route(route_key, "error", reason="unknown destination")
            yield from send_frame(
                src_sock,
                _routed_body(
                    T_ERROR, dst, src, channel, b"unknown destination",
                    sender_owns_channel=False,
                ),
            )
            return
        self.forwarded_messages += 1
        self.forwarded_bytes += len(payload)
        route = self._routes.get(route_key)
        if route is not None:
            route[2] += len(payload)
        reg = obs.metrics()
        reg.counter("relay.forwarded_total", backend="sim").inc()
        reg.counter("relay.forwarded_bytes_total", backend="sim").inc(len(payload))
        try:
            yield from send_frame(dest_sock, body)
        except (EOFError, TcpError):
            # The destination died mid-write.  That is *its* problem, not
            # the sender's: drop the dead registration and answer exactly
            # as if the destination were already unknown, keeping the
            # sender's own session alive.
            if self.sessions.get(dst) is dest_sock:
                del self.sessions[dst]
            dest_sock.abort()
            self._finish_route(route_key, "error", reason="destination died")
            yield from send_frame(
                src_sock,
                _routed_body(
                    T_ERROR, dst, src, channel, b"unknown destination",
                    sender_owns_channel=False,
                ),
            )
            return
        if kind == T_CLOSE:
            self._finish_route(route_key, "ok")


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

        def accept_loop() -> Generator:
            while True:
                sock = yield from listener.accept()
                self.probes += 1
                self.host.sim.process(self._serve(sock), name="reflect")

        self.host.sim.process(accept_loop(), name="reflector-accept")

    def _serve(self, sock: SimSocket) -> Generator:
        ip, port = sock.raddr
        yield from sock.send_all(f"{ip}:{port}".ljust(32).encode())
        yield from sock.recv(1)  # wait for client close
        sock.close()


class RoutedLink(Link):
    """A virtual stream carried as routed messages through the relay."""

    method = "routed"
    native_tcp = False
    relayed = True

    def __init__(self, client: "RelayClient", peer: str, channel: int, owned: bool = True):
        self.client = client
        self.peer = peer
        self.channel = channel
        #: True when this endpoint allocated the channel id (opener side)
        self.owned = owned
        self._buffer = bytearray()
        self._waiters: list[tuple[Event, int]] = []
        self._eof = False
        self._error: Optional[Exception] = None
        self.closed = False
        #: the T_OPEN payload (purpose tag) this channel was opened with
        self.open_payload: bytes = b""
        #: causal context the channel was opened under (rides T_OPEN)
        self.ctx: Optional[TraceContext] = None

    @property
    def sim(self):
        return self.client.sim

    # -- data from the relay ---------------------------------------------------
    def _deliver(self, payload: bytes) -> None:
        self._buffer.extend(payload)
        self._wake()

    def _deliver_eof(self) -> None:
        self._eof = True
        self._wake()

    def _deliver_error(self, exc: Exception) -> None:
        self._error = exc
        self._eof = True
        self._wake()

    def _wake(self) -> None:
        while self._waiters and (self._buffer or self._eof):
            ev, maxbytes = self._waiters.pop(0)
            if self._buffer:
                take = bytes(self._buffer[:maxbytes])
                del self._buffer[: len(take)]
                ev.succeed(take)
            elif self._error is not None:
                ev.fail(self._error)
            else:
                ev.succeed(b"")

    # -- Link interface ----------------------------------------------------------
    def send_all(self, data: bytes) -> Generator:
        if self.closed:
            raise RelayError("send on closed routed link")
        for offset in range(0, len(data), MAX_MSG):
            chunk = bytes(data[offset : offset + MAX_MSG])
            yield from self.client._send_routed(
                T_MSG, self.peer, self.channel, chunk, owned=self.owned
            )

    def recv(self, maxbytes: int) -> Generator:
        ev: Event = self.client.sim.event()
        if self._buffer or self._eof:
            self._waiters.append((ev, maxbytes))
            self._wake()
        else:
            self._waiters.append((ev, maxbytes))
        data = yield ev
        return data

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.client._close_channel(self)
        # Local readers see EOF too (same as when the relay session dies),
        # so a pump parked on recv() cannot leak past the link's lifetime.
        self._deliver_eof()

    def abort(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.client._close_channel(self)
        self._deliver_error(RelayError("routed link aborted"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RoutedLink to {self.peer} ch={self.channel}>"


class RelayClient:
    """A node's connection to the relay; demultiplexes routed links.

    ``connector`` customizes how the relay itself is reached (e.g. through
    a SOCKS proxy on a severely firewalled site); it is a generator
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
        from .retry import RetryPolicy

        self.host = host
        self.sim: Simulator = host.sim
        self.node_id = node_id
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
        self._sock: Optional[SimSocket] = None
        # key: (peer, channel, owned_by_me)
        self._links: dict[tuple[str, int, bool], RoutedLink] = {}
        self._accept_queue: list[RoutedLink] = []
        self._accept_waiters: list[Event] = []
        self._connect_waiters: list[Event] = []
        self._channel_ids = itertools.count(1)
        self.connected = False
        #: True once :meth:`close` was called (suppresses reconnection)
        self.closed = False
        #: successful re-registrations after a lost session
        self.reconnects = 0
        #: latest relay-pushed mesh view (mesh mode; empty otherwise)
        self.mesh_view: list = []
        self.mesh_dead: frozenset = frozenset()
        self.mesh_view_seq = 0
        #: callback fired (with this client) on every new mesh view
        self.on_mesh_view: Optional[Callable[["RelayClient"], None]] = None

    # -- lifecycle -----------------------------------------------------------
    def connect(self) -> Generator:
        """Register with the relay and start the demux loop."""
        self.closed = False
        if self.connector is not None:
            self._sock = yield from self.connector(self.host, self.relay_addr)
        else:
            self._sock = yield from connect(self.host, self.relay_addr)
        yield from send_frame(
            self._sock, ByteWriter().u8(T_REGISTER).lp_str(self.node_id).getvalue()
        )
        body = yield from recv_frame(self._sock, MAX_RELAY_FRAME)
        if ByteReader(body).u8() != T_REGISTER_OK:
            raise RelayError(f"registration rejected: {body!r}")
        self.connected = True
        for ev in self._connect_waiters:
            ev.succeed(self)
        self._connect_waiters.clear()
        self.sim.process(self._reader(), name=f"relay-client-{self.node_id}")
        if self.keepalive > 0:
            self.sim.process(
                self._keepalive_loop(self._sock),
                name=f"relay-keepalive-{self.node_id}",
            )
        return self

    def wait_connected(self, timeout: float = 30.0) -> Generator:
        """Wait until the client holds a live relay registration."""
        if self.connected:
            return self
        if self.closed:
            raise RelayError("relay client closed")
        ev = self.sim.event()
        self._connect_waiters.append(ev)
        expiry = self.sim.timeout(timeout)
        result = yield any_of(self.sim, [ev, expiry])
        if ev in result:
            return self
        try:
            self._connect_waiters.remove(ev)
        except ValueError:
            pass
        raise TimeoutError(f"relay connection not up within {timeout}s")

    def close(self) -> None:
        self.closed = True
        self.connected = False
        if self._sock is not None:
            self._sock.close()
        for link in list(self._links.values()):
            link._deliver_eof()

    def drop(self) -> None:
        """Fault-injection hook: sever the relay session abruptly.

        Unlike :meth:`close` this looks like a network failure — the
        session socket is reset, the relay sees the peer disappear
        mid-conversation, and (with ``auto_reconnect``) the client will
        try to re-register.
        """
        if self._sock is not None:
            self._sock.abort()

    def _keepalive_loop(self, sock: SimSocket) -> Generator:
        """Ping the relay periodically while this registration is alive."""
        while True:
            yield self.sim.timeout(self.keepalive)
            if self.closed or not self.connected or self._sock is not sock:
                return
            try:
                yield from send_frame(sock, bytes([T_PING]))
            except (EOFError, TcpError, RelayError):
                return  # the reader notices the loss and handles it

    # -- outgoing ---------------------------------------------------------------
    def _send_routed(
        self,
        kind: int,
        peer: str,
        channel: int,
        payload: bytes,
        owned: bool = True,
        ctx: Optional[TraceContext] = None,
    ) -> Generator:
        if self._sock is None:
            raise RelayError("relay client not connected")
        yield from send_frame(
            self._sock,
            _routed_body(
                kind, self.node_id, peer, channel, payload,
                sender_owns_channel=owned, ctx=ctx,
            ),
        )

    def open_link(
        self, peer: str, payload: bytes = b"",
        ctx: Optional[TraceContext] = None,
    ) -> Generator:
        """Open a routed link to ``peer`` (optimistic, like the paper's
        request forwarding; an unknown peer surfaces as a link error).

        ``payload`` tags the channel's purpose for the peer's dispatcher
        (e.g. ``b"service"`` vs ``b"data:<nonce>"``).  ``ctx`` rides the
        OPEN frame so the relay and the peer join this trace.
        """
        channel = next(self._channel_ids)
        link = RoutedLink(self, peer, channel, owned=True)
        link.open_payload = payload
        link.ctx = ctx
        self._links[(peer, channel, True)] = link
        obs.event(
            "relay.open", ctx=ctx, node=self.node_id, peer=peer, channel=channel
        )
        yield from self._send_routed(T_OPEN, peer, channel, payload, owned=True, ctx=ctx)
        return link

    def accept_link(self) -> Generator:
        """Wait for a peer-initiated routed link."""
        ev = self.sim.event()
        if self._accept_queue:
            ev.succeed(self._accept_queue.pop(0))
        else:
            self._accept_waiters.append(ev)
        link = yield ev
        return link

    def _close_channel(self, link: RoutedLink) -> None:
        self._links.pop((link.peer, link.channel, link.owned), None)
        if not self.connected:
            return

        def notify() -> Generator:
            # Best-effort: the relay session may die under us mid-frame
            # (crash, reset) — the peer learns about the close from its
            # own session loss in that case.
            try:
                yield from self._send_routed(
                    T_CLOSE, link.peer, link.channel, b"", owned=link.owned
                )
            except (EOFError, TcpError, RelayError):
                pass

        self.sim.process(notify(), name="routed-close")

    # -- incoming ----------------------------------------------------------------
    def _reader(self) -> Generator:
        from ..simnet.tcp import TcpError

        try:
            while True:
                body = yield from recv_frame(self._sock, MAX_RELAY_FRAME)
                self._dispatch(body)
        except (EOFError, RelayError, FrameError, WireError, TcpError) as exc:
            # Relay unreachable/crashed: every routed link is dead.  Close
            # our half too, so a FIN'd session can't linger in CLOSE_WAIT.
            self.connected = False
            if self._sock is not None:
                self._sock.close()
            for link in list(self._links.values()):
                link._deliver_eof()
            if self.auto_reconnect and not self.closed:
                obs.event(
                    "relay.client.lost",
                    node=self.node_id,
                    error=f"{type(exc).__name__}: {exc}",
                )
                self.sim.process(
                    self._reconnect_loop(),
                    name=f"relay-reconnect-{self.node_id}",
                )

    def _reconnect_loop(self) -> Generator:
        """Re-register with (jittered, bounded) backoff after a lost session."""
        from ..simnet.tcp import TcpError
        from .retry import RetryExhausted, retrying

        def attempt(_i: int) -> Generator:
            if self.closed:
                return None
            return (yield from self.connect())

        try:
            yield from retrying(
                self.sim,
                attempt,
                self.reconnect_policy,
                retry_on=(TcpError, RelayError, FrameError, WireError, EOFError),
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

    def _dispatch(self, body: bytes) -> None:
        reader = ByteReader(body)
        kind = reader.u8()
        if kind == T_MESH:
            from ..mesh.state import decode_entries

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
        try:
            sender_owns = bool(reader.u8())
            src = reader.lp_str()
            _dst = reader.lp_str()
            channel = reader.u64()
            payload = reader.lp_bytes()
        except FrameError:
            return
        ctx = None
        if kind == T_OPEN and reader.remaining:
            try:
                ctx = TraceContext.decode(reader.raw(reader.remaining))
            except ValueError:
                ctx = None
        # The frame names the channel in its owner's numbering: if the
        # sender owns it, locally it is a not-owned (accepted) channel.
        owned_by_me = not sender_owns
        key = (src, channel, owned_by_me)
        link = self._links.get(key)
        if kind == T_ERROR:
            if link is not None:
                link._deliver_error(RelayError(payload.decode("utf-8", "replace")))
            return
        if kind == T_OPEN:
            if link is None:
                link = RoutedLink(self, src, channel, owned=owned_by_me)
                link.open_payload = payload
                link.ctx = ctx
                self._links[key] = link
                if self._accept_waiters:
                    self._accept_waiters.pop(0).succeed(link)
                else:
                    self._accept_queue.append(link)
            return
        if link is None and kind == T_MSG and not owned_by_me:
            # Data for an unseen peer-opened channel: implicit open.
            link = RoutedLink(self, src, channel, owned=False)
            self._links[key] = link
            if self._accept_waiters:
                self._accept_waiters.pop(0).succeed(link)
            else:
                self._accept_queue.append(link)
        if link is None:
            return
        if kind == T_MSG:
            link._deliver(payload)
        elif kind == T_CLOSE:
            link._deliver_eof()
