"""The routed-messages relay protocol as sans-IO state machines.

Every relay decision of paper §3.3 / Figure 3 — who is registered, where a
routed frame goes next, what the mesh believes, which link a frame from
the relay belongs to — is made here, exactly once, by objects that know
nothing of simulator events or event loops.  A binding
(:mod:`repro.core.relay`, :mod:`repro.livenet.relay`,
:mod:`repro.mesh.client`) adds only IO: listen/accept/dial, one read loop
per connection, the hop loop, timers and waiters.  ``docs/MESH.md`` has
the contract between the two.

Wire format (one u32-length-prefixed frame each, integers big-endian,
``str`` = u32 length + UTF-8, ``bytes`` = u32 length + data)::

    REGISTER    = u8(1) str(node_id)                 # node -> relay, first frame
    REGISTER_OK = u8(2)
    OPEN        = u8(3) routed [ctx24]               # ctx: the opener's trace context
    MSG         = u8(4) routed                       # payload <= MAX_MSG
    CLOSE       = u8(5) routed
    ERROR       = u8(6) routed                       # payload = reason, relay -> node
                | u8(6) str(reason)                  # registration refused
    PING        = u8(7)                              # node -> relay keepalive, absorbed
    GOSSIP      = u8(8) str(relay_id) bytes(entries) # relay <-> relay, push-pull
    MESH        = u8(9) bytes(alive entries) u32(n) str(dead id)*n   # relay -> node
    TRUNK       = u8(10) str(relay_id)               # relay -> relay, first frame;
                                                     # then routed frames both ways
    routed      = u8(sender_owns_channel) str(src) str(dst) u64(channel) bytes(payload)

Channel ids are allocated by the endpoint that opened the channel, so every
routed frame carries whose numbering ``channel`` belongs to — otherwise two
nodes opening channels to each other would collide on (peer, channel).
"""

from __future__ import annotations

import itertools
import random
import struct
from typing import Callable, NamedTuple, Optional

from .. import obs
from ..mesh.config import DEFAULT_MESH_CONFIG, MeshConfig
from ..mesh.routes import RouteTable
from ..mesh.state import MeshState, decode_entries, encode_entries
from ..obs import TraceContext
from ..obs.flight import FlightRecorder
from ..util import sizes
from ..util.bytesbuf import ByteQueue, prepend, size, split
from ..util.framing import ByteReader, ByteWriter, FrameError

__all__ = ["RelayCore", "RelayClientCore", "RoutedChannel", "MeshSelection",
           "Hop", "GossipRound", "RelayError", "MAX_MSG", "MAX_RELAY_FRAME",
           "PING_FRAME", "routed_body", "parse_routed"]

T_REGISTER = 1
T_REGISTER_OK = 2
T_OPEN = 3
T_MSG = 4
T_CLOSE = 5
T_ERROR = 6
T_PING = 7
T_GOSSIP = 8
T_MESH = 9
T_TRUNK = 10

#: maximum payload per routed message: one full session DATA frame with
#: the ACK it may carry, so the layer above never costs two messages here
MAX_MSG = sizes.RELAY_MAX_MSG
#: largest frame a relay connection carries: one routed message + header
MAX_RELAY_FRAME = sizes.MAX_RELAY_FRAME

#: a registered node's keepalive: refreshes middlebox state, carries nothing
PING_FRAME = bytes([T_PING])
_REGISTER_OK_FRAME = bytes([T_REGISTER_OK])

#: the reason a relay gives for every frame it cannot deliver
_UNKNOWN = b"unknown destination"
#: gossip never spins faster than this, whatever the configured jitter
_GOSSIP_FLOOR = 0.02

_U32 = struct.Struct("!I")
_CHANNEL_AND_LEN = struct.Struct("!QI")


class RelayError(Exception):
    """Relay protocol failure (unknown peer, malformed frame, ...)."""


def routed_body(
    kind: int,
    src: str,
    dst: str,
    channel: int,
    payload=b"",
    sender_owns_channel: bool = True,
    ctx: Optional[TraceContext] = None,
):
    """Encode one routed frame; ``payload`` is one buffer or a buffer list,
    and a large one stays by reference behind the header (a buffer list,
    :func:`~repro.util.bytesbuf.prepend`).

    OPEN frames may carry a trailing 24-byte causal trace context; the
    relay and the accepting peer parent their spans on it, which is what
    stitches a routed path's three processes into one trace.
    """
    s, d = src.encode("utf-8"), dst.encode("utf-8")
    head = struct.pack(
        f"!BBI{len(s)}sI{len(d)}sQI",
        kind, 1 if sender_owns_channel else 0, len(s), s, len(d), d,
        channel, len(payload) if type(payload) is not list else size(payload),
    )
    if ctx is not None:  # an OPEN: its payload is a purpose tag
        return b"".join((head, payload, ctx.encode()))
    return prepend(head, payload)


def parse_routed(body: bytes) -> tuple:
    """Decode a routed frame's header without touching its payload.

    Returns ``(kind, sender_owns, src, dst, channel, start, end)`` where
    ``body[start:end]`` is the payload and anything past ``end`` an OPEN's
    trace context.  Raises :class:`FrameError` on anything malformed.
    """
    try:
        a = 6 + _U32.unpack_from(body, 2)[0]
        b = a + 4 + _U32.unpack_from(body, a)[0]
        channel, length = _CHANNEL_AND_LEN.unpack_from(body, b)
        end = b + 12 + length
        if end > len(body):
            raise FrameError(f"truncated routed payload: {end} > {len(body)}")
        return (body[0], body[1] != 0, str(body[6:a], "utf-8"),
                str(body[a + 4:b], "utf-8"), channel, b + 12, end)
    except (struct.error, UnicodeDecodeError) as exc:
        raise FrameError(f"malformed routed frame: {exc}") from None


def _open_ctx(body: bytes, end: int) -> Optional[TraceContext]:
    """The trace context trailing an OPEN, if there is a well-formed one."""
    if len(body) > end:
        try:
            return TraceContext.decode(body[end:])
        except ValueError:
            pass
    return None


class Hop:
    """One write the binding owes: ``frame`` to ``conn``.

    ``conn`` is None for a trunk hop until the binding has looked up or
    dialled the trunk toward ``trunk = (relay_id, addr)`` and stored it
    here.  ``origin`` is the connection the frame came in on, where an
    error about it goes; ``head`` is the parsed header of the frame being
    forwarded, None when this hop *is* that error — the last resort, whose
    failure means the origin itself is gone and is the caller's to raise.
    """

    __slots__ = ("conn", "trunk", "frame", "origin", "head", "key")

    def __init__(self, conn, frame, origin, head=None, key=None, trunk=None):
        self.conn = conn
        self.trunk = trunk
        self.frame = frame
        self.origin = origin
        self.head = head
        self.key = key

    @property
    def last(self) -> bool:
        return self.head is None


class GossipRound(NamedTuple):
    """What :meth:`RelayCore.gossip_begin` decided; handed back to
    :meth:`RelayCore.gossip_end`.  ``partner`` is None when nobody is
    eligible this round."""

    partner: Optional[str]
    addr: Optional[tuple]
    t0: float
    changed: bool


class RelayCore:
    """The relay's decisions: registration, routing, and the mesh.

    A binding subclasses this and supplies ``addr`` (the advertised
    listener address), ``running`` (is the listener up), ``_start_gossip()``
    (start the round loop) and the IO described on each method.
    Connections are opaque handles the core stores and compares by
    identity; the only thing it ever does to one is ``abort()`` it.

    In **mesh mode** (:meth:`enable_mesh`) the relay runs seeded
    anti-entropy gossip rounds with its peer relays, declares silent peers
    dead through a deadline/phi detector, pushes its converged view to
    registered clients (``T_MESH``), and forwards frames whose destination
    is registered at *another* relay over a point-to-point trunk
    (``T_TRUNK``).  Trunk-delivered frames are only ever delivered locally
    — never re-forwarded — so the overlay cannot loop.
    """

    # what classify() makes of a fresh connection's first frame
    REGISTER = "register"
    GOSSIP = "gossip"
    TRUNK = "trunk"
    _ROLES = {T_REGISTER: REGISTER, T_GOSSIP: GOSSIP, T_TRUNK: TRUNK}

    def __init__(self, name: str, clock: Callable[[], float]):
        self.name = name
        self.clock = clock
        #: node id -> its registered connection
        self.sessions: dict = {}
        self.forwarded_messages = 0
        #: payload bytes handed on (local delivery or trunk)
        self.forwarded_bytes = 0
        #: frames handed to / received from trunks
        self.trunk_tx = 0
        self.trunk_rx = 0
        #: always-on black box: recent registrations/routes/errors
        self.flight = FlightRecorder(name, clock=lambda: self.clock())
        # open routed channels, keyed (opener, acceptor, channel):
        # [open time, the relay's child of the opener's context, bytes]
        self._routes: dict[tuple, list] = {}
        reg = obs.metrics()
        self._m_forwarded = reg.counter("relay.forwarded_total")
        self._m_forwarded_bytes = reg.counter("relay.forwarded_bytes_total")
        # -- mesh mode (all inert until enable_mesh) --
        self.relay_id: Optional[str] = None
        self.mesh: Optional[MeshState] = None
        self._mesh_config: Optional[MeshConfig] = None
        self._mesh_peers: dict[str, tuple] = {}
        self._mesh_rng: Optional[random.Random] = None
        self._incarnation = 0
        #: peer relay ids this relay refuses to gossip/trunk with (fault)
        self._partitioned: set[str] = set()
        #: dialled trunks by peer relay id, and accepted ones
        self._trunks: dict = {}
        self._trunks_in: set = set()

    # -- connections ---------------------------------------------------------
    def classify(self, body: bytes) -> tuple:
        """What a connection's first frame makes it: ``(role, peer, rest)``
        with ``peer`` the node or relay id it announces and ``rest`` a
        GOSSIP's entries."""
        reader = ByteReader(body)
        kind = reader.u8()
        role = self._ROLES.get(kind)
        if role is None:
            raise RelayError("expected REGISTER")
        peer = reader.lp_str()
        return role, peer, reader.lp_bytes() if kind == T_GOSSIP else b""

    def register(self, node_id: str, conn) -> tuple:
        """``(accepted, frames to write)``; a refused connection is the
        binding's to close once the frames are out."""
        if node_id in self.sessions:
            return False, [
                ByteWriter().u8(T_ERROR).lp_str("duplicate id").getvalue()]
        self.sessions[node_id] = conn
        self.flight.note("relay.register", node_id=node_id)
        frames = [_REGISTER_OK_FRAME]
        if self.mesh is not None:
            # New registrations learn the mesh immediately (their route
            # table needs the view before the first open).
            frames.append(self._mesh_view_frame())
        return True, frames

    def unregister(self, node_id: str, conn) -> None:
        """``conn`` ended: forget the registration if it is still this one,
        and close every route through the node as an error."""
        if self.sessions.get(node_id) is not conn:
            return
        del self.sessions[node_id]
        self.flight.note("relay.unregister", node_id=node_id)
        for key in list(self._routes):
            if node_id in (key[0], key[1]):
                self._finish_route(key, "error", reason="session lost")

    def _drop_sessions(self) -> None:
        """The relay stops: every open route errors, every session dies."""
        self.flight.note("relay.stop", sessions=len(self.sessions))
        for key in list(self._routes):
            self._finish_route(key, "error", reason="relay stopped")
        for conn in list(self.sessions.values()):
            conn.abort()
        self.sessions.clear()

    # -- routing -------------------------------------------------------------
    def route(self, src: str, body: bytes, origin) -> Optional[Hop]:
        """Where a frame from registered node ``src`` goes (None: nowhere,
        it was a keepalive).  Raises for a frame a node may not send."""
        if body and body[0] == T_PING:
            return None
        head = parse_routed(body)
        kind, sender_owns, claimed_src, dst, channel, _start, end = head
        if kind not in (T_OPEN, T_MSG, T_CLOSE):
            raise RelayError(f"unexpected frame type {kind}")
        if claimed_src != src:
            raise RelayError("source spoofing")
        # Channel identity in the opener's numbering, both directions.
        key = (src, dst, channel) if sender_owns else (dst, src, channel)
        if kind == T_OPEN:
            ctx = _open_ctx(body, end)
            # The relay's route span is its own node in the causal tree,
            # a child of the opener's establishment attempt.
            ctx = ctx.child() if ctx is not None else None
            self._finish_route(key, "error", reason="reopened")
            self._routes[key] = [self.clock(), ctx, 0]
            self.flight.note("relay.route.open", ctx=ctx,
                             src=src, dst=dst, channel=channel)
        conn = self.sessions.get(dst)
        if conn is not None:
            return self._local_hop(conn, body, origin, head, key)
        owner = self._trunk_owner(dst)
        if owner is not None:
            return Hop(None, body, origin, head, key, trunk=owner)
        self._finish_route(key, "error", reason="unknown destination")
        return self._refusal(origin, head)

    def route_trunk(self, body: bytes, origin) -> Optional[Hop]:
        """Where a frame that arrived over trunk ``origin`` goes: to a local
        node or nowhere.  Trunk frames are never re-forwarded to another
        relay — the loop-prevention rule of the overlay — so an unknown
        destination becomes a routed error back over the same trunk, which
        the origin relay delivers to the sender."""
        head = parse_routed(body)
        if head[0] not in (T_OPEN, T_MSG, T_CLOSE, T_ERROR):
            raise RelayError(f"unexpected trunk frame type {head[0]}")
        self.trunk_rx += 1
        conn = self.sessions.get(head[3])
        if conn is not None:
            return self._local_hop(conn, body, origin, head)
        return self._refusal(origin, head)

    def _local_hop(self, conn, body, origin, head, key=None) -> Hop:
        hop = Hop(conn, body, origin, head, key)
        self._forwarded(hop)
        return hop

    def hop_done(self, hop: Hop) -> None:
        """The hop's frame was written."""
        if hop.last:
            return  # an error reply is not forwarded traffic
        if hop.trunk is not None:
            self.trunk_tx += 1
            self._forwarded(hop)
        if hop.head[0] == T_CLOSE:
            via = {"via": "trunk"} if hop.trunk is not None else {}
            self._finish_route(hop.key, "ok", **via)

    def _forwarded(self, hop: Hop) -> None:
        """Count a frame as forwarded: when it is handed to a registered
        connection's write, or once a trunk has taken it (a trunk that
        fails forwards nothing; the frame becomes an error instead)."""
        nbytes = hop.head[6] - hop.head[5]
        self.forwarded_messages += 1
        self.forwarded_bytes += nbytes
        self._m_forwarded.inc()
        self._m_forwarded_bytes.inc(nbytes)
        route = self._routes.get(hop.key)
        if route is not None:
            route[2] += nbytes

    def hop_failed(self, hop: Hop) -> Optional[Hop]:
        """The write (or the trunk dial) failed: the next hop to try.

        A dead destination is *its* problem, not the sender's: drop the
        dead registration or trunk and answer exactly as if the destination
        had been unknown all along, keeping the sender's connection alive.
        """
        if hop.trunk is not None:
            relay_id = hop.trunk[0]
            if hop.conn is not None and self._trunks.get(relay_id) is hop.conn:
                self._drop_trunk(relay_id)
            self._finish_route(hop.key, "error", reason="unknown destination")
        else:
            self._finish_route(hop.key, "error", reason="destination died")
            self.unregister(hop.head[3], hop.conn)
            hop.conn.abort()
        return self._refusal(hop.origin, hop.head)

    def _refusal(self, origin, head: tuple) -> Optional[Hop]:
        """The ``unknown destination`` reply to ``origin``; errors about
        errors stop here.  The error keeps the channel in its opener's
        numbering, so its ownership flag is the refused frame's, inverted:
        an error about the opener's frame reaches the opener's link, one
        about the acceptor's frame the acceptor's."""
        kind, owns, src, dst, channel = head[:5]
        if kind == T_ERROR:
            return None
        return Hop(origin, routed_body(
            T_ERROR, dst, src, channel, _UNKNOWN, sender_owns_channel=not owns),
            origin)

    def _finish_route(self, key: Optional[tuple], outcome: str, **attrs) -> None:
        entry = self._routes.pop(key, None)
        if entry is None:
            return
        t0, ctx, nbytes = entry
        src, dst, channel = key
        obs.record_span(
            "relay.route", t0, self.clock(), ctx=ctx, node=self.name,
            src=src, dst=dst, channel=channel, bytes=nbytes, outcome=outcome,
            **attrs,
        )
        self.flight.note(
            "relay.route.closed", ctx=ctx,
            src=src, dst=dst, channel=channel, bytes=nbytes, outcome=outcome,
        )

    # -- trunks --------------------------------------------------------------
    def _trunk_owner(self, dst: str) -> Optional[tuple]:
        """``(relay_id, addr)`` of the peer relay ``dst`` is registered at,
        if the mesh knows one this relay may talk to."""
        if self.mesh is None:
            return None
        owner = self.mesh.owner_of(dst)
        if (owner is None or owner.relay_id == self.relay_id
                or owner.relay_id in self._partitioned):
            return None
        return owner.relay_id, owner.addr

    def trunk_hello(self) -> bytes:
        """The first frame on a trunk this relay dialled."""
        return ByteWriter().u8(T_TRUNK).lp_str(self.relay_id).getvalue()

    def trunk_dialed(self, relay_id: str, conn):
        """``conn`` said hello to ``relay_id``: the trunk to use from now on.

        A concurrent forward may have dialled the same peer meanwhile; the
        first to finish wins and the loser — returned is not ``conn`` — is
        the binding's to close, so no socket or reader is orphaned.
        """
        kept = self._trunks.setdefault(relay_id, conn)
        if kept is conn:
            self.flight.note("mesh.trunk.open", peer=relay_id)
        return kept

    def trunk_accepted(self, relay_id: str, conn) -> bool:
        """A peer relay dialled us; False refuses it (the binding closes)."""
        if self.mesh is None or relay_id in self._partitioned:
            return False
        self.flight.note("mesh.trunk.accept", peer=relay_id)
        self._trunks_in.add(conn)
        return True

    def trunk_lost(self, conn, relay_id: Optional[str] = None) -> None:
        """A trunk's read loop ended (``relay_id`` set if we dialled it)."""
        self._trunks_in.discard(conn)
        if self._trunks.get(relay_id) is conn:
            del self._trunks[relay_id]

    def _drop_trunk(self, relay_id: str) -> None:
        conn = self._trunks.pop(relay_id, None)
        if conn is not None:
            conn.abort()

    def _drop_trunks(self) -> None:
        for relay_id in list(self._trunks):
            self._drop_trunk(relay_id)
        for conn in list(self._trunks_in):
            conn.abort()
        self._trunks_in.clear()

    # -- mesh mode -----------------------------------------------------------
    def enable_mesh(self, relay_id: str, peers: dict, seed,
                    config: Optional[MeshConfig] = None) -> None:
        """Join the relay mesh as ``relay_id``.

        ``peers`` are the seed contacts (relay id -> address); the gossip
        partner set self-extends to any relay learned through merges, so
        a chain topology still converges end to end.
        """
        self.relay_id = relay_id
        self._mesh_config = config or DEFAULT_MESH_CONFIG
        self.mesh = MeshState(relay_id, self._mesh_config)
        self._mesh_peers = {
            rid: addr for rid, addr in peers.items() if rid != relay_id
        }
        self._mesh_rng = random.Random(f"{seed}:mesh:{relay_id}")
        self._incarnation += 1
        reg = obs.metrics()
        self._m_rounds = reg.counter("mesh.gossip_rounds_total", relay=relay_id)
        self._m_alive = reg.gauge("mesh.relays_alive", relay=relay_id)
        if self.running:
            self._start_gossip()

    def started(self) -> None:
        """The listener is up.  After a crash, a fresh incarnation must
        dominate stale rumours of the previous life, and silence
        accumulated while we were down is not evidence of anyone's death."""
        if self.mesh is not None:
            self._incarnation += 1
            self.mesh.restarted(self.clock())
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

    def gossip_begin(self) -> GossipRound:
        """Open an anti-entropy round: bump our heartbeat, sweep the
        detector (trunks to the newly dead are dropped), pick a partner.

        The binding dials ``addr``, writes :meth:`gossip_frame` (built at
        write time: a merge may land while dialling), reads one frame, closes,
        and hands the reply — None if any of that failed — to
        :meth:`gossip_end`.
        """
        now = self.clock()
        self.mesh.refresh_self(
            now, self.addr, load=len(self.sessions),
            nodes=self.sessions.keys(), incarnation=self._incarnation,
        )
        newly_dead = self.mesh.sweep(now)
        for rid in newly_dead:
            self.flight.note("mesh.dead", relay_id=rid)
            obs.event("mesh.relay_dead", node=self.name, relay=rid)
            self._drop_trunk(rid)
        partner, addr = self._pick_partner() or (None, None)
        return GossipRound(partner, addr, now, bool(newly_dead))

    def gossip_end(self, rnd: GossipRound, reply: Optional[bytes]) -> bool:
        """Close the round with the partner's ``reply`` (None: unreachable);
        True when the view moved and registered clients need a push."""
        advanced: list = []
        if rnd.partner is not None:
            ok = reply is not None
            if ok:
                try:
                    reader = ByteReader(reply)
                    if reader.u8() == T_GOSSIP:
                        reader.lp_str()  # sender id
                        advanced = self.mesh.merge(
                            decode_entries(reader.lp_bytes()), self.clock())
                except FrameError:
                    ok = False
            self._m_rounds.inc()
            if advanced or not ok:
                # Only state-changing (or failed) rounds become trace
                # spans; steady-state rounds would drown the trace.
                obs.record_span(
                    "mesh.gossip", rnd.t0, self.clock(), node=self.name,
                    peer=rnd.partner, advanced=len(advanced),
                    outcome="ok" if ok else "unreachable",
                )
        self._m_alive.set(len(self.mesh.alive()))
        return rnd.changed or bool(advanced)

    def gossip_delay(self) -> float:
        """Seconds to sleep before the next round (seeded jitter)."""
        cfg = self._mesh_config
        jitter = (cfg.gossip_jitter * cfg.gossip_interval
                  * (2.0 * self._mesh_rng.random() - 1.0))
        return max(cfg.gossip_interval + jitter, _GOSSIP_FLOOR)

    def gossip_frame(self) -> bytes:
        return (ByteWriter().u8(T_GOSSIP).lp_str(self.relay_id)
                .lp_bytes(encode_entries(self.mesh.entries.values()))
                .getvalue())

    def gossip_answer(self, sender: str, entries: bytes) -> Optional[tuple]:
        """Answer a peer's exchange (push-pull): ``(reply frame, view
        moved?)``, or None to refuse it (the binding just closes)."""
        if self.mesh is None or sender in self._partitioned:
            return None
        advanced = self.mesh.merge(decode_entries(entries), self.clock())
        return self.gossip_frame(), bool(advanced)

    def _pick_partner(self) -> Optional[tuple]:
        """A seeded-random live gossip partner (seeds + learned relays)."""
        candidates: dict[str, tuple] = dict(self._mesh_peers)
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
        """The ``T_MESH`` push: live entries plus the ids declared dead."""
        dead = sorted(self.mesh.dead)
        w = (ByteWriter().u8(T_MESH)
             .lp_bytes(encode_entries(self.mesh.alive())).u32(len(dead)))
        for rid in dead:
            w.lp_str(rid)
        return w.getvalue()


class RoutedChannel:
    """One routed virtual stream's state, either end.

    A binding adds the stream surface (``send_all``/``recv``) and
    overrides :meth:`_wake` to let parked readers re-check :meth:`take`.
    """

    def __init__(self, client: "RelayClientCore", peer: str, channel: int,
                 owned: bool = True):
        self.client = client
        self.peer = peer
        self.channel = channel
        #: True when this endpoint allocated the channel id (opener side)
        self.owned = owned
        #: received payloads not yet read: a large one stays a view of the
        #: frame it arrived in
        self._buffer = ByteQueue()
        self._eof = False
        self._error: Optional[Exception] = None
        self.closed = False
        #: the T_OPEN payload (purpose tag) this channel was opened with
        self.open_payload: bytes = b""
        #: causal context the channel was opened under (rides T_OPEN)
        self.ctx: Optional[TraceContext] = None

    def _wake(self) -> None:
        """Binding hook: :meth:`take` may have something new to say."""

    def _deliver_eof(self) -> None:
        self._eof = True
        self._wake()

    def _deliver_error(self, exc: Exception) -> None:
        self._error = exc
        self._deliver_eof()

    def take(self, maxbytes: int) -> Optional[bytes]:
        """Up to ``maxbytes`` of received data, ``b""`` at EOF (the error,
        raised, if the stream ended with one), None to wait for a wake.  A
        large payload is read as views of the frame it arrived in, out of
        one payload at a time (:class:`~repro.util.bytesbuf.ByteQueue`)."""
        buf = self._buffer
        if not buf:
            if self._error is not None:
                raise self._error
            return b"" if self._eof else None
        return buf.take(maxbytes)

    def msg_frame(self, chunk):
        """The frame carrying ``chunk`` (at most MAX_MSG bytes, one buffer
        or a buffer list) to the peer."""
        return routed_body(T_MSG, self.client.node_id, self.peer, self.channel,
                           chunk, sender_owns_channel=self.owned)

    def msg_frames(self, data) -> list:
        """The frames carrying ``data`` (one buffer or a buffer list) to the
        peer, in order: ``MAX_MSG`` bytes apiece, none a runt; a large
        chunk goes into its frame by reference, a small one is copied."""
        frames = []
        left = len(data) if type(data) is not list else size(data)
        while left:
            n = sizes.cut(left, MAX_MSG)
            left -= n
            chunk, data = split(data, n) if left else (data, None)
            frames.append(self.msg_frame(chunk))
        return frames

    def close(self) -> None:
        """Local readers see EOF too (same as when the relay session dies),
        so a pump parked on recv() cannot leak past the link's lifetime."""
        if self._shut():
            self._deliver_eof()

    def abort(self) -> None:
        if self._shut():
            self._deliver_error(self.client.link_error("routed link aborted"))

    def _shut(self) -> bool:
        """Leave the client's table and tell the peer, once."""
        if self.closed:
            return False
        self.closed = True
        client = self.client
        client._links.pop((self.peer, self.channel, self.owned), None)
        if client.connected:
            client._notify(routed_body(
                T_CLOSE, client.node_id, self.peer, self.channel,
                sender_owns_channel=self.owned))
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} to {self.peer} ch={self.channel}>"


class RelayClientCore:
    """A node's side of its relay registration: the link table, channel
    ids, and what every frame from the relay means.

    A binding supplies ``_notify(frame)`` — write a frame in the
    background, best effort — and owns ``connected``.
    """

    #: what open() and an incoming OPEN instantiate
    link_class: Callable[..., RoutedChannel] = RoutedChannel
    #: raised on a link the relay reported an error for
    link_error: type = RelayError

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.connected = False
        # key: (peer, channel, owned_by_me)
        self._links: dict[tuple, RoutedChannel] = {}
        self._channel_ids = itertools.count(1)
        #: latest relay-pushed mesh view (mesh mode; empty otherwise)
        self.mesh_view: list = []
        self.mesh_dead: frozenset = frozenset()
        self.mesh_view_seq = 0
        #: callback fired (with this client) on every new mesh view
        self.on_mesh_view: Optional[Callable] = None

    def register_frame(self) -> bytes:
        return ByteWriter().u8(T_REGISTER).lp_str(self.node_id).getvalue()

    def registered(self, reply: bytes) -> None:
        """Check the relay's answer to :meth:`register_frame`."""
        if reply[:1] != _REGISTER_OK_FRAME:
            raise RelayError(f"registration rejected: {reply!r}")
        self.connected = True

    def open(self, peer: str, payload: bytes = b"",
             ctx: Optional[TraceContext] = None) -> tuple:
        """A new link to ``peer`` and the OPEN frame that announces it
        (optimistic, like the paper's request forwarding: an unknown peer
        surfaces later as a link error).

        ``payload`` tags the channel's purpose for the peer's dispatcher
        (e.g. ``b"service"`` vs ``b"data:<nonce>"``).  ``ctx`` rides the
        OPEN frame so the relay and the peer join this trace.
        """
        channel = next(self._channel_ids)
        link = self._add_link(peer, channel, True, payload, ctx)
        obs.event("relay.open", ctx=ctx, node=self.node_id, peer=peer,
                  channel=channel)
        return link, routed_body(T_OPEN, self.node_id, peer, channel, payload,
                                 ctx=ctx)

    def _add_link(self, peer, channel, owned, payload=b"", ctx=None):
        link = self.link_class(self, peer, channel, owned=owned)
        link.open_payload = payload
        link.ctx = ctx
        self._links[(peer, channel, owned)] = link
        return link

    def lost(self) -> None:
        """The relay session is gone: every routed link is dead."""
        self.connected = False
        for link in list(self._links.values()):
            link._deliver_eof()

    def dispatch(self, body: bytes) -> Optional[RoutedChannel]:
        """Act on one frame from the relay; returns the link it opened, if
        any, for the binding to hand to ``accept_link``.  Total: a frame
        that makes no sense is ignored, never raised.  A routed payload is
        kept as a view of ``body`` when it is large."""
        if body and body[0] == T_MESH:
            return self._on_mesh_view(body)
        try:
            kind, sender_owns, src, _dst, channel, start, end = \
                parse_routed(body)
        except FrameError:
            return None
        # The frame names the channel in its owner's numbering: if the
        # sender owns it, locally it is a not-owned (accepted) channel.
        owned_by_me = not sender_owns
        link = self._links.get((src, channel, owned_by_me))
        accepted = None
        if link is None and not owned_by_me:
            if kind == T_OPEN:
                link = accepted = self._add_link(
                    src, channel, False, body[start:end], _open_ctx(body, end))
            elif kind == T_MSG:
                # Data for an unseen peer-opened channel: implicit open.
                link = accepted = self._add_link(src, channel, False)
        if link is None:
            return None
        if kind == T_MSG:
            link._buffer.put(memoryview(body)[start:end])
            link._wake()
        elif kind == T_CLOSE:
            link._deliver_eof()
        elif kind == T_ERROR:
            link._deliver_error(self.link_error(
                str(body[start:end], "utf-8", "replace")))
        return accepted

    def _on_mesh_view(self, body: bytes) -> None:
        reader = ByteReader(body)
        try:
            reader.u8()
            entries = decode_entries(reader.lp_bytes())
            dead = frozenset(reader.lp_str() for _ in range(reader.u32()))
        except FrameError:
            return
        self.mesh_view = entries
        self.mesh_dead = dead
        self.mesh_view_seq += 1
        if self.on_mesh_view is not None:
            self.on_mesh_view(self)


class MeshSelection:
    """Which relay carries the next link: the half of a mesh client that
    is the same on every backend.

    Holds one sub-client per relay (built by the binding), an observer
    :class:`~repro.mesh.state.MeshState` merged from their relay-pushed
    ``T_MESH`` views, and a :class:`~repro.mesh.routes.RouteTable`.
    When the incumbent relay dies its sub-client disconnects, making it
    unusable, and the next open — including a session's RESUME re-dial —
    lands on a survivor.
    """

    def __init__(self, node_id: str, clients: dict, seed,
                 config: Optional[MeshConfig], clock: Callable[[], float]):
        self.node_id = node_id
        self.config = config or DEFAULT_MESH_CONFIG
        self._clock = clock
        #: observer view (merged from relay-pushed T_MESH frames)
        self.state = MeshState("", self.config)
        self.table = RouteTable(self.state, self.config, usable=self._usable)
        self._rng = random.Random(f"{seed}:meshclient:{node_id}")
        self.clients = clients
        for client in clients.values():
            client.on_mesh_view = self._on_view
        self.closed = False
        self._reported_changes = 0
        reg = obs.metrics()
        self._m_usable = reg.gauge("mesh.relays_usable", node=node_id)
        self._m_route_changes = reg.counter("mesh.route_changes_total",
                                            node=node_id)

    @property
    def connected(self) -> bool:
        return any(c.connected for c in self.clients.values())

    def usable_relays(self) -> list[str]:
        return [rid for rid in sorted(self.clients) if self._usable(rid)]

    def _usable(self, relay_id: str) -> bool:
        client = self.clients.get(relay_id)
        return client is not None and client.connected

    def _on_view(self, client) -> None:
        self.state.merge(client.mesh_view, self._clock())
        self._m_usable.set(len(self.usable_relays()))

    def pick_relay(self, peer: str) -> Optional[str]:
        """The relay id the route table would use for ``peer`` right now."""
        entry = self.table.pick(peer, rng=self._rng)
        if entry is not None and self._usable(entry.relay_id):
            return entry.relay_id
        for rid in sorted(self.clients):
            if self._usable(rid):
                return rid
        return None

    def choose_relay(self, peer: str,
                     ctx: Optional[TraceContext] = None) -> str:
        """Commit to a relay for the next link to ``peer`` and report it."""
        rid = self.pick_relay(peer)
        if rid is None:
            raise RelayError("no usable relay for routed open")
        changes = self.table.route_changes - self._reported_changes
        if changes:
            self._m_route_changes.inc(changes)
            self._reported_changes = self.table.route_changes
        obs.event("mesh.route", ctx=ctx, node=self.node_id, peer=peer,
                  relay=rid)
        return rid

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.node_id} usable={self.usable_relays()}>"
