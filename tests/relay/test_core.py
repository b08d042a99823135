"""The relay protocol with no simulator and no event loop.

Relay cores and client cores are joined by an in-memory :class:`Net` whose
connections are plain objects holding the frames in flight, and whose
"binding" is the few lines every real one has: a read loop per connection
and the hop loop.  Every row of the routing table is then a deterministic
test of plain function calls; a hypothesis state machine explores arbitrary
interleavings — register, leave, open, send, close, kill any connection at
any point, partition, fail a trunk dial, gossip — against an external model
of what a relay may do with a frame; and a totality property feeds every
decoder arbitrary and mutated bytes.
"""

import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import obs
from repro.core import relay_core as rc
from repro.core.relay_core import (
    MAX_MSG,
    MeshSelection,
    RelayClientCore,
    RelayCore,
    RelayError,
    parse_routed,
    routed_body,
)
from repro.mesh.config import MeshConfig
from repro.mesh.state import RelayEntry, encode_entries
from repro.obs import TraceContext
from repro.util.bytesbuf import joined, size
from repro.util.framing import ByteWriter, FrameError

CFG = MeshConfig(gossip_interval=0.5, gossip_jitter=0.2, deadline=3.0)
UNKNOWN = b"unknown destination"


class Dead(Exception):
    """What a write to (or a dial of) a dead connection raises."""


class End:
    """One side's handle on a connection — what a core stores and compares
    by identity.  ``reader`` is whoever runs this end's read loop."""

    def __init__(self, label):
        self.label = label
        self.peer = None
        self.inbox = []
        self.dead = False
        self.reader = None
        self.noticed = False

    def write(self, frame):
        if self.dead:
            raise Dead(self.label)
        self.peer.inbox.append(frame)

    def abort(self):
        """A reset: both directions die, frames in flight are gone."""
        self.dead = self.peer.dead = True

    close = abort

    def __repr__(self):
        return f"<End {self.label}{' dead' if self.dead else ''}>"


class Relay(RelayCore):
    """A core whose listener is always up and whose gossip loop is the test."""

    running = True

    def __init__(self, net, rid):
        super().__init__(f"relay-{rid}", clock=lambda: net.now)
        self.addr = (rid, 4000)
        self.gossip_starts = 0

    def _start_gossip(self):
        self.gossip_starts += 1

    def notes(self, name):
        return [r for r in self.flight.records() if r["name"] == name]


class Accepted:
    """A relay's read loop for one accepted connection (its ``_session``)."""

    def __init__(self, net, relay, end):
        self.net, self.relay, self.end = net, relay, end
        self.role = self.node_id = None

    def feed(self, body):
        relay, end = self.relay, self.end
        if self.role is None:
            self.role, peer, rest = relay.classify(body)
            if self.role == relay.GOSSIP:
                answer = relay.gossip_answer(peer, rest)
                if answer is None:
                    raise Dead("refused")
                end.write(answer[0])
                if answer[1]:
                    self.net.push_views(relay)
            elif self.role == relay.TRUNK:
                if not relay.trunk_accepted(peer, end):
                    raise Dead("refused")
            else:
                self.node_id = peer
                accepted, frames = relay.register(peer, end)
                for frame in frames:
                    end.write(frame)
                if not accepted:
                    raise Dead("refused")
        elif self.role == relay.TRUNK:
            self.net.run(relay, relay.route_trunk(body, end), body, end)
        elif self.role == relay.REGISTER:
            self.net.run(relay, relay.route(self.node_id, body, end), body, end)

    def ended(self):
        if self.node_id is not None:
            self.relay.unregister(self.node_id, self.end)
        self.relay.trunk_lost(self.end)


class Dialled:
    """A relay's read loop for a trunk it dialled."""

    def __init__(self, net, relay, end, rid):
        self.net, self.relay, self.end, self.rid = net, relay, end, rid

    def feed(self, body):
        self.net.run(self.relay, self.relay.route_trunk(body, self.end),
                     body, self.end)

    def ended(self):
        self.relay.trunk_lost(self.end, self.rid)


class Node(RelayClientCore):
    """A client core, its connection, and what it was handed."""

    def __init__(self, net, node_id):
        super().__init__(node_id)
        self.net = net
        self.end = None
        self.accepted = []
        self.views = 0
        self.on_mesh_view = lambda _self: setattr(self, "views", self.views + 1)

    def join(self, rid):
        self.end = self.net.dial(rid, f"{self.node_id}@{rid}")
        self.end.reader = self
        self.end.write(self.register_frame())
        self.net.settle()
        return self

    def _notify(self, frame):
        self.send(frame)

    def send(self, frame):
        try:
            self.end.write(frame)
        except Dead:
            pass  # the read loop notices

    def feed(self, body):
        if not self.connected:
            return self.registered(body)
        link = self.dispatch(body)
        if link is not None:
            self.accepted.append(link)

    def ended(self):
        self.lost()

    def open_to(self, peer, payload=b"", ctx=None):
        link, frame = self.open(peer, payload, ctx)
        self.send(frame)
        return link

    def say(self, link, data):
        self.send(link.msg_frame(data))


class Net:
    """The wire and the binding: connections, read loops, the hop loop."""

    def __init__(self, relays=("r1", "r2")):
        self.now = 0.0
        self.relays = {rid: Relay(self, rid) for rid in relays}
        self.ends = []
        #: relay ids that refuse to be dialled
        self.unreachable = set()
        #: every hop loop run: (relay, origin, body, [(hop, written?)...])
        self.loops = []

    def pipe(self, label):
        near, far = End(label), End(label + "'")
        near.peer, far.peer = far, near
        self.ends += [near, far]
        return near, far

    def dial(self, rid, label):
        if rid in self.unreachable:
            raise Dead(f"{rid} unreachable")
        near, far = self.pipe(label)
        far.reader = Accepted(self, self.relays[rid], far)
        return near

    def mesh(self, rounds=4):
        for rid, relay in self.relays.items():
            peers = {p: r.addr for p, r in self.relays.items() if p != rid}
            relay.enable_mesh(rid, peers, seed=1, config=CFG)
        for _ in range(rounds):
            for rid in self.relays:
                self.gossip(rid)
        return self

    # -- the binding ---------------------------------------------------------
    def step(self, end):
        """One turn of the read loop that owns ``end``."""
        if end.reader is None or end.noticed:
            return False
        if end.dead:
            end.noticed = True
            end.reader.ended()
            return True
        if not end.inbox:
            return False
        try:
            end.reader.feed(end.inbox.pop(0))
        except (RelayError, FrameError, Dead):
            end.abort()
        return True

    def settle(self):
        for _ in range(100):
            if not any([self.step(end) for end in list(self.ends)]):
                return
        raise AssertionError("the network never went quiet: a frame is looping")

    def run(self, relay, hop, body, origin):
        """The hop loop, logging every write it tried."""
        if hop is None:
            return
        tried = []
        self.loops.append((relay, origin, body, tried))
        while hop is not None:
            try:
                if hop.conn is None:
                    hop.conn = self.trunk(relay, *hop.trunk)
                hop.conn.write(hop.frame)
            except Dead:
                tried.append((hop, False))
                if hop.last:
                    raise
                hop = relay.hop_failed(hop)
            else:
                tried.append((hop, True))
                return relay.hop_done(hop)

    def trunk(self, relay, rid, addr):
        end = relay._trunks.get(rid)
        if end is not None:
            return end
        end = self.dial(addr[0], f"{relay.relay_id}>{rid}")
        end.write(relay.trunk_hello())
        kept = relay.trunk_dialed(rid, end)
        if kept is end:
            end.reader = Dialled(self, relay, end, rid)
        else:
            end.close()
        return kept

    def gossip(self, rid):
        relay = self.relays[rid]
        rnd = relay.gossip_begin()
        reply = None
        if rnd.partner is not None:
            try:
                end = self.dial(rnd.addr[0], f"{rid}~{rnd.partner}")
                end.write(relay.gossip_frame())
                self.step(end.peer)
                reply = end.inbox.pop(0) if end.inbox and not end.dead else None
                end.close()
            except Dead:
                pass
        if relay.gossip_end(rnd, reply):
            self.push_views(relay)
        return rnd

    def push_views(self, relay):
        frame = relay._mesh_view_frame()
        for conn in list(relay.sessions.values()):
            try:
                conn.write(frame)
            except Dead:
                continue


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(obs.MetricsRegistry())
    yield
    obs.set_registry(previous)


def counter(name):
    return sum(c.value for c in obs.metrics().instruments(name))


def drain(link):
    """Everything ``link`` can hand over now, and how its stream stands."""
    data = b""
    try:
        while (chunk := link.take(1 << 20)):
            data += chunk
    except RelayError as exc:
        return data, exc
    return data, chunk  # b"" at EOF, None while open


def four_nodes(net):
    """a, b on r1; c, d on r2 — after gossip has spread who is where."""
    nodes = {n: Node(net, n).join(rid)
             for n, rid in (("a", "r1"), ("b", "r1"), ("c", "r2"), ("d", "r2"))}
    for _ in range(3):
        for rid in net.relays:
            net.gossip(rid)
    net.settle()
    return nodes


# -- the frame family ---------------------------------------------------------

class TestFrames:
    def test_header_round_trip_leaves_the_payload_alone(self):
        ctx = TraceContext.new()
        body = routed_body(rc.T_OPEN, "alice", "bøb", 7, b"tag", ctx=ctx)
        kind, owns, src, dst, channel, start, end = parse_routed(body)
        assert (kind, owns, src, dst, channel) == (rc.T_OPEN, True, "alice", "bøb", 7)
        assert body[start:end] == b"tag" and body[end:] == ctx.encode()
        assert parse_routed(routed_body(
            rc.T_MSG, "a", "b", 1, b"x", sender_owns_channel=False))[1] is False

    def test_same_bytes_as_the_field_by_field_writer(self):
        w = (ByteWriter().u8(rc.T_MSG).u8(1).lp_str("a").lp_str("node-b")
             .u64(2 ** 40).lp_bytes(b"payload"))
        assert routed_body(rc.T_MSG, "a", "node-b", 2 ** 40, b"payload") == w.getvalue()

    @pytest.mark.parametrize("body", [
        b"", b"\x04", b"\x04\x01\x00\x00", routed_body(4, "a", "b", 1, b"xyz")[:-1],
        b"\x04\x01\xff\xff\xff\xff" + b"a" * 40,
        b"\x04\x01\x00\x00\x00\x02\xff\xfe" + b"\x00" * 20,
    ])
    def test_malformed_headers_are_frame_errors(self, body):
        with pytest.raises(FrameError):
            parse_routed(body)


# -- the routing table, row by row ---------------------------------------------

class TestRouting:
    def test_local_delivery_is_verbatim_and_counted_in_payload_bytes(self):
        net = Net()
        a, b = Node(net, "a").join("r1"), Node(net, "b").join("r1")
        link = a.open_to("b", b"tag")
        a.say(link, b"x" * 1000)
        net.settle()
        (accepted,) = b.accepted
        assert (accepted.peer, accepted.open_payload, accepted.owned) == ("a", b"tag", False)
        assert drain(accepted) == (b"x" * 1000, None)
        r1 = net.relays["r1"]
        assert (r1.forwarded_messages, r1.forwarded_bytes) == (2, 1003)
        assert counter("relay.forwarded_bytes_total") == 1003
        assert counter("relay.forwarded_total") == 2
        for _relay, _origin, body, tried in net.loops:
            ((hop, ok),) = tried
            assert ok and hop.frame is body  # forwarded without a copy

    def test_unknown_destination_errors_back_to_the_opener(self):
        net = Net()
        a = Node(net, "a").join("r1")
        link = a.open_to("ghost")
        net.settle()
        data, error = drain(link)
        assert data == b"" and str(error) == "unknown destination"
        assert a.connected and "a" in net.relays["r1"].sessions
        (closed,) = net.relays["r1"].notes("relay.route.closed")
        assert closed["attrs"]["outcome"] == "error"
        assert net.relays["r1"].forwarded_messages == 0

    @pytest.mark.parametrize("origin", ["opener", "acceptor"])
    def test_an_error_reaches_the_link_whose_frame_was_refused(self, origin):
        """Polarity: ``a`` holds two links to ``b`` numbered 1 — the one it
        opened and the one it accepted.  Once ``b`` is gone, a frame on
        either is refused, and only that link sees the error."""
        net = Net()
        a, b = Node(net, "a").join("r1"), Node(net, "b").join("r1")
        opened, offered = a.open_to("b"), b.open_to("a")
        net.settle()
        (accepted,) = a.accepted
        assert opened.channel == accepted.channel == 1
        assert (opened.owned, accepted.owned) == (True, False)
        b.end.abort()
        net.settle()
        refused, bystander = ((opened, accepted) if origin == "opener"
                              else (accepted, opened))
        a.say(refused, b"late")
        net.settle()
        (_relay, _origin, _body, ((hop, ok),)), = net.loops[-1:]
        err = parse_routed(hop.frame)
        assert ok and hop.last and err[1] == (origin == "acceptor")
        data, error = drain(refused)
        assert data == b"" and str(error) == "unknown destination"
        assert drain(bystander) == (b"", None)
        assert a.connected and offered.closed is False

    def test_spoofed_source_ends_the_session(self):
        net = Net()
        a, b = Node(net, "a").join("r1"), Node(net, "b").join("r1")
        with pytest.raises(RelayError, match="spoof"):
            net.relays["r1"].route("a", routed_body(rc.T_MSG, "b", "a", 1, b"x"), a.end.peer)
        a.send(routed_body(rc.T_OPEN, "b", "a", 1))
        net.settle()
        assert not a.connected and "a" not in net.relays["r1"].sessions
        assert b.connected and b.accepted == []

    @pytest.mark.parametrize("kind", [rc.T_ERROR, rc.T_REGISTER, rc.T_GOSSIP, 0, 99])
    def test_a_node_may_only_send_open_msg_close(self, kind):
        net = Net()
        Node(net, "a").join("r1")
        with pytest.raises(RelayError, match="unexpected frame type"):
            net.relays["r1"].route("a", routed_body(kind, "a", "b", 1), None)

    def test_a_trunk_may_not_carry_other_kinds(self):
        net = Net().mesh()
        with pytest.raises(RelayError, match="unexpected trunk frame"):
            net.relays["r2"].route_trunk(routed_body(rc.T_REGISTER, "a", "c", 1), None)

    def test_duplicate_id_is_refused_and_the_first_stays(self):
        net = Net()
        first = Node(net, "a").join("r1")
        second = Node(net, "a").join("r1")
        assert first.connected and not second.connected and second.end.dead
        assert net.relays["r1"].sessions["a"] is first.end.peer
        with pytest.raises(RelayError, match="registration rejected"):
            Node(net, "x").registered(net.relays["r1"].register("a", None)[1][0])

    def test_ping_is_absorbed_and_the_registration_survives(self):
        net = Net()
        a = Node(net, "a").join("r1")
        a.send(rc.PING_FRAME)
        net.settle()
        assert a.connected and "a" in net.relays["r1"].sessions and net.loops == []

    def test_first_frame_must_name_a_role(self):
        relay = Net().relays["r1"]
        assert relay.classify(b"\x01\x00\x00\x00\x01a") == (relay.REGISTER, "a", b"")
        for body in (routed_body(rc.T_MSG, "a", "b", 1), rc.PING_FRAME):
            with pytest.raises(RelayError, match="expected REGISTER"):
                relay.classify(body)

    def test_trunk_hop_reaches_the_owner_and_its_node(self):
        net = Net().mesh()
        nodes = four_nodes(net)
        link = nodes["a"].open_to("c", b"hi")
        nodes["a"].say(link, b"across")
        nodes["a"].say(link, b"-the-trunk")
        net.settle()
        (accepted,) = nodes["c"].accepted
        assert drain(accepted) == (b"across-the-trunk", None)
        r1, r2 = net.relays["r1"], net.relays["r2"]
        assert (r1.trunk_tx, r2.trunk_rx, len(r1._trunks), len(r2._trunks_in)) == (3, 3, 1, 1)
        assert r1.forwarded_bytes == r2.forwarded_bytes == 18
        assert counter("relay.forwarded_bytes_total") == 36
        # the answer travels over r2's own trunk toward r1
        nodes["c"].say(accepted, b"back")
        net.settle()
        assert drain(link) == (b"back", None) and r2.trunk_tx == 1
        link.close()
        net.settle()
        (closed,) = r1.notes("relay.route.closed")
        assert closed["attrs"] == {"src": "a", "dst": "c", "channel": 1,
                                   "bytes": 18, "outcome": "ok"}
        assert r1.notes("mesh.trunk.open") and r2.notes("mesh.trunk.accept")

    def test_trunk_frame_for_an_unknown_node_is_answered_over_the_same_trunk(self):
        """... and never forwarded on, whatever this relay believes."""
        net = Net(("r1", "r2", "r3")).mesh()
        a, c = Node(net, "a").join("r1"), Node(net, "c").join("r3")
        for rid in ("r3", "r2", "r1", "r2"):
            net.gossip(rid)
        assert net.relays["r2"].mesh.owner_of("c").relay_id == "r3"
        # r1 is told, wrongly, that c lives at r2
        stale = net.relays["r1"].mesh.entries["r2"]
        net.relays["r1"].mesh.entries["r3"] = RelayEntry("r3", ("r3", 4000), 9, 9)
        net.relays["r1"].mesh.entries["r2"] = RelayEntry(
            "r2", stale.addr, stale.incarnation, stale.seq + 9, nodes=("c",))
        link = a.open_to("c")
        net.settle()
        assert str(drain(link)[1]) == "unknown destination"
        assert c.accepted == [] and net.relays["r2"]._trunks == {}
        assert net.relays["r2"].trunk_rx == 1 and net.relays["r2"].trunk_tx == 0
        relay, origin, _body, ((hop, ok),) = net.loops[1]
        assert relay is net.relays["r2"] and ok and hop.conn is origin and hop.last

    def test_errors_about_errors_stop(self):
        net = Net().mesh()
        relay = net.relays["r2"]
        error = routed_body(rc.T_ERROR, "c", "ghost", 1, UNKNOWN, sender_owns_channel=False)
        assert relay.route_trunk(error, End("trunk")) is None
        assert relay.trunk_rx == 1

    def test_partitioned_owner_is_unknown_and_never_dialled(self):
        net = Net().mesh()
        nodes = four_nodes(net)
        net.relays["r1"].partition(["r2"])
        link = nodes["a"].open_to("c")
        net.settle()
        assert str(drain(link)[1]) == "unknown destination"
        assert net.relays["r1"]._trunks == {} and nodes["c"].accepted == []
        net.relays["r1"].heal_partition()
        nodes["a"].open_to("c")
        net.settle()
        assert len(nodes["c"].accepted) == 1
        assert [n["attrs"]["peers"] for n in net.relays["r1"].notes("mesh.partition")] == [["r2"]]

    def test_partition_drops_the_trunk_and_refuses_the_peer(self):
        net = Net().mesh()
        nodes = four_nodes(net)
        nodes["a"].open_to("c")
        net.settle()
        (trunk,) = net.relays["r1"]._trunks.values()
        net.relays["r1"].partition(["r2"])
        assert trunk.dead and net.relays["r1"]._trunks == {}
        assert net.relays["r1"].gossip_answer("r2", encode_entries([])) is None
        assert not net.relays["r1"].trunk_accepted("r2", End("t"))
        assert net.gossip("r1").partner is None

    def test_trunk_dial_failure_falls_back_to_unknown_destination(self):
        net = Net().mesh()
        nodes = four_nodes(net)
        net.unreachable.add("r2")
        link = nodes["a"].open_to("c")
        net.settle()
        assert str(drain(link)[1]) == "unknown destination"
        assert nodes["a"].connected and net.relays["r1"]._trunks == {}
        (closed,) = net.relays["r1"].notes("relay.route.closed")
        assert closed["attrs"]["outcome"] == "error"
        assert net.relays["r1"].forwarded_messages == 0

    def test_dead_trunk_is_dropped_and_redialled(self):
        net = Net().mesh()
        nodes = four_nodes(net)
        first = nodes["a"].open_to("c")
        net.settle()
        (trunk,) = net.relays["r1"]._trunks.values()
        trunk.abort()  # nobody has noticed yet
        nodes["a"].say(first, b"lost")
        net.settle()
        assert str(drain(first)[1]) == "unknown destination"
        assert net.relays["r1"]._trunks == {} and net.relays["r2"]._trunks_in == set()
        nodes["a"].open_to("c")
        net.settle()
        assert len(net.relays["r1"]._trunks) == 1 and len(nodes["c"].accepted) == 2

    def test_destination_death_is_the_destinations_problem(self):
        net = Net()
        a, b = Node(net, "a").join("r1"), Node(net, "b").join("r1")
        link = a.open_to("b")
        net.settle()
        b.end.abort()  # b is gone; its read loop has not noticed
        a.say(link, b"into the void")
        assert net.step(a.end.peer)
        r1 = net.relays["r1"]
        assert "b" not in r1.sessions and r1.sessions["a"] is a.end.peer
        (closed,) = r1.notes("relay.route.closed")
        assert closed["attrs"]["outcome"] == "error"
        assert [n["attrs"]["node_id"] for n in r1.notes("relay.unregister")] == ["b"]
        net.settle()
        assert a.connected and str(drain(link)[1]) == "unknown destination"
        assert len(r1.notes("relay.unregister")) == 1  # b's own loop adds nothing

    def test_origin_death_is_the_callers_to_raise(self):
        net = Net()
        a = Node(net, "a").join("r1")
        hop = net.relays["r1"].route("a", routed_body(rc.T_OPEN, "a", "ghost", 1), a.end.peer)
        assert hop.last and hop.conn is a.end.peer and net.relays["r1"].hop_failed

    def test_concurrent_trunk_dials_keep_one_winner(self):
        net = Net().mesh()
        r1 = net.relays["r1"]
        first, second = net.dial("r2", "t1"), net.dial("r2", "t2")
        assert r1.trunk_dialed("r2", first) is first
        assert r1.trunk_dialed("r2", second) is first  # the loser is handed back
        assert r1._trunks == {"r2": first} and len(r1.notes("mesh.trunk.open")) == 1
        r1.trunk_lost(second, "r2")  # the loser's loop ending changes nothing
        assert r1._trunks == {"r2": first}
        r1._drop_trunks()
        assert first.dead and r1._trunks == {} and r1._trunks_in == set()


# -- route spans and the causal trace ------------------------------------------

class TestRoutes:
    def test_open_under_a_span_is_one_trace_through_the_relay(self):
        net = Net()
        a, b = Node(net, "a").join("r1"), Node(net, "b").join("r1")
        recorder = obs.TraceRecorder()
        previous = obs.set_tracer(recorder)
        try:
            ctx = TraceContext.new()
            link = a.open_to("b", ctx=ctx)
            a.say(link, b"12345")
            link.close()
            net.settle()
        finally:
            obs.set_tracer(previous)
        (accepted,) = b.accepted
        assert accepted.ctx == ctx and link.ctx is ctx
        (span,) = recorder.spans("relay.route")
        assert span["trace_id"] == ctx.ids()["trace_id"]
        assert span["parent_id"] == ctx.ids()["span_id"]
        assert span["attrs"]["bytes"] == 5 and span["attrs"]["outcome"] == "ok"
        (opened,) = net.relays["r1"].notes("relay.route.open")
        assert opened["trace_id"] == span["trace_id"]

    def test_routes_close_exactly_once_however_they_end(self):
        net = Net()
        a, b = Node(net, "a").join("r1"), Node(net, "b").join("r1")
        r1 = net.relays["r1"]
        a.open_to("b"), a.open_to("b"), b.open_to("a")
        net.settle()
        assert len(r1._routes) == 3
        a.end.abort()
        net.settle()  # session lost: all three involve a
        assert r1._routes == {} and len(r1.notes("relay.route.closed")) == 3
        c = Node(net, "c").join("r1")
        c.open_to("b")
        net.settle()
        r1._drop_trunks(), r1._drop_sessions()
        closed = r1.notes("relay.route.closed")
        assert len(closed) == 4 and {n["attrs"]["outcome"] for n in closed} == {"error"}
        assert r1.notes("relay.stop") and r1.sessions == {}
        assert b.end.dead and c.end.dead

    def test_reopening_a_channel_closes_the_old_route_first(self):
        net = Net()
        a = Node(net, "a").join("r1")
        Node(net, "b").join("r1")
        for _ in range(2):
            a.send(routed_body(rc.T_OPEN, "a", "b", 1))
        net.settle()
        r1 = net.relays["r1"]
        assert len(r1.notes("relay.route.open")) == 2
        assert len(r1.notes("relay.route.closed")) == 1 and len(r1._routes) == 1


# -- the mesh side --------------------------------------------------------------

class TestMesh:
    def test_gossip_converges_and_spreads_ownership(self):
        net = Net(("r1", "r2", "r3")).mesh()
        Node(net, "a").join("r2")
        for _ in range(3):
            for rid in net.relays:
                net.gossip(rid)
        for relay in net.relays.values():
            assert relay.mesh.alive_ids() == ["r1", "r2", "r3"]
            assert relay.mesh.owner_of("a").relay_id == "r2"
        assert counter("mesh.gossip_rounds_total") == 3 * 7
        assert {i.value for i in obs.metrics().instruments("mesh.relays_alive")} == {3}

    def test_enable_mesh_on_a_running_relay_starts_gossip_and_restart_reincarnates(self):
        net = Net().mesh()
        r1 = net.relays["r1"]
        assert r1.gossip_starts == 1 and r1._incarnation == 1
        r1.started()
        assert (r1._incarnation, r1.gossip_starts) == (2, 2)
        assert net.gossip("r1").partner == "r2"
        assert net.relays["r2"].mesh.entries["r1"].incarnation == 2

    def test_registering_in_mesh_mode_pushes_the_view(self):
        net = Net().mesh()
        a = Node(net, "a").join("r1")
        assert a.views == 1 and [e.relay_id for e in a.mesh_view] == ["r1", "r2"]
        net.now = 10.0  # r2 falls silent
        net.unreachable.add("r2")
        rnd = net.gossip("r1")
        net.settle()
        assert rnd.changed and a.views == 2 and a.mesh_dead == {"r2"}
        assert [n["attrs"]["relay_id"] for n in net.relays["r1"].notes("mesh.dead")] == ["r2"]

    def test_an_unreachable_or_garbled_partner_is_a_failed_round(self):
        net = Net().mesh()
        r1 = net.relays["r1"]
        recorder = obs.TraceRecorder()
        previous = obs.set_tracer(recorder)
        try:
            for reply in (None, b"\x08\x00\x00", b"\x08" + b"\xff" * 12):
                assert r1.gossip_end(r1.gossip_begin(), reply) is False
            assert r1.gossip_end(r1.gossip_begin(), rc.PING_FRAME) is False  # not gossip: ignored
        finally:
            obs.set_tracer(previous)
        assert [s["attrs"]["outcome"] for s in recorder.spans("mesh.gossip")] == ["unreachable"] * 3

    def test_delay_is_jittered_within_bounds_and_floored(self):
        net = Net().mesh()
        delays = [net.relays["r1"].gossip_delay() for _ in range(200)]
        assert 0.4 <= min(delays) < max(delays) <= 0.6
        tight = Net()
        tight.relays["r1"].enable_mesh("r1", {}, seed=1, config=MeshConfig(
            gossip_interval=0.001, gossip_jitter=0.5))
        assert tight.relays["r1"].gossip_delay() == rc._GOSSIP_FLOOR

    def test_partner_and_jitter_draws_are_seeded(self):
        def draws():
            net = Net(("r1", "r2", "r3")).mesh(rounds=0)
            r1 = net.relays["r1"]
            return [(r1.gossip_begin().partner, r1.gossip_delay()) for _ in range(20)]
        assert draws() == draws() and len({p for p, _ in draws()}) == 2


# -- the client side --------------------------------------------------------------

class TestClient:
    def test_data_for_an_unseen_channel_is_an_implicit_open(self):
        a = Node(None, "a")
        link = a.dispatch(routed_body(rc.T_MSG, "b", "a", 5, b"early"))
        assert (link.peer, link.channel, link.owned, link.open_payload) == ("b", 5, False, b"")
        assert drain(link) == (b"early", None)
        # but never for a channel we would have had to open ourselves
        assert a.dispatch(routed_body(rc.T_MSG, "b", "a", 6, b"x", sender_owns_channel=False)) is None
        assert len(a._links) == 1

    def test_both_sides_may_use_the_same_channel_id(self):
        net = Net()
        a, b = Node(net, "a").join("r1"), Node(net, "b").join("r1")
        ab, ba = a.open_to("b", b"ab"), b.open_to("a", b"ba")
        assert ab.channel == ba.channel == 1
        net.settle()
        (a_acc,), (b_acc,) = a.accepted, b.accepted
        for link, word in ((ab, b"1"), (ba, b"2"), (a_acc, b"3"), (b_acc, b"4")):
            link.client.say(link, word)
        net.settle()
        assert [drain(link)[0] for link in (b_acc, a_acc, ba, ab)] == [b"1", b"2", b"3", b"4"]
        assert len(a._links) == len(b._links) == 2

    def test_close_and_error_for_unknown_channels_and_garbage_are_ignored(self):
        a = Node(None, "a")
        a.connected = True
        for body in (
            routed_body(rc.T_CLOSE, "b", "a", 9),
            routed_body(rc.T_ERROR, "b", "a", 9, UNKNOWN, sender_owns_channel=False),
            routed_body(rc.T_OPEN, "b", "a", 9, sender_owns_channel=False),
            b"", b"\x04\x01", routed_body(rc.T_MSG, "b", "a", 1, b"xyz")[:-2],
            bytes([rc.T_MESH]), bytes([rc.T_MESH]) + b"\x00\x00\x00\x09junk",
            b"\x63" + routed_body(rc.T_MSG, "b", "a", 1)[1:],
        ):
            assert a.dispatch(body) is None
        assert a._links == {} and a.mesh_view_seq == 0 and a.connected

    def test_close_leaves_the_table_tells_the_peer_once_and_wakes_readers(self):
        net = Net()
        a, b = Node(net, "a").join("r1"), Node(net, "b").join("r1")
        for _ in range(100):
            link = a.open_to("b")
            net.settle()
            peer = b.accepted.pop()
            link.close()
            net.settle()
            assert drain(peer) == (b"", b"") and drain(link) == (b"", b"")
            peer.close()
            net.settle()
        assert a._links == {} and b._links == {}
        sent = len(net.loops)
        link.close(), peer.close(), link.abort()
        net.settle()
        assert len(net.loops) == sent and link.closed

    def test_abort_fails_local_readers_and_error_follows_buffered_data(self):
        net = Net()
        a, b = Node(net, "a").join("r1"), Node(net, "b").join("r1")
        link = a.open_to("b")
        link._buffer.put(b"still here")
        link.abort()
        assert link.take(5) == b"still" and link.take(99) == b" here"
        with pytest.raises(RelayError, match="aborted"):
            link.take(1)
        net.settle()
        assert drain(b.accepted[0]) == (b"", b"")  # the peer sees a close

    def test_take_hands_over_whole_or_part(self):
        link = Node(None, "a")._add_link("b", 1, True)
        assert link.take(10) is None
        link._buffer.put(b"0123456789")
        assert link.take(4) == b"0123" and isinstance(link.take(4), bytes)
        assert link.take(100) == b"89" and link.take(1) is None
        link._deliver_eof()
        assert link.take(1) == b""

    def test_a_lost_session_ends_every_link_and_sends_nothing_more(self):
        net = Net()
        a = Node(net, "a").join("r1")
        Node(net, "b").join("r1")
        links = [a.open_to("b") for _ in range(3)]
        net.settle()
        a.end.abort()
        net.settle()
        assert not a.connected and all(drain(l) == (b"", b"") for l in links)
        sent = len(net.loops)
        links[0].close()
        assert len(net.loops) == sent and a._links.keys() == {("b", 2, True), ("b", 3, True)}

    def test_msg_frames_carry_at_most_max_msg(self):
        link = Node(None, "a")._add_link("b", 1, False)
        head = parse_routed(joined(link.msg_frame(memoryview(b"z" * MAX_MSG))))
        assert head[:5] == (rc.T_MSG, False, "a", "b", 1) and head[6] - head[5] == MAX_MSG
        assert size(link.msg_frame(b"z" * MAX_MSG)) <= rc.MAX_RELAY_FRAME


class FakeSub:
    def __init__(self):
        self.connected = True
        self.mesh_view = []
        self.on_mesh_view = None


class TestMeshSelection:
    def _selection(self):
        subs = {rid: FakeSub() for rid in ("r1", "r2", "r3")}
        clock = iter(range(1000))
        sel = MeshSelection("alice", subs, seed=3, config=CFG, clock=lambda: next(clock))
        view = [RelayEntry(rid, (rid, 4000), 1, 1, nodes=("bob",) if rid == "r2" else ())
                for rid in subs]
        for sub in subs.values():
            sub.mesh_view = view
            sub.on_mesh_view(sub)
        return sel, subs

    def test_views_feed_the_table_and_the_peer_holder_wins(self):
        sel, subs = self._selection()
        assert sel.connected and sel.usable_relays() == ["r1", "r2", "r3"]
        assert sel.pick_relay("bob") == "r2" == sel.choose_relay("bob")
        subs["r2"].connected = False
        assert sel.choose_relay("bob") in ("r1", "r3")
        assert counter("mesh.route_changes_total") == 1
        assert {i.value for i in obs.metrics().instruments("mesh.relays_usable")} == {3}

    def test_no_usable_relay_is_a_relay_error(self):
        sel, subs = self._selection()
        for sub in subs.values():
            sub.connected = False
        assert sel.pick_relay("bob") is None and not sel.connected
        with pytest.raises(RelayError, match="no usable relay"):
            sel.choose_relay("bob")

    def test_an_unknown_view_still_falls_back_to_any_registration(self):
        subs = {"r9": FakeSub()}
        sel = MeshSelection("alice", subs, seed=0, config=None, clock=lambda: 0.0)
        assert sel.pick_relay("bob") == "r9"


# -- arbitrary interleavings against an external model ----------------------------

NODES = ("a", "b", "c", "d")
RELAYS = ("r1", "r2")


class RelayMachine(RuleBasedStateMachine):
    """What a relay may do with a frame, checked from outside.

    The model knows only what was sent: which node said what on which
    channel.  After every step it checks each hop loop the net ran —
    every accepted frame reached exactly one of {its local destination, the
    owner's trunk, an error to its origin} unless the origin itself died; a
    trunk-delivered frame never left on a trunk — and that each relay's
    books equal the payload bytes the net saw handed off.
    """

    def __init__(self):
        super().__init__()
        self.registry = obs.MetricsRegistry()
        self.previous = obs.set_registry(self.registry)
        self.net = Net(RELAYS).mesh()
        self.nodes = {}
        self.serial = 0
        #: (src, dst, channel, sender_owns) -> chunks sent, in order
        self.sent = {}
        self.checked = 0
        self.handed = {rid: [0, 0] for rid in RELAYS}

    def teardown(self):
        self.net.settle()
        self.check_loops()
        for relay in self.net.relays.values():
            relay._drop_trunks()
            relay._drop_sessions()
            assert relay._routes == {}
            self.check_routes(relay)
        self.check_streams()
        obs.set_registry(self.previous)

    # -- rules ---------------------------------------------------------------
    @initialize()
    def everyone_joins_and_talks(self):
        for node_id, rid in zip(NODES, ("r1", "r1", "r2", "r2")):
            self.nodes[node_id] = Node(self.net, node_id).join(rid)
        self.net.gossip("r1"), self.net.gossip("r2")
        for src, dst in (("a", "b"), ("a", "c"), ("d", "b"), ("c", "d")):
            self.nodes[src].open_to(dst)
        self.net.settle()

    @rule(node_id=st.sampled_from(NODES), rid=st.sampled_from(RELAYS))
    def join(self, node_id, rid):
        if not self.nodes[node_id].connected and rid not in self.net.unreachable:
            self.nodes[node_id] = Node(self.net, node_id).join(rid)

    @rule(node_id=st.sampled_from(NODES), noticed=st.booleans())
    def leave(self, node_id, noticed):
        self.nodes[node_id].end.abort()
        if noticed:
            self.net.settle()

    @rule(src=st.sampled_from(NODES), dst=st.sampled_from(NODES + ("ghost",)))
    def open(self, src, dst):
        node = self.nodes[src]
        if node.connected and src != dst:
            node.open_to(dst)

    @rule(pick=st.integers(0, 200), size=st.integers(1, 40))
    def send(self, pick, size):
        links = [(node, link) for node in self.nodes.values() if node.connected
                 for link in node._links.values() if not link.closed]
        if links:
            node, link = links[pick % len(links)]
            self.serial += 1
            chunk = self.serial.to_bytes(4, "big") + bytes(size)
            key = (node.node_id, link.peer, link.channel, link.owned)
            self.sent.setdefault(key, []).append(chunk)
            node.say(link, chunk)

    @rule(src=st.sampled_from(NODES), pick=st.integers(0, 50))
    def close(self, src, pick):
        links = list(self.nodes[src]._links.values())
        if links:
            links[pick % len(links)].close()

    @rule(pick=st.integers(0, 200))
    def kill(self, pick):
        live = [e for e in self.net.ends if not e.dead and e.reader is not None]
        if live:
            live[pick % len(live)].abort()

    @rule(rid=st.sampled_from(RELAYS), cut=st.booleans())
    def partition(self, rid, cut):
        relay = self.net.relays[rid]
        other = RELAYS[1 - RELAYS.index(rid)]
        relay.partition([other]) if cut else relay.heal_partition()

    @rule(rid=st.sampled_from(RELAYS), reachable=st.booleans())
    def dials(self, rid, reachable):
        (self.net.unreachable.discard if reachable else self.net.unreachable.add)(rid)

    @rule(rid=st.sampled_from(RELAYS), dt=st.sampled_from((0.0, 0.5, 5.0)))
    def gossip(self, rid, dt):
        self.net.now += dt
        self.net.gossip(rid)

    @rule(rid=st.sampled_from(RELAYS), node_id=st.sampled_from(NODES))
    def rumour(self, rid, node_id):
        """Stale gossip: ``rid`` hears that the other relay owns ``node_id``."""
        mesh = self.net.relays[rid].mesh
        entry = mesh.entries.get(RELAYS[1 - RELAYS.index(rid)])
        if entry is not None:
            mesh.merge([replace(entry, seq=entry.seq + 1,
                                nodes=(*entry.nodes, node_id))], self.net.now)

    @rule(pick=st.integers(0, 200), turns=st.integers(1, 4))
    def deliver(self, pick, turns):
        for _ in range(turns):
            ready = [e for e in self.net.ends if e.reader is not None
                     and not e.noticed and (e.inbox or e.dead)]
            if ready:
                self.net.step(ready[pick % len(ready)])

    @rule()
    def settle(self):
        self.net.settle()

    # -- the model's checks ----------------------------------------------------
    @invariant()
    def check_loops(self):
        loops = self.net.loops
        for relay, origin, body, tried in loops[self.checked:]:
            head = parse_routed(body)
            kind, owns, src, dst, channel, start, end = head
            from_trunk = not isinstance(origin.reader, Accepted) \
                or origin.reader.role == relay.TRUNK
            written = [hop for hop, ok in tried if ok]
            assert len(written) <= 1 and [ok for _, ok in tried[:-1]] == [False] * (len(tried) - 1)
            if not written:
                # only a dead origin excuses a frame that reached nobody
                # (or its being an error, about which no error is sent)
                assert origin.dead or kind == rc.T_ERROR, (relay, body)
            books = self.handed[relay.relay_id]
            for hop, ok in tried:
                if hop.last:
                    assert hop.conn is origin
                    err = parse_routed(hop.frame)
                    assert err[:5] == (rc.T_ERROR, not owns, dst, src, channel)
                    assert hop.frame[err[5]:err[6]] == UNKNOWN
                    continue
                assert hop.frame is body
                if hop.trunk is None:
                    reader = hop.conn.reader
                    assert isinstance(reader, Accepted) and reader.relay is relay
                    assert reader.node_id == dst
                    books[0] += 1
                    books[1] += end - start
                else:
                    assert not from_trunk, "a trunk frame left on a trunk"
                    assert hop.trunk[0] != relay.relay_id
                    if ok:
                        far = hop.conn.peer.reader
                        assert far.relay.relay_id == hop.trunk[0]
                        books[0] += 1
                        books[1] += end - start
        self.checked = len(loops)
        for rid, relay in self.net.relays.items():
            assert [relay.forwarded_messages, relay.forwarded_bytes] == self.handed[rid]
        total = sum(r.forwarded_bytes for r in self.net.relays.values())
        assert total == sum(c.value for c in self.registry.instruments(
            "relay.forwarded_bytes_total"))

    @invariant()
    def check_tables(self):
        for relay in self.net.relays.values():
            for node_id, conn in relay.sessions.items():
                assert conn.reader.node_id == node_id and conn.reader.relay is relay
            self.check_routes(relay)

    def check_routes(self, relay):
        """Every route opened is closed at most once, and open ones are
        exactly those the relay still tracks."""
        balance = {}
        for note in relay.flight.records():
            if note["name"] in ("relay.route.open", "relay.route.closed"):
                a = note["attrs"]
                key = (a["src"], a["dst"], a["channel"])
                balance[key] = balance.get(key, 0) + (
                    1 if note["name"] == "relay.route.open" else -1)
                assert balance[key] in (0, 1), (key, relay.flight.records())
        assert {k for k, v in balance.items() if v} == set(relay._routes)

    def check_streams(self):
        """What each link received is whole chunks, in the order sent."""
        for node in self.nodes.values():
            for (peer, channel, owned), link in node._links.items():
                got = drain(link)[0]
                for chunk in self.sent.get((peer, node.node_id, channel, not owned), []):
                    if got.startswith(chunk):
                        got = got[len(chunk):]
                assert got == b"", (node.node_id, peer, channel, owned)


RelayMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None)
TestRelayMachine = RelayMachine.TestCase


def test_quiet_network_delivers_everything_in_order():
    """The stream check above tolerates loss; with no faults there is none."""
    net = Net().mesh()
    nodes = four_nodes(net)
    rng = random.Random(5)
    links, sent = {}, {}
    for src, dst in (("a", "b"), ("a", "c"), ("d", "a"), ("c", "d")):
        links[src, dst] = nodes[src].open_to(dst)
    net.settle()
    for (src, dst), link in links.items():
        for _ in range(20):
            chunk = rng.randbytes(rng.randrange(1, 2000))
            sent[src, dst] = sent.get((src, dst), b"") + chunk
            nodes[src].say(link, chunk)
            if rng.random() < 0.3:
                net.settle()
    net.settle()
    for (src, dst), link in links.items():
        (accepted,) = [l for l in nodes[dst].accepted if l.peer == src]
        assert drain(accepted) == (sent[src, dst], None)
    total = sum(len(v) for v in sent.values())
    assert sum(r.forwarded_bytes for r in net.relays.values()) == total + len(sent["a", "c"]) + len(sent["d", "a"])


# -- totality -----------------------------------------------------------------------

def _valid_frames():
    net = Net().mesh()
    entries = encode_entries(net.relays["r1"].mesh.entries.values())
    return [
        routed_body(rc.T_OPEN, "a", "b", 1, b"tag", ctx=TraceContext.new()),
        routed_body(rc.T_MSG, "a", "b", 1, b"payload" * 9),
        routed_body(rc.T_CLOSE, "b", "a", 1, sender_owns_channel=False),
        routed_body(rc.T_ERROR, "b", "a", 1, UNKNOWN, sender_owns_channel=False),
        Node(None, "a").register_frame(), rc.PING_FRAME,
        net.relays["r1"].gossip_frame(), net.relays["r1"].trunk_hello(),
        net.relays["r1"]._mesh_view_frame(), entries,
    ]


VALID = _valid_frames()


@st.composite
def hostile_bytes(draw):
    """Arbitrary bytes, or a valid frame with a few bytes changed, cut or grown."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    body = bytearray(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(0, 3))):
        if body:
            body[draw(st.integers(0, len(body) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(body)))
    return bytes(body[:cut] if draw(st.booleans()) else body) + draw(st.binary(max_size=8))


@pytest.fixture(scope="module")
def totality_net():
    previous = obs.set_registry(obs.MetricsRegistry())
    net = Net().mesh()
    Node(net, "a").join("r1"), Node(net, "b").join("r1")
    client = Node(net, "z")
    client.connected = True
    yield net, client
    obs.set_registry(previous)


@settings(max_examples=400, deadline=None)
@given(body=hostile_bytes())
def test_decoders_are_total_and_bounded(totality_net, body):
    """Only RelayError/FrameError escape, and no decoder allocates more than
    a small multiple of its input (four hostile length bytes cannot ask for
    4 GiB)."""
    net, client = totality_net
    relay = net.relays["r1"]
    sink = End("sink")
    sink.peer = End("void")
    calls = [
        lambda: relay.classify(body),
        lambda: relay.route("a", body, sink),
        lambda: relay.route_trunk(body, sink),
        lambda: relay.gossip_answer("r2", body),
        lambda: relay.gossip_end(relay.gossip_begin(), body),
        lambda: client.dispatch(body),
        lambda: Node(None, "q").registered(body),
    ]
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                hop = call()
            except (RelayError, FrameError):
                continue
            finally:
                assert tracemalloc.get_traced_memory()[1] - before < 64 * 1024
            if isinstance(hop, rc.Hop):
                assert hop.conn is not None or hop.trunk is not None
    finally:
        tracemalloc.stop()
    client._links.clear()
