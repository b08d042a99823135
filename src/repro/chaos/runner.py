"""Scenario runner: workloads under a fault plan, with invariant checks.

:func:`run_chaos` executes a named workload inside a fresh simulated
grid while a :class:`~repro.chaos.faults.FaultScheduler` injects the
plan's faults, then tears everything down, drains the clock past the
last TIME_WAIT / retransmit deadline and runs the invariant suite.  The
result is a :class:`ChaosReport` whose JSON form is **byte-identical**
for the same ``(scenario, seed, plan)`` triple — a failing run is fully
described (and replayed) by those three values::

    from repro.chaos import run_chaos

    report = run_chaos(
        scenario="wan_transfer",
        seed=7,
        plan="relay_crash@2:for=8;link_down@12:site=A,for=0.4",
    )
    assert report.ok, report.violations

Two independent robustness layers can be toggled per run:

* ``retries`` — the establishment-time decision-tree retry/backoff layer
  (``connect_retrying`` / ``auto_reconnect``).  It survives faults that
  strike *between* transfers but cannot help a stream already in flight.
* ``sessions`` — the :class:`~repro.core.session.SessionLink` layer
  (``StackSpec...with_session()``).  It survives faults that strike
  *mid-stream*: the transport error (or heartbeat watchdog) triggers a
  transparent reconnect + offset negotiation + replay, and the
  application-visible byte stream continues exactly where it stopped.

The acceptance matrix for the session layer is the polarity of the two:
a mid-stream ``conntrack_flush`` / ``nat_expiry`` / ``peer_drop`` /
``relay_crash`` completes byte-identically with ``sessions=True`` and
reproducibly fails with ``sessions=False``.

Each run installs its own metrics registry and trace recorder (restoring
the previous ones afterwards), so fault events (``chaos.*``), retry
recoveries (``broker.*``, ``relay.client.*``, ``session.*``) and
establishment spans from one run never bleed into another.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .. import obs
from ..core.factory import BrokeredConnectionFactory
from ..core.scenarios import GridScenario
from ..core.utilization.spec import StackSpec
from ..mesh.config import MeshConfig
from ..obs import MetricsRegistry, TraceContext, TraceRecorder, seed_ids
from ..obs.assemble import assemble, render_text
from .faults import FaultPlan, FaultScheduler, require_backend
from .invariants import ChannelAudit, check_invariants
from .registry import get_scenario, scenario

__all__ = ["ChaosReport", "Workload", "run_chaos", "scenario"]

#: drain window after teardown: covers TIME_WAIT (2 s), the longest
#: retransmit backoff (60 s) and any cancelled-timer heap residue.
DRAIN_SECONDS = 150.0

#: chunk sizes for the staged-transfer workload
_WRITE_CHUNK = 32 * 1024
_READ_CHUNK = 64 * 1024


@dataclass
class ChaosReport:
    """Everything a chaos run produced, in deterministic JSON-able form."""

    scenario: str
    seed: int
    plan: str
    retries: bool
    sessions: bool
    ok: bool
    fidelity: str = "packet"
    backend: str = "sim"
    violations: list = field(default_factory=list)
    injected: list = field(default_factory=list)
    healed: list = field(default_factory=list)
    channels: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def triple(self) -> tuple:
        """The replayable ``(scenario, seed, plan)`` identity of this run."""
        return (self.scenario, self.seed, self.plan)

    def to_json(self) -> str:
        """Canonical JSON: byte-identical across reruns of the same triple."""
        return json.dumps(
            {
                "scenario": self.scenario,
                "seed": self.seed,
                "plan": self.plan,
                "retries": self.retries,
                "sessions": self.sessions,
                "fidelity": self.fidelity,
                "backend": self.backend,
                "ok": self.ok,
                "violations": self.violations,
                "injected": self.injected,
                "healed": self.healed,
                "channels": self.channels,
                "errors": self.errors,
                "stats": self.stats,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"FAILED ({len(self.violations)})"
        return (
            f"chaos {self.scenario} seed={self.seed} "
            f"plan={self.plan or '<none>'} retries={self.retries} "
            f"sessions={self.sessions} fidelity={self.fidelity}: {verdict}"
        )


class Workload:
    """A built scenario plus the audit state its processes feed.

    ``scenario`` is any object with the chaos scenario surface:
    ``sim``, ``backend``, ``nodes``, ``relay``, ``proxies``,
    ``site_wan_link(...)`` (plus the other fault attach points it
    supports), ``shutdown()`` and ``chaos_stats()`` —
    :class:`~repro.core.scenarios.GridScenario` on the packet tier,
    :class:`~repro.chaos.fleet.FleetScenario` on the flow tier.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.audits: list[ChannelAudit] = []
        self.errors: list[str] = []
        #: scenario-specific invariants, run after the generic suite; each
        #: callable returns a list of violation strings
        self.post_checks: list[Callable[[], list]] = []
        #: scenario-specific result facts (rollout outcome, SLO breach
        #: counts, ...) merged into the report's ``stats``
        self.stats: dict = {}

    def audit(self, name: str) -> ChannelAudit:
        a = ChannelAudit(name)
        self.audits.append(a)
        return a

    def fail(self, where: str, exc: BaseException) -> None:
        self.errors.append(f"{where}: {type(exc).__name__}: {exc}")


def _spec(sessions: bool) -> StackSpec:
    """The data-channel stack for a run: plain TCP, optionally survivable."""
    return StackSpec.tcp().with_session() if sessions else StackSpec.tcp()


def _grid(backend: str, seed: int):
    """An empty scenario for a builder to populate: the simulated grid, or
    its live stand-in on real sockets."""
    from .live import LiveChaosScenario

    return {"sim": GridScenario, "live": LiveChaosScenario}[backend](seed=seed)


async def _connect(factory, peer, spec: StackSpec, retries: bool,
             methods: Optional[list] = None, ctx=None):
    """One channel from ``factory``'s node to node ``peer``: through the
    retry layer, or over one service link opened once ``peer`` holds its
    relay registration."""
    info = peer.info
    if retries:
        return await factory.connect_retrying(
            info.node_id, info, spec=spec, methods=methods, ctx=ctx,
        )
    await peer.relay_client.wait_connected(timeout=30.0)
    service = await factory.node.open_service_link(info.node_id, info)
    channel = await factory.connect(
        service, info, spec=spec, methods=methods, ctx=ctx
    )
    service.close()
    return channel


async def _accept(factory, retries: bool):
    """The responder's half of :func:`_connect`."""
    if retries:
        return await factory.accept_retrying()
    _peer, service = await factory.node.accept_service_link()
    channel = await factory.accept(service)
    service.close()
    return channel


def _staged_transfer(
    wl: Workload,
    sender,
    receiver,
    *,
    seed: int,
    retries: bool,
    sessions: bool,
    stages: int = 2,
    stage_bytes: int = 4 * (1 << 20),
    pace: float = 0.0,
    methods: Optional[list] = None,
    label: str = "stage",
) -> None:
    """Spawn sender/receiver processes moving ``stages`` seeded payloads.

    Each stage is a fresh brokered establishment followed by a bulk
    write/read; both ends feed a :class:`ChannelAudit` so loss,
    duplication and reordering all surface as violations.  ``methods``
    optionally pins the establishment decision tree (e.g. ``["routed"]``
    to force every byte through the relay).  ``pace`` sleeps that long
    after each written chunk, so a fault lands mid-stream on a fast link.
    Both ends run on the nodes' runtime, whichever backend built them.
    """
    scn = wl.scenario
    spec = _spec(sessions)
    runtime = sender.runtime
    now = obs.metrics().now
    payloads = [
        random.Random(f"{seed}:chaos:{label}{i}").randbytes(stage_bytes)
        for i in range(stages)
    ]
    audits = [wl.audit(f"{label}{i}") for i in range(stages)]

    async def send_stage(factory, ctx, payload, audit):
        channel = await _connect(factory, receiver, spec, retries, methods, ctx)
        for off in range(0, len(payload), _WRITE_CHUNK):
            chunk = payload[off : off + _WRITE_CHUNK]
            await channel.write(chunk)
            audit.record_sent(chunk)
            if pace:
                await runtime.sleep(pace)
        await channel.flush()
        channel.close()
        audit.finish_sender()

    async def run_sender():
        try:
            await sender.start()
            factory = BrokeredConnectionFactory(sender)
            for i, (payload, audit) in enumerate(zip(payloads, audits)):
                # One root trace per stage: establishment, relay routing,
                # the responder's records and any session resumes all hang
                # off this context in the assembled cross-node tree.
                ctx = TraceContext.new()
                t0 = now()
                try:
                    await send_stage(factory, ctx, payload, audit)
                except GeneratorExit:
                    # Finalization of a parked process (possibly long after
                    # the run ended) — never record into a later run.
                    raise
                except BaseException:
                    obs.record_span(
                        "chaos.stage", t0, now(), ctx=ctx,
                        node=sender.info.node_id,
                        stage=f"{label}{i}", outcome="error",
                    )
                    raise
                obs.record_span(
                    "chaos.stage", t0, now(), ctx=ctx,
                    node=sender.info.node_id,
                    stage=f"{label}{i}", bytes=len(payload),
                )
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("sender", exc)

    async def run_receiver():
        try:
            await receiver.start()
            factory = BrokeredConnectionFactory(receiver)
            for audit in audits:
                channel = await _accept(factory, retries)
                while True:
                    data = await channel.read(_READ_CHUNK)
                    if not data:
                        break
                    audit.record_received(data)
                channel.close()
                audit.finish_receiver()
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("receiver", exc)

    scn.spawn(run_sender(), "chaos-sender")
    scn.spawn(run_receiver(), "chaos-receiver")


#: per-backend geometry of the staged transfers: a simulated 1.25 MB/s
#: access link spreads a 4 MiB stage over seconds; on loopback a smaller
#: stage is paced so a fault a few hundred milliseconds in lands mid-stream
_WAN = {
    "sim": {"stage_bytes": 4 << 20, "pace": 0.0},
    "live": {"stage_bytes": 512 << 10, "pace": 0.04},
}


@scenario("wan_transfer", backends=("sim", "live"))
def _build_wan_transfer(
    seed: int, retries: bool, sessions: bool, backend: str = "sim"
) -> Workload:
    """Two staged bulk transfers, open site -> NATted+firewalled site.

    Site B sits behind the common campus gateway: a stateful firewall
    *and* a cone NAT, so both mid-stream middlebox faults apply
    (``conntrack_flush`` silently stalls the inbound stream;
    ``nat_expiry`` remaps B's external ports out from under it).  Stage
    1's data link is native (spliced or reverse), so a mid-transfer relay
    crash must not disturb it; stage 2 starts afterwards and needs a
    *fresh* brokered establishment, which only survives relay downtime or
    WAN flaps through the retry layer (``retries=True``).  Mid-stream
    middlebox faults are survived only by the session layer
    (``sessions=True``).  Live, every data byte crosses site B's chaos
    gateway, so a ``conn_kill`` there is fatal without sessions.
    """
    scn = _grid(backend, seed)
    # Slow WAN access (1.25 MB/s) so a multi-MiB stage spans several
    # simulated seconds — faults land *mid-transfer*, not between stages.
    scn.add_site("A", "open", access_bandwidth=1_250_000.0, access_delay=0.01)
    scn.add_site(
        "B", "nat_firewall", access_bandwidth=1_250_000.0, access_delay=0.01
    )
    sender = scn.add_node("A", "alice", auto_reconnect=retries)
    receiver = scn.add_node("B", "bob", auto_reconnect=retries)

    wl = Workload(scn)
    _staged_transfer(
        wl, sender, receiver, seed=seed, retries=retries, sessions=sessions,
        **_WAN[backend],
    )
    return wl


@scenario("wan_transfer_routed", backends=("sim", "live"))
def _build_wan_transfer_routed(
    seed: int, retries: bool, sessions: bool, backend: str = "sim"
) -> Workload:
    """One bulk transfer with the data channel pinned to relay routing.

    Every payload byte crosses the relay (``methods=["routed"]``), so a
    mid-stream ``relay_crash`` or ``peer_drop`` kills the data channel
    outright — the faults that a native (spliced/reverse) link shrugs
    off.  Only the session layer can carry the stream across: the routed
    link EOFs, the initiator re-brokers a fresh one once the relay (and
    the dropped peer's registration) come back, and the replay window
    fills the gap.  Live, the relay is a real server: ``relay_kill`` with
    ``for=`` is the crash that restarts it.
    """
    scn = _grid(backend, seed)
    scn.add_site("A", "open", access_bandwidth=1_250_000.0, access_delay=0.01)
    scn.add_site(
        "B", "nat_firewall", access_bandwidth=1_250_000.0, access_delay=0.01
    )
    sender = scn.add_node("A", "alice", auto_reconnect=retries)
    receiver = scn.add_node("B", "bob", auto_reconnect=retries)

    wl = Workload(scn)
    _staged_transfer(
        wl,
        sender,
        receiver,
        seed=seed,
        retries=retries,
        sessions=sessions,
        stages=1,
        methods=["routed"],
        label="routed",
        **_WAN[backend],
    )
    return wl


def _mesh_convergence_checks(wl: Workload, slack: float = 0.0) -> None:
    """Attach the mesh invariants: bounded detection + survivor agreement.

    * every death record on every observer stays within the configured
      detection bound (``deadline + one jittered gossip interval``), plus
      ``slack`` for a wall clock's scheduling jitter;
    * every relay a fault killed (and no heal restarted) is declared dead
      in every surviving relay's final view.
    """
    scn = wl.scenario

    def check() -> list:
        from ..mesh.config import DEFAULT_MESH_CONFIG

        out = []
        cfg = scn.mesh_config or DEFAULT_MESH_CONFIG
        bound = cfg.detect_bound + slack
        for observer, dead_id, last_heard, detected in scn.mesh_deaths():
            lag = detected - last_heard
            if lag > bound + 1e-9:
                out.append(
                    f"mesh: {observer} declared {dead_id} dead {lag:.3f}s "
                    f"after its last heartbeat (bound {bound:.3f}s)"
                )
        killed = set(getattr(scn, "down_at_shutdown", ()))
        for rid in sorted(scn.relays):
            server = scn.relays[rid]
            if rid in killed or server.mesh is None:
                continue
            for dead_rid in sorted(killed):
                if dead_rid != rid and dead_rid not in server.mesh.dead:
                    out.append(
                        f"mesh: survivor {rid} never declared killed "
                        f"relay {dead_rid} dead"
                    )
        return out

    wl.post_checks.append(check)


def _mesh_scenario(seed: int, topology=None, backend: str = "sim",
                   config: Optional[MeshConfig] = None):
    """Three public relays; full mesh unless a ``topology`` seeds gossip."""
    scn = _grid(backend, seed)
    scn.add_relay("r2")
    scn.add_relay("r3")
    scn.enable_mesh(topology=topology, config=config)
    return scn


#: per-backend mesh_failover numbers: the stage, the gossip cadence (a
#: live run must converge within seconds) and the detection-bound slack a
#: wall clock's scheduling jitter needs
_MESH = {
    "sim": {"stage_bytes": 4 << 20, "pace": 0.0, "config": None, "slack": 0.0},
    "live": {
        "stage_bytes": 768 << 10,
        "pace": 0.04,
        "config": MeshConfig(gossip_interval=0.15, gossip_jitter=0.2, deadline=0.9),
        "slack": 1.0,
    },
}


@scenario("mesh_failover", backends=("sim", "live"))
def _build_mesh_failover(
    seed: int, retries: bool, sessions: bool, backend: str = "sim"
) -> Workload:
    """Relay-routed transfer over a 3-relay mesh, built to be killed.

    Both nodes register with every relay; the data channel is pinned to
    routed messages, so every byte crosses whichever relay the route
    table picked.  A ``relay_kill`` on the carrying relay EOFs the
    stream mid-transfer: the mesh detects the death within the gossip
    deadline, the sender's next establishment lands on a surviving
    relay, and (with ``sessions=True``) the replay window resumes the
    payload with zero loss.  Without the mesh (``wan_transfer_routed``
    plus an unhealed relay kill) the same fault is fatal — the polarity
    the failover test suite pins.
    """
    geo = _MESH[backend]
    scn = _mesh_scenario(seed, backend=backend, config=geo["config"])
    scn.add_site("A", "open", access_bandwidth=1_250_000.0, access_delay=0.01)
    scn.add_site(
        "B", "nat_firewall", access_bandwidth=1_250_000.0, access_delay=0.01
    )
    sender = scn.add_node("A", "alice", relays="all")
    receiver = scn.add_node("B", "bob", relays="all")

    wl = Workload(scn)
    _staged_transfer(
        wl,
        sender,
        receiver,
        seed=seed,
        retries=retries,
        sessions=sessions,
        stages=1,
        stage_bytes=geo["stage_bytes"],
        pace=geo["pace"],
        methods=["routed"],
        label="mesh",
    )
    _mesh_convergence_checks(wl, slack=geo["slack"])
    return wl


@scenario("relay_chain")
def _build_relay_chain(seed: int, retries: bool, sessions: bool) -> Workload:
    """Endpoints pinned to the two ends of a gossip chain (r1 - r2 - r3).

    The sender only registers with r1, the receiver only with r3, and
    gossip is seeded as a chain — so reaching the receiver requires the
    ownership map to propagate down the chain and the frames to cross an
    inter-relay trunk.  A mid-stream ``relay_partition`` between the
    trunk's ends forces the unknown-destination path until the heal;
    sessions carry the stream across.
    """
    scn = _mesh_scenario(
        seed, topology={"r1": ["r2"], "r2": ["r1", "r3"], "r3": ["r2"]}
    )
    scn.add_site("A", "open", access_bandwidth=1_250_000.0, access_delay=0.01)
    scn.add_site(
        "B", "nat_firewall", access_bandwidth=1_250_000.0, access_delay=0.01
    )
    sender = scn.add_node("A", "alice", relays=["r1"])
    receiver = scn.add_node("B", "bob", relays=["r3"])

    wl = Workload(scn)
    _staged_transfer(
        wl,
        sender,
        receiver,
        seed=seed,
        retries=retries,
        sessions=sessions,
        stages=1,
        methods=["routed"],
        label="chain",
    )
    _mesh_convergence_checks(wl)
    return wl


@scenario("nat_to_nat")
def _build_nat_to_nat(seed: int, retries: bool, sessions: bool) -> Workload:
    """Two NATted+firewalled sites, all traffic mesh-routed.

    Neither site can accept unsolicited inbound, so the relay overlay is
    the only viable path (the paper's extreme case, made survivable):
    both endpoints hold registrations with every relay and the transfer
    is pinned to routed messages.  Relay kills and restarts reshuffle
    the route table mid-stream.
    """
    scn = _mesh_scenario(seed)
    scn.add_site(
        "A", "nat_firewall", access_bandwidth=1_250_000.0, access_delay=0.01
    )
    scn.add_site(
        "B", "nat_firewall", access_bandwidth=1_250_000.0, access_delay=0.01
    )
    sender = scn.add_node("A", "alice", relays="all")
    receiver = scn.add_node("B", "bob", relays="all")

    wl = Workload(scn)
    _staged_transfer(
        wl,
        sender,
        receiver,
        seed=seed,
        retries=retries,
        sessions=sessions,
        stages=1,
        methods=["routed"],
        label="natnat",
    )
    _mesh_convergence_checks(wl)
    return wl


@scenario("socks_transfer")
def _build_socks_transfer(seed: int, retries: bool, sessions: bool) -> Workload:
    """One bulk transfer into a severe site: everything through SOCKS.

    Site B blocks all direct traffic; its nodes reach the world (the
    relay included) only via the gateway's SOCKS proxy, so the data
    channel is a stream spliced through the proxy process.  The matching
    fault is ``proxy_restart``: a gateway reboot resets every proxied
    stream at once even though neither endpoint's network blinked.  The
    session layer re-brokers through the recovered proxy and replays.
    """
    scn = GridScenario(seed=seed)
    scn.add_site("A", "open", access_bandwidth=1_250_000.0, access_delay=0.01)
    scn.add_site("B", "severe", access_bandwidth=1_250_000.0, access_delay=0.01)
    sender = scn.add_node("A", "alice", auto_reconnect=retries)
    receiver = scn.add_node("B", "bob", auto_reconnect=retries)

    wl = Workload(scn)
    _staged_transfer(
        wl,
        sender,
        receiver,
        seed=seed,
        retries=retries,
        sessions=sessions,
        stages=1,
        label="socks",
    )
    return wl


#: ipl_fanin geometry: (site name, site kind, worker name)
_FANIN_WORKERS = (
    ("W1", "open", "w1"),
    ("W2", "firewall", "w2"),
    ("W3", "cone_nat", "w3"),
)
_FANIN_MESSAGES = 16
_FANIN_MESSAGE_BYTES = 256 * 1024


@scenario("ipl_fanin")
def _build_ipl_fanin(seed: int, retries: bool, sessions: bool) -> Workload:
    """Many-node IPL port fan-in: three workers stream into one collector.

    Workers on heterogeneous sites (open / firewalled / NATted) each
    connect a send port to the collector's ``gather`` receive port — the
    collector sits behind the campus NAT+firewall gateway, so a
    ``conntrack_flush`` there stalls *all three* inbound streams at once.
    Per-worker audits check that every message arrives intact and
    FIFO-ordered per origin; the fan-in queue itself may interleave
    origins freely.
    """
    scn = GridScenario(seed=seed)
    scn.add_site(
        "HUB", "nat_firewall", access_bandwidth=12_500_000.0, access_delay=0.01
    )
    for site, kind, _name in _FANIN_WORKERS:
        scn.add_site(site, kind, access_bandwidth=2_500_000.0, access_delay=0.01)

    spec = _spec(sessions)
    sink = scn.add_ibis("HUB", "sink", default_spec=spec, auto_reconnect=retries)
    workers = [
        scn.add_ibis(site, name, default_spec=spec, auto_reconnect=retries)
        for site, _kind, name in _FANIN_WORKERS
    ]

    wl = Workload(scn)
    audits = {w.name: wl.audit(f"fanin-{w.name}") for w in workers}
    payloads = {
        w.name: [
            random.Random(f"{seed}:chaos:fanin:{w.name}:{i}").randbytes(
                _FANIN_MESSAGE_BYTES
            )
            for i in range(_FANIN_MESSAGES)
        ]
        for w in workers
    }

    async def run_worker(ibis, audit, messages):
        try:
            await ibis.start()
            sp = ibis.create_send_port("out")
            # The collector registers "gather" concurrently with our
            # startup; retry the name-service lookup until it appears.
            for attempt in range(40):
                try:
                    await sp.connect("gather")
                    break
                except Exception:
                    if attempt == 39:
                        raise
                    await scn.sim.timeout(0.25)
            for payload in messages:
                m = sp.new_message()
                m.write_bytes(payload)
                await m.finish()
                audit.record_sent(payload)
            audit.finish_sender()
            await ibis.leave()
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail(f"worker:{ibis.name}", exc)

    async def run_collector():
        try:
            await sink.start()
            port = await sink.create_receive_port("gather")
            expected = len(workers) * _FANIN_MESSAGES
            for _ in range(expected):
                msg = await port.receive()
                audits[msg.origin].record_received(msg.read_bytes())
            for audit in audits.values():
                audit.finish_receiver()
            await sink.leave()
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("collector", exc)

    scn.sim.process(run_collector(), name="chaos-collector")
    for w in workers:
        scn.sim.process(
            run_worker(w, audits[w.name], payloads[w.name]),
            name=f"chaos-{w.name}",
        )
    return wl


#: per-backend geometry of the mux scenarios: the bytes on each of
#: mux_fanin's channels and in mux_starvation's bulk stream.  Loopback
#: moves 4 MiB in tens of milliseconds, less than task start-up spreads
#: the channels, so live runs move eight times as much
_MUX = {
    "sim": {"channel_bytes": 128 << 10, "bulk_bytes": 4 << 20},
    "live": {"channel_bytes": 1 << 20, "bulk_bytes": 32 << 20},
}
_MUX_CHANNELS = 32


def _mux_spec(sessions: bool) -> StackSpec:
    spec = StackSpec.tcp().with_mux()
    return spec.with_session() if sessions else spec


@scenario("mux_fanin", backends=("sim", "live"))
def _build_mux_fanin(
    seed: int, retries: bool, sessions: bool, backend: str = "sim"
) -> Workload:
    """32 logical channels share ONE routed WAN link (the tentpole claim).

    Every conversation between the pair runs ``tcp_block|mux`` pinned to
    relay routing, so the factory's per-peer endpoint sharing puts all 32
    channels on a single carrier link through the relay — establishment
    happens once, conversations 2..32 only exchange agreement frames.
    All channels then transfer concurrently; the post-checks assert the
    round-robin scheduler kept them fair (completion times cluster) on
    top of the generic per-channel delivery audits and the registry-wide
    mux credit-conservation invariant.
    """
    scn = _grid(backend, seed)
    scn.add_site("A", "open", access_bandwidth=2_500_000.0, access_delay=0.01)
    scn.add_site(
        "B", "nat_firewall", access_bandwidth=2_500_000.0, access_delay=0.01
    )
    sender = scn.add_node("A", "alice", auto_reconnect=retries)
    receiver = scn.add_node("B", "bob", auto_reconnect=retries)

    wl = Workload(scn)
    spec = _mux_spec(sessions)
    payloads = [
        random.Random(f"{seed}:chaos:muxfanin:{i}").randbytes(
            _MUX[backend]["channel_bytes"]
        )
        for i in range(_MUX_CHANNELS)
    ]
    audits = [wl.audit(f"mux{i:02d}") for i in range(_MUX_CHANNELS)]
    completions: dict[int, float] = {}
    started: dict[str, float] = {}

    async def send_one(channel, idx):
        try:
            payload = payloads[idx]
            await channel.write(idx.to_bytes(4, "big"))
            for off in range(0, len(payload), _WRITE_CHUNK):
                chunk = payload[off : off + _WRITE_CHUNK]
                await channel.write(chunk)
                audits[idx].record_sent(chunk)
            await channel.flush()
            channel.close()
            audits[idx].finish_sender()
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail(f"mux-sender:{idx}", exc)

    async def run_sender():
        try:
            await sender.start()
            factory = BrokeredConnectionFactory(sender)
            channels = []
            for i in range(_MUX_CHANNELS):
                channel = await _connect(
                    factory, receiver, spec, retries, ["routed"], TraceContext.new()
                )
                channels.append(channel)
            # all channels are up before any payload moves, so the fair
            # scheduler sees 32 simultaneously-ready channels
            started["t0"] = scn.sim.now
            for i, channel in enumerate(channels):
                scn.spawn(send_one(channel, i), f"mux-send-{i}")
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("mux-sender", exc)

    async def read_one(channel):
        try:
            idx = int.from_bytes(await channel.read_exactly(4), "big")
            while True:
                data = await channel.read(_READ_CHUNK)
                if not data:
                    break
                audits[idx].record_received(data)
            channel.close()
            audits[idx].finish_receiver()
            completions[idx] = scn.sim.now
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("mux-reader", exc)

    async def run_receiver():
        try:
            await receiver.start()
            factory = BrokeredConnectionFactory(receiver)
            for i in range(_MUX_CHANNELS):
                channel = await _accept(factory, retries)
                scn.spawn(read_one(channel), f"mux-read-{i}")
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("mux-receiver", exc)

    def check_fairness() -> list:
        if len(completions) != _MUX_CHANNELS or "t0" not in started:
            return []  # delivery audits already report the missing channels
        finish = sorted(completions.values())
        spread = finish[-1] - finish[0]
        elapsed = finish[-1] - started["t0"]
        if elapsed > 0 and spread > 0.35 * elapsed:
            return [
                "mux: unfair scheduling: completion spread "
                f"{spread:.3f}s over a {elapsed:.3f}s transfer"
            ]
        return []

    wl.post_checks.append(check_fairness)
    scn.spawn(run_sender(), "chaos-mux-sender")
    scn.spawn(run_receiver(), "chaos-mux-receiver")
    return wl


#: mux_starvation geometry
_STARVE_PINGS = 24
_STARVE_LATENCY_BOUND = 2.0


@scenario("mux_starvation", backends=("sim", "live"))
def _build_mux_starvation(
    seed: int, retries: bool, sessions: bool, backend: str = "sim"
) -> Workload:
    """Bulk + interactive channels on one carrier: no starvation allowed.

    A bulk stream (4 MiB simulated) and a tiny request/echo conversation
    share one routed link through the shared mux endpoint.  Without fair
    scheduling the interactive channel's first echo would arrive only
    after the bulk transfer drains (seconds); the post-check bounds
    every round trip, so a scheduler that lets bulk monopolise the
    carrier fails the run.
    """
    scn = _grid(backend, seed)
    scn.add_site("A", "open", access_bandwidth=1_250_000.0, access_delay=0.01)
    scn.add_site(
        "B", "nat_firewall", access_bandwidth=1_250_000.0, access_delay=0.01
    )
    alice = scn.add_node("A", "alice", auto_reconnect=retries)
    bob = scn.add_node("B", "bob", auto_reconnect=retries)

    wl = Workload(scn)
    spec = _mux_spec(sessions)
    bulk_payload = random.Random(f"{seed}:chaos:muxbulk").randbytes(
        _MUX[backend]["bulk_bytes"]
    )
    bulk_audit = wl.audit("bulk")
    ping_audit = wl.audit("interactive")
    latencies: list[float] = []

    async def send_bulk(channel):
        try:
            await channel.write(b"B")
            for off in range(0, len(bulk_payload), _WRITE_CHUNK):
                chunk = bulk_payload[off : off + _WRITE_CHUNK]
                await channel.write(chunk)
                bulk_audit.record_sent(chunk)
            await channel.flush()
            channel.close()
            bulk_audit.finish_sender()
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("bulk-sender", exc)

    async def ping_pong(channel):
        try:
            await channel.write(b"I")
            await channel.flush()
            for i in range(_STARVE_PINGS):
                msg = bytes([i]) * 64
                t0 = scn.sim.now
                await channel.write(msg)
                await channel.flush()
                ping_audit.record_sent(msg)
                echo = await channel.read_exactly(len(msg))
                latencies.append(scn.sim.now - t0)
                if echo != msg:
                    raise ValueError(f"interactive echo {i} corrupted")
            channel.close()
            ping_audit.finish_sender()
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("interactive-sender", exc)

    async def run_alice():
        try:
            await alice.start()
            factory = BrokeredConnectionFactory(alice)
            bulk = await _connect(
                factory, bob, spec, retries, ["routed"], TraceContext.new()
            )
            ping = await _connect(
                factory, bob, spec, retries, ["routed"], TraceContext.new()
            )
            scn.spawn(send_bulk(bulk), "mux-bulk")
            scn.spawn(ping_pong(ping), "mux-interactive")
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("alice", exc)

    async def serve_one(channel):
        kind = await channel.read_exactly(1)
        if kind == b"B":
            while True:
                data = await channel.read(_READ_CHUNK)
                if not data:
                    break
                bulk_audit.record_received(data)
            channel.close()
            bulk_audit.finish_receiver()
        else:
            for _ in range(_STARVE_PINGS):
                msg = await channel.read_exactly(64)
                ping_audit.record_received(msg)
                await channel.write(msg)
                await channel.flush()
            channel.close()
            ping_audit.finish_receiver()

    async def run_bob():
        try:
            await bob.start()
            factory = BrokeredConnectionFactory(bob)
            for i in range(2):
                channel = await _accept(factory, retries)
                scn.spawn(serve_one(channel), f"mux-serve-{i}")
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("bob", exc)

    def check_latency() -> list:
        out = []
        if len(latencies) != _STARVE_PINGS:
            out.append(
                f"mux: only {len(latencies)}/{_STARVE_PINGS} interactive "
                "round trips completed"
            )
        worst = max(latencies, default=0.0)
        if worst > _STARVE_LATENCY_BOUND:
            out.append(
                "mux: interactive channel starved: worst round trip "
                f"{worst:.3f}s > {_STARVE_LATENCY_BOUND}s bound"
            )
        return out

    wl.post_checks.append(check_latency)
    scn.spawn(run_alice(), "chaos-mux-alice")
    scn.spawn(run_bob(), "chaos-mux-bob")
    return wl


def run_chaos(
    scenario: str = "wan_transfer",
    seed: int = 1,
    plan: Union[str, FaultPlan] = "",
    retries: bool = True,
    sessions: bool = False,
    until: float = 900.0,
    backend: str = "sim",
    trace_path: Optional[str] = None,
    export_dir: Optional[str] = None,
    bundle_dir: Optional[str] = None,
    telemetry_path: Optional[str] = None,
) -> ChaosReport:
    """Run ``scenario`` under ``plan``; returns the invariant report.

    ``plan`` accepts either a :class:`FaultPlan` or its canonical string
    form.  ``sessions`` wraps every data channel in a survivable
    :class:`~repro.core.session.SessionLink`.  The simulation tier is the
    one the scenario is built on — ``packet`` for the classic workloads,
    ``flow`` for fleet-scale ones — and the report names it; the
    teardown, drain and invariant suite are the same on both.
    ``backend`` selects where the scenario runs: ``"sim"``
    (this module's deterministic engine, :func:`_drive_sim`) or
    ``"live"`` (:func:`repro.chaos.live.drive_live`) — real sockets, the
    same ``(scenario, seed, plan)`` triple, wall-clock fault scheduling
    through the in-process chaos proxy, and ``until`` a wall-clock
    deadline.  Only the drive differs: the post-checks, faults-fired
    check, telemetry, stats and report below serve both.  ``trace_path``
    optionally exports the run's metrics + trace as JSON lines (the
    :mod:`repro.obs.export` schema).

    ``export_dir`` writes *per-node* JSONL exports (one file per grid
    node, the relay, and every SOCKS proxy — each carrying that node's
    trace records plus its flight-recorder ring) alongside a combined
    ``run.jsonl``; feed them to ``python -m repro.obs.assemble``.

    ``bundle_dir`` arms the postmortem trigger: when the run violates an
    invariant, a bundle is dumped there — fault plan and seed
    (``manifest.json``), the full report, metrics, every node's flight
    recorder, and the assembled causal trace — enough to diagnose the
    failure without re-running it.

    ``telemetry_path`` writes the run's streaming-telemetry capture (the
    delta-snapshot JSONL from :mod:`repro.obs.telemetry`) for scenarios
    that enable the telemetry plane; ``python -m repro.obs.watch`` can
    replay it.
    """
    if backend == "live":
        from .live import drive_live as drive
    elif backend == "sim":
        drive = _drive_sim
    else:
        raise ValueError(f"unknown chaos backend {backend!r} (sim|live)")
    sdef = get_scenario(scenario)
    plan = plan if isinstance(plan, FaultPlan) else FaultPlan.parse(plan)
    require_backend(plan, backend)

    # Scoped observability, installed *before* the scenario is built so
    # use_sim_clock binds the fresh registry and recorder both.  Trace ids
    # are reseeded from the run seed so the assembled causal tree (ids
    # included) is as replayable as the report itself.
    registry = MetricsRegistry()
    recorder = TraceRecorder()
    prev_registry = obs.set_registry(registry)
    prev_recorder = obs.set_tracer(recorder)
    seed_ids(seed)
    try:
        wl, scheduler, violations, clock = drive(
            sdef, seed, plan, retries, sessions, until, registry, recorder,
        )
        scn = wl.scenario
        for check in wl.post_checks:
            violations.extend(check())
        if len(scheduler.injected) != len(plan):
            violations.append(
                f"chaos: only {len(scheduler.injected)}/{len(plan)} "
                "faults fired before the deadline"
            )
        telemetry_log = getattr(scn, "telemetry_log", None)
        if telemetry_log is not None:
            violations.extend(obs.telemetry_violations(telemetry_log.records))
            if telemetry_path is not None:
                telemetry_log.write_jsonl(telemetry_path)
        elif telemetry_path is not None:
            obs.write_telemetry_jsonl(telemetry_path, [])
        stats = dict(scn.chaos_stats())
        stats.update(wl.stats)
        stats.update(clock)
        stats.update(
            {
                "session_reconnects": sum(
                    c.value
                    for c in registry.instruments("session.reconnects_total")
                ),
                "session_replayed_bytes": sum(
                    c.value
                    for c in registry.instruments("session.replayed_bytes_total")
                ),
                "trace_records": len(recorder.records),
            }
        )
        report = ChaosReport(
            scenario=scenario,
            seed=seed,
            plan=plan.spec(),
            retries=retries,
            sessions=sessions,
            fidelity=scn.backend.tier if backend == "sim" else backend,
            backend=backend,
            ok=not violations,
            violations=sorted(violations),
            injected=list(scheduler.injected),
            healed=list(scheduler.healed),
            channels=[a.summary() for a in wl.audits],
            errors=list(wl.errors),
            stats=stats,
        )
        if trace_path is not None:
            obs.export_jsonl(trace_path, registry=registry, recorder=recorder)
        if export_dir is not None:
            _export_per_node(export_dir, scn, registry, recorder)
        if bundle_dir is not None and not report.ok:
            _write_bundle(bundle_dir, report, scn, registry, recorder)
        return report
    finally:
        obs.set_registry(prev_registry)
        obs.set_tracer(prev_recorder)


def _drive_sim(sdef, seed: int, plan: FaultPlan, retries: bool,
               sessions: bool, until: float,
               registry: MetricsRegistry, recorder: TraceRecorder) -> tuple:
    """The simulator's drive: build, arm, run to ``until``, tear down and
    drain (anything still alive afterwards is a leak), then the invariant
    suite.  Returns ``(workload, scheduler, violations, clock)``."""
    wl = sdef.build(seed, retries, sessions)
    scn = wl.scenario
    scheduler = FaultScheduler(scn, plan)
    scheduler.arm()
    scn.sim.run(until=until)
    scn.shutdown()
    scn.sim.run(until=scn.sim.now + DRAIN_SECONDS)
    violations = check_invariants(
        scn, wl.audits, wl.errors, registry=registry, recorder=recorder
    )
    return wl, scheduler, violations, {"sim_seconds": scn.sim.now}


# -- per-node exports & postmortem bundles -------------------------------------


def _node_flights(scn) -> dict:
    """Every flight recorder in the scenario, keyed by its node tag (a
    live scenario's relays keep one; its nodes and gateways do not)."""
    flights = {
        node_id: node.flight
        for node_id, node in scn.nodes.items()
        if getattr(node, "flight", None) is not None
    }
    relays = getattr(scn, "relays", {}).values() or [scn.relay]
    for box in [*relays, *scn.proxies.values()]:
        flight = getattr(box, "flight", None)
        if flight is not None:
            flights[flight.node] = flight
    return flights


def _safe_name(node: str) -> str:
    return node.replace(":", "_").replace("/", "_")


def _export_per_node(
    out_dir: str,
    scn,
    registry: MetricsRegistry,
    recorder: TraceRecorder,
) -> list:
    """One JSONL file per node (traces + flight ring) plus ``run.jsonl``."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for node, flight in sorted(_node_flights(scn).items()):
        path = os.path.join(out_dir, f"{_safe_name(node)}.jsonl")
        obs.export_jsonl(path, recorder=recorder, node=node, flight=flight)
        paths.append(path)
    combined = os.path.join(out_dir, "run.jsonl")
    obs.export_jsonl(combined, registry=registry, recorder=recorder)
    paths.append(combined)
    return paths


def _write_bundle(
    bundle_dir: str,
    report: ChaosReport,
    scn,
    registry: MetricsRegistry,
    recorder: TraceRecorder,
) -> str:
    """Dump a postmortem bundle for a failed run; returns its directory."""
    backend = "" if report.backend == "sim" else f"-{report.backend}"
    root = os.path.join(
        bundle_dir, f"{report.scenario}{backend}-seed{report.seed}"
    )
    nodes_dir = os.path.join(root, "nodes")
    os.makedirs(nodes_dir, exist_ok=True)

    flights = _node_flights(scn)
    with open(os.path.join(root, "report.json"), "w", encoding="utf-8") as out:
        out.write(report.to_json() + "\n")
    for node, flight in sorted(flights.items()):
        obs.export_jsonl(
            os.path.join(nodes_dir, f"{_safe_name(node)}.jsonl"),
            recorder=recorder, node=node, flight=flight,
        )
    obs.export_jsonl(
        os.path.join(root, "metrics.jsonl"), registry=registry, recorder=recorder
    )

    # Assembled causal trace: stitch the recorder's records and every
    # node's flight ring exactly the way the CLI would stitch the files.
    records = list(recorder.records)
    for flight in flights.values():
        records.extend(flight.records())
    assembled = assemble(records)
    with open(os.path.join(root, "trace.json"), "w", encoding="utf-8") as out:
        json.dump(assembled, out, indent=2, sort_keys=True)
        out.write("\n")
    with open(os.path.join(root, "trace.txt"), "w", encoding="utf-8") as out:
        out.write(render_text(assembled) + "\n")

    manifest = {
        "scenario": report.scenario,
        "backend": report.backend,
        "seed": report.seed,
        "plan": report.plan,
        "retries": report.retries,
        "sessions": report.sessions,
        "violations": report.violations,
        "injected": report.injected,
        "healed": report.healed,
        "nodes": sorted(flights),
        "traces": [t["trace_id"] for t in assembled["traces"]],
        "files": ["report.json", "metrics.jsonl", "trace.json", "trace.txt"]
        + [f"nodes/{_safe_name(n)}.jsonl" for n in sorted(flights)],
    }
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as out:
        json.dump(manifest, out, indent=2, sort_keys=True)
        out.write("\n")
    return root
