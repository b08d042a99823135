"""Seeded, time-stamped fault plans for simulated grid scenarios.

A :class:`FaultPlan` is an ordered set of :class:`Fault` objects, each
carrying an absolute injection time on the simulation clock.  Plans have a
canonical one-line string form::

    relay_crash@2:for=8;link_down@12:site=A,for=0.4;conntrack_flush@5:site=B

which round-trips through :meth:`FaultPlan.parse` — that string, together
with a scenario name and a seed, is the complete *replayable triple* a
failing chaos run is reported as.

The :class:`FaultScheduler` arms a plan against a running
:class:`~repro.core.scenarios.GridScenario`: every fault fires at its
timestamp via the injection hooks the simnet/core layers expose
(``Link.set_down``, ``Transmitter.loss``, ``RelayServer.stop/start``,
``RelayClient.drop``, ``StatefulFirewall.flush``,
``NatBox.expire_mappings``, ``SocksServer.stop/start``) and is traced as
a ``chaos.inject`` / ``chaos.heal`` event pair.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterable, Optional

from .. import obs

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultScheduler",
    "FaultPlanError",
    "require_backend",
    "LinkDown",
    "LossBurst",
    "WanDegrade",
    "RelayCrash",
    "RelayKill",
    "RelayPartition",
    "PeerDrop",
    "ConntrackFlush",
    "NatExpiry",
    "ProxyRestart",
    "ConnKill",
    "Stall",
    "Blackhole",
    "LatencySpike",
    "Truncate",
]


class FaultPlanError(ValueError):
    """Malformed fault-plan specification."""


def _fmt(value: float) -> str:
    """Canonical float rendering: no trailing zeros, no scientific noise."""
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text else "0"


@dataclass(frozen=True)
class Fault:
    """A single scheduled fault.  ``at`` is absolute simulated time."""

    at: float

    #: canonical kind tag used in the plan string (set per subclass)
    kind = ""

    #: which chaos backends can express this fault.  The classic kinds
    #: drive simulated middleboxes and links ("sim"); the proxy-based
    #: kinds drive the live :class:`~repro.livenet.proxy.ChaosTcpProxy`
    #: ("live").  A plan is validated against the chosen backend before
    #: the run starts (:func:`require_backend`).
    backends = ("sim",)

    def inject(self, ctx: "FaultContext") -> Optional[dict]:
        """Apply the fault; returns what it observed (``sessions``,
        ``flows``, ...), which the ``chaos.inject`` event adds to
        :meth:`_args`."""
        raise NotImplementedError

    def _args(self) -> dict:
        """Arguments in canonical (field) order for :meth:`describe`."""
        return {
            _FIELD_ARGS.get(f.name, f.name): getattr(self, f.name)
            for f in fields(self)[1:]
        }

    def describe(self) -> str:
        args = self._args()
        head = f"{self.kind}@{_fmt(self.at)}"
        if not args:
            return head
        body = ",".join(
            f"{k}={_fmt(v) if isinstance(v, float) else v}"
            for k, v in args.items()
        )
        return f"{head}:{body}"


@dataclass(frozen=True)
class LinkDown(Fault):
    """Cut a site's WAN access link for ``duration`` seconds (a flap)."""

    site: str = ""
    duration: float = 1.0

    kind = "link_down"

    def inject(self, ctx: "FaultContext") -> None:
        link = ctx.scenario.site_wan_link(self.site)
        link.set_down(True)
        ctx.heal_later(
            self.duration, lambda: link.set_down(False), self, site=self.site
        )


@dataclass(frozen=True)
class LossBurst(Fault):
    """Raise a site's WAN-link loss rate to ``loss`` for ``duration`` s."""

    site: str = ""
    loss: float = 0.5
    duration: float = 1.0

    kind = "loss_burst"

    def inject(self, ctx: "FaultContext") -> None:
        link = ctx.scenario.site_wan_link(self.site)
        previous = (link.a_to_b.loss, link.b_to_a.loss)
        link.a_to_b.loss = self.loss
        link.b_to_a.loss = self.loss

        def heal():
            link.a_to_b.loss, link.b_to_a.loss = previous

        ctx.heal_later(self.duration, heal, self, site=self.site)


@dataclass(frozen=True)
class WanDegrade(Fault):
    """Scale a site's WAN-link capacity down by ``scale`` for ``duration`` s.

    Bandwidth *and* queue depth shrink together (routers are sized to
    their BDP, so a degraded path also queues less — and RTT stays near
    the propagation floor instead of inflating with a now-oversized
    queue); ``loss`` optionally adds a loss floor for the episode.  The
    canonical tuner stimulus: the path gets slower, not dead.
    """

    site: str = ""
    scale: float = 4.0
    loss: float = 0.0
    duration: float = 5.0

    kind = "wan_degrade"

    def inject(self, ctx: "FaultContext") -> None:
        if self.scale <= 0:
            raise FaultPlanError(f"bad wan_degrade scale {self.scale}")
        link = ctx.scenario.site_wan_link(self.site)
        previous = []
        for tx in (link.a_to_b, link.b_to_a):
            previous.append((tx.bandwidth, tx.queue_bytes, tx.loss))
            tx.bandwidth = tx.bandwidth / self.scale
            tx.queue_bytes = max(4096, int(tx.queue_bytes / self.scale))
            if self.loss:
                tx.loss = max(tx.loss, self.loss)

        def heal():
            for tx, (bw, qb, lo) in zip((link.a_to_b, link.b_to_a), previous):
                tx.bandwidth, tx.queue_bytes, tx.loss = bw, qb, lo

        ctx.heal_later(self.duration, heal, self, site=self.site)


@dataclass(frozen=True)
class RelayCrash(Fault):
    """Crash the relay server, restarting it ``duration`` seconds later.

    Every registered node loses its session (and every routed link EOFs);
    clients with ``auto_reconnect`` re-register once the relay is back.
    """

    duration: float = 5.0

    kind = "relay_crash"

    def inject(self, ctx: "FaultContext") -> dict:
        relay = ctx.scenario.relay
        sessions = len(relay.sessions)
        relay.stop()
        ctx.heal_later(self.duration, relay.start, self)
        return {"sessions": sessions}


@dataclass(frozen=True)
class RelayKill(Fault):
    """Kill one relay of a mesh (optionally restarting it later).

    Unlike :class:`RelayCrash` (which always targets the primary relay)
    this addresses a relay by mesh id, works on both backends, and by
    default leaves the relay dead — the failover case: surviving relays
    must detect the death and absorb the traffic.
    """

    relay: str = "r1"
    duration: float = 0.0

    kind = "relay_kill"
    backends = ("sim", "live")

    def _args(self) -> dict:
        args = super()._args()
        if not self.duration:
            del args["for"]
        return args

    def inject(self, ctx: "FaultContext") -> dict:
        server = ctx.scenario.relays[self.relay]
        sessions = len(server.sessions)
        server.stop()
        if self.duration:

            def restart():
                # The sim relay restarts synchronously; the live relay's
                # start() is a coroutine that must be scheduled.
                result = server.start()
                if hasattr(result, "__await__"):
                    import asyncio

                    asyncio.ensure_future(result)

            ctx.heal_later(self.duration, restart, self, relay=self.relay)
        return {"sessions": sessions}


@dataclass(frozen=True)
class RelayPartition(Fault):
    """Symmetrically cut gossip + trunks between a relay and some peers.

    ``peers`` is a ``+``-separated list of relay ids.  Both sides refuse
    each other's gossip exchanges and trunk connections until the heal
    ``duration`` seconds later; client registrations are untouched, so
    this exercises routing-around rather than failover.
    """

    relay: str = "r1"
    peers: str = ""
    duration: float = 5.0

    kind = "relay_partition"

    def inject(self, ctx: "FaultContext") -> None:
        server = ctx.scenario.relays[self.relay]
        ids = [p for p in self.peers.split("+") if p]
        others = [ctx.scenario.relays[p] for p in ids]
        server.partition(ids)
        for other in others:
            other.partition([self.relay])

        def heal():
            server.heal_partition(ids)
            for other in others:
                other.heal_partition([self.relay])

        ctx.heal_later(self.duration, heal, self, relay=self.relay)


@dataclass(frozen=True)
class PeerDrop(Fault):
    """Sever one node's relay session mid-whatever-it-was-doing.

    From every peer's point of view the node disappears (its service and
    routed links EOF) — the "broker peer disappearing mid-negotiation"
    case.  The node itself reconnects only with ``auto_reconnect``.
    """

    node: str = ""

    kind = "peer_drop"

    def inject(self, ctx: "FaultContext") -> None:
        ctx.scenario.nodes[self.node].relay_client.drop()


@dataclass(frozen=True)
class ConntrackFlush(Fault):
    """Flush a site firewall's connection-tracking table (FW reboot)."""

    site: str = ""

    kind = "conntrack_flush"

    def inject(self, ctx: "FaultContext") -> dict:
        return {"flows": ctx.scenario.site_firewall(self.site).flush()}


@dataclass(frozen=True)
class NatExpiry(Fault):
    """Expire every mapping in a site's NAT translation table."""

    site: str = ""

    kind = "nat_expiry"

    def inject(self, ctx: "FaultContext") -> dict:
        return {"mappings": ctx.scenario.site_nat(self.site).expire_mappings()}


@dataclass(frozen=True)
class ProxyRestart(Fault):
    """Reboot a site's gateway SOCKS proxy for ``duration`` seconds.

    Every stream spliced through the proxy is reset, and new SOCKS
    connections are refused until the restart completes — the only fault
    that touches SOCKS-proxied paths, since those bypass the site's own
    firewall state (the gateway is exempt).
    """

    site: str = ""
    duration: float = 2.0

    kind = "proxy_restart"

    def inject(self, ctx: "FaultContext") -> dict:
        proxy = ctx.scenario.site_proxy(self.site)
        streams = len(proxy._active)
        proxy.stop()
        ctx.heal_later(self.duration, proxy.start, self, site=self.site)
        return {"streams": streams}


# -- live-backend faults -------------------------------------------------------
#
# These drive the in-process chaos proxy a live scenario interposes as a
# site's gateway (``scenario.chaos_proxy(site)``), mirroring the sim
# vocabulary on real sockets: conn_kill ~ conntrack_flush (the stream
# dies with a hard reset), stall ~ a silent middlebox black-holing ACKs
# (backpressure, no error), blackhole ~ link_down for payload bytes,
# latency ~ a WAN path flap, truncate ~ a mid-datagram cut.


@dataclass(frozen=True)
class ConnKill(Fault):
    """RST every connection currently flowing through a site's gateway."""

    site: str = "B"

    kind = "conn_kill"
    backends = ("live",)


    def inject(self, ctx: "FaultContext") -> dict:
        return {"connections": ctx.scenario.chaos_proxy(self.site).kill_all()}


@dataclass(frozen=True)
class Stall(Fault):
    """Gateway stops reading for ``duration`` s: silent backpressure."""

    site: str = "B"
    duration: float = 1.0

    kind = "stall"
    backends = ("live",)


    def inject(self, ctx: "FaultContext") -> None:
        proxy = ctx.scenario.chaos_proxy(self.site)
        proxy.set_stall(True)
        ctx.heal_later(
            self.duration, lambda: proxy.set_stall(False), self, site=self.site
        )


@dataclass(frozen=True)
class Blackhole(Fault):
    """Gateway reads and silently discards for ``duration`` seconds."""

    site: str = "B"
    duration: float = 1.0

    kind = "blackhole"
    backends = ("live",)


    def inject(self, ctx: "FaultContext") -> None:
        proxy = ctx.scenario.chaos_proxy(self.site)
        proxy.set_blackhole(True)
        ctx.heal_later(
            self.duration,
            lambda: proxy.set_blackhole(False),
            self,
            site=self.site,
        )


@dataclass(frozen=True)
class LatencySpike(Fault):
    """Add ``delay`` (+ seeded jitter up to ``jitter``) per forwarded chunk."""

    site: str = "B"
    delay: float = 0.05
    jitter: float = 0.0
    duration: float = 1.0

    kind = "latency"
    backends = ("live",)


    def inject(self, ctx: "FaultContext") -> None:
        proxy = ctx.scenario.chaos_proxy(self.site)
        proxy.set_latency(self.delay, self.jitter)
        ctx.heal_later(
            self.duration,
            lambda: proxy.set_latency(0.0, 0.0),
            self,
            site=self.site,
        )


@dataclass(frozen=True)
class Truncate(Fault):
    """Forward exactly ``nbytes`` more payload bytes, then RST the stream."""

    site: str = "B"
    nbytes: int = 65536

    kind = "truncate"
    backends = ("live",)


    def inject(self, ctx: "FaultContext") -> None:
        ctx.scenario.chaos_proxy(self.site).truncate_after(self.nbytes)


_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (
        LinkDown,
        LossBurst,
        WanDegrade,
        RelayCrash,
        RelayKill,
        RelayPartition,
        PeerDrop,
        ConntrackFlush,
        NatExpiry,
        ProxyRestart,
        ConnKill,
        Stall,
        Blackhole,
        LatencySpike,
        Truncate,
    )
}

#: dataclass field name -> plan-string argument name, and back
_FIELD_ARGS = {"duration": "for", "nbytes": "bytes"}
_ARG_FIELDS = {arg: name for name, arg in _FIELD_ARGS.items()}
_FLOAT_ARGS = {"for", "loss", "delay", "jitter", "scale"}
_INT_ARGS = {"bytes"}


def require_backend(plan: "FaultPlan", backend: str) -> None:
    """Reject a plan containing faults the chosen backend cannot express."""
    bad = sorted({f.kind for f in plan if backend not in f.backends})
    if bad:
        raise FaultPlanError(
            f"fault kinds {bad} are not available on the {backend!r} backend"
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, canonically-ordered set of faults."""

    faults: tuple = ()

    def __post_init__(self):
        ordered = tuple(
            sorted(self.faults, key=lambda f: (f.at, f.kind, f.describe()))
        )
        object.__setattr__(self, "faults", ordered)

    @classmethod
    def of(cls, *faults: Fault) -> "FaultPlan":
        return cls(tuple(faults))

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the canonical ``kind@t:k=v,...;kind@t:...`` form."""
        faults = []
        for part in filter(None, (p.strip() for p in text.split(";"))):
            head, _, body = part.partition(":")
            kind, at_sep, at_text = head.partition("@")
            fault_cls = _KINDS.get(kind.strip())
            if fault_cls is None or not at_sep:
                raise FaultPlanError(f"bad fault {part!r}")
            try:
                at = float(at_text)
            except ValueError:
                raise FaultPlanError(f"bad time in {part!r}") from None
            kwargs = {}
            for pair in filter(None, (p.strip() for p in body.split(","))):
                key, eq, value = pair.partition("=")
                if not eq:
                    raise FaultPlanError(f"bad argument {pair!r} in {part!r}")
                field = _ARG_FIELDS.get(key, key)
                if key in _FLOAT_ARGS:
                    kwargs[field] = float(value)
                elif key in _INT_ARGS:
                    kwargs[field] = int(value)
                else:
                    kwargs[field] = value
            try:
                faults.append(fault_cls(at=at, **kwargs))
            except TypeError as exc:
                raise FaultPlanError(f"bad arguments in {part!r}: {exc}") from None
        return cls(tuple(faults))

    def spec(self) -> str:
        """The canonical string form (round-trips through :meth:`parse`)."""
        return ";".join(f.describe() for f in self.faults)

    def __str__(self) -> str:
        return self.spec()

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)


class FaultContext:
    """What a firing fault may touch: the scenario plus heal scheduling."""

    def __init__(self, scenario, scheduler: "FaultScheduler"):
        self.scenario = scenario
        self.scheduler = scheduler

    @property
    def sim(self):
        return self.scenario.sim

    def heal_later(
        self, delay: float, fn: Callable[[], None], fault: Fault, **attrs
    ) -> None:
        """Schedule the fault's recovery and its ``chaos.heal`` event."""

        def run():
            fn()
            obs.event("chaos.heal", kind=fault.kind, **attrs)
            self.scheduler.healed.append(
                {"kind": fault.kind, "t": self.sim.now, **attrs}
            )

        self.sim.call_later(delay, run)


class FaultScheduler:
    """Arms a :class:`FaultPlan` against a scenario's simulation clock."""

    def __init__(self, scenario, plan: FaultPlan):
        self.scenario = scenario
        self.plan = plan
        self.ctx = FaultContext(scenario, self)
        #: chronological record of fired injections (report material)
        self.injected: list[dict] = []
        self.healed: list[dict] = []

    def arm(self) -> None:
        """Schedule every fault.  Call once, before running the scenario."""
        for fault in self.plan:
            self.scenario.sim.call_at(fault.at, self._fire, fault)

    def _fire(self, fault: Fault) -> None:
        with obs.span("chaos.inject", kind=fault.kind, at=fault.at) as sp:
            attrs = {**fault._args(), **(fault.inject(self.ctx) or {})}
            sp.set(**attrs)
        self.injected.append({"kind": fault.kind, "at": fault.at, **attrs})
        obs.event("chaos.injected", kind=fault.kind, at=fault.at, **attrs)
