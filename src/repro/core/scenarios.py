"""Canned grid topologies for tests, examples and benchmarks.

A :class:`GridScenario` assembles the full experimental apparatus of the
paper's evaluation (§6): an Internet backbone, a public relay host running
the relay + address reflector, and any number of sites of various kinds:

============== ==============================================================
kind            meaning
============== ==============================================================
``open``        publicly routed addresses, no middleboxes
``firewall``    stateful firewall blocking unsolicited inbound
``cone_nat``    predictable (endpoint-independent) NAT, private addresses
``nat_firewall`` stateful firewall *and* a predictable NAT on the same
                gateway — the common campus setup; both fault-injection
                hooks (``conntrack_flush``, ``nat_expiry``) apply
``broken_nat``  standards-noncompliant NAT that resets crossing SYNs;
                a SOCKS proxy runs on the gateway (the paper's fall-back)
``symmetric_nat`` unpredictable per-destination mappings + gateway SOCKS
``severe``      firewall that blocks even outbound, except to the gateway
                SOCKS proxy (paper §3.3's "severe firewall")
============== ==============================================================
"""

from __future__ import annotations

from typing import Generator, Optional

from .. import obs
from ..simnet.backend import PacketBackend
from ..simnet.engine import all_of
from ..simnet.nat import BrokenNAT, ConeNAT, NatBox, SymmetricNAT
from ..simnet.firewall import StatefulFirewall
from ..simnet.link import Link
from ..simnet.socks import SocksServer
from ..simnet.topology import Host, Internet, Site
from .addressing import EndpointInfo
from .node import GridNode
from .relay import ReflectorServer, RelayServer
from .runtime import SimRuntime
from .utilization.spec import StackSpec

__all__ = ["GridScenario", "SITE_KINDS"]

SITE_KINDS = (
    "open",
    "firewall",
    "cone_nat",
    "nat_firewall",
    "broken_nat",
    "symmetric_nat",
    "severe",
)

RELAY_PORT = 4000
REFLECTOR_PORT = 3478
SOCKS_PORT = 1080


class GridScenario:
    """Builder for multi-site grid experiments."""

    def __init__(
        self,
        seed: int = 1,
        relay_bandwidth: float = 125_000_000.0,
        relay_delay: float = 0.002,
    ):
        self.seed = seed
        self.inet = Internet(seed=seed)
        self.sim = self.inet.sim
        self.runtime = SimRuntime(self.sim)
        #: the scenario's :class:`~repro.simnet.backend.SimBackend` — the
        #: fidelity-agnostic surface chaos invariants and tooling use for
        #: clock access and resource-leak probes
        self.backend = PacketBackend(net=self.inet.net)
        # Timestamps in metrics/traces follow the simulation clock.
        obs.use_sim_clock(self.sim)
        self._relay_bandwidth = relay_bandwidth
        self._relay_delay = relay_delay
        # The relay machine's own uplink: on a real grid this is a site
        # gateway with finite capacity — the §3.4 bottleneck.
        self.relay_host = self.inet.add_public_host(
            "relay", delay=relay_delay, bandwidth=relay_bandwidth
        )
        self.relay = RelayServer(self.relay_host, RELAY_PORT)
        self.relay.start()
        #: every relay in the scenario, keyed by id (primary is "r1");
        #: extra relays join via :meth:`add_relay`, gossip via
        #: :meth:`enable_mesh`
        self.relays: dict[str, RelayServer] = {"r1": self.relay}
        self.mesh_enabled = False
        self.mesh_config = None
        self.reflector = ReflectorServer(self.relay_host, REFLECTOR_PORT)
        self.reflector.start()
        self._registry = None
        self.sites: dict[str, Site] = {}
        self.kinds: dict[str, str] = {}
        self.proxies: dict[str, SocksServer] = {}
        self.nodes: dict[str, GridNode] = {}
        #: streaming telemetry (populated by :meth:`enable_telemetry`)
        self.telemetry: Optional[obs.TelemetryAggregator] = None
        self.telemetry_log: Optional[obs.TelemetryLog] = None
        self.telemetry_publishers: list[obs.TelemetryPublisher] = []

    # -- construction -----------------------------------------------------------
    def add_relay(
        self,
        relay_id: str,
        bandwidth: Optional[float] = None,
        delay: Optional[float] = None,
    ) -> RelayServer:
        """Add another public relay host (mesh member-to-be)."""
        if relay_id in self.relays:
            raise ValueError(f"duplicate relay id {relay_id!r}")
        host = self.inet.add_public_host(
            f"relay-{relay_id}",
            delay=delay if delay is not None else self._relay_delay,
            bandwidth=(
                bandwidth if bandwidth is not None else self._relay_bandwidth
            ),
        )
        server = RelayServer(host, RELAY_PORT, name=f"relay-{relay_id}")
        server.start()
        self.relays[relay_id] = server
        return server

    def relay_addrs(self) -> dict[str, tuple]:
        return {rid: server.addr for rid, server in sorted(self.relays.items())}

    def enable_mesh(self, topology=None, config=None) -> None:
        """Turn the relays into a gossiping mesh.

        ``topology`` maps relay id -> list of seed-peer ids; ``None``
        means full mesh.  Gossip self-extends past the seeds, so sparse
        topologies (chains) still converge end to end.
        """
        addrs = self.relay_addrs()
        self.mesh_enabled = True
        self.mesh_config = config
        for rid, server in sorted(self.relays.items()):
            if topology is None:
                peers = {p: a for p, a in addrs.items() if p != rid}
            else:
                peers = {p: addrs[p] for p in topology.get(rid, ())}
            server.enable_mesh(rid, peers, seed=self.seed, config=config)

    def add_site(self, name: str, kind: str = "open", **wan_kwargs) -> Site:
        """Add a site of the given kind (see module docstring)."""
        if kind not in SITE_KINDS:
            raise ValueError(f"unknown site kind {kind!r}")
        kwargs = dict(wan_kwargs)
        needs_proxy = False
        if kind == "firewall":
            kwargs["firewall"] = StatefulFirewall(sim=self.sim)
        elif kind == "cone_nat":
            kwargs["nat"] = ConeNAT()
        elif kind == "nat_firewall":
            kwargs["firewall"] = StatefulFirewall(sim=self.sim)
            kwargs["nat"] = ConeNAT()
        elif kind == "broken_nat":
            kwargs["nat"] = BrokenNAT()
            needs_proxy = True
        elif kind == "symmetric_nat":
            kwargs["nat"] = SymmetricNAT()
            needs_proxy = True
        elif kind == "severe":
            needs_proxy = True
        site = self.inet.add_site(name, **kwargs)
        if kind == "severe":
            firewall = StatefulFirewall(
                sim=self.sim,
                strict_outbound=True,
                allowed_destinations={site.wan_ip},
            )
            firewall.exempt_ips.add(site.wan_ip)
            site.firewall = firewall
            site.wan_iface.filters.insert(0, firewall)
        if needs_proxy:
            proxy = SocksServer(site.gateway, SOCKS_PORT)
            proxy.start()
            self.proxies[name] = proxy
        self.sites[name] = site
        self.kinds[name] = kind
        return site

    def endpoint_info(self, site_name: str, node_id: str, node: Host) -> EndpointInfo:
        kind = self.kinds[site_name]
        site = self.sites[site_name]
        proxy = self.proxies.get(site_name)
        proxy_addr = (site.gateway.ip, SOCKS_PORT) if proxy else None
        return EndpointInfo(
            node_id=node_id,
            local_ip=node.ip,
            behind_firewall=kind in ("firewall", "nat_firewall", "severe"),
            behind_nat=kind in ("cone_nat", "nat_firewall", "broken_nat", "symmetric_nat"),
            nat_predictable={
                "cone_nat": True,
                "nat_firewall": True,
                "broken_nat": True,  # looks predictable; fails behaviourally
                "symmetric_nat": False,
            }.get(kind),
            socks_proxy=proxy_addr,
            outbound_blocked=(kind == "severe"),
        )

    def _relay_addr_arg(self, relays):
        """Resolve an ``add_node``/``add_ibis`` relay pin to an address arg.

        ``None`` keeps the single-relay default; ``"all"`` registers with
        every relay (mesh client); a list of relay ids pins the node to a
        subset (how the relay-chain scenario forces trunk hops).
        """
        if relays is None:
            return (self.relay_host.ip, RELAY_PORT)
        if relays == "all":
            return self.relay_addrs()
        return {rid: self.relays[rid].addr for rid in relays}

    def add_node(
        self,
        site_name: str,
        node_id: str,
        auto_reconnect: bool = False,
        relays=None,
    ) -> GridNode:
        """Add a compute node to a site, wrapped as a GridNode."""
        site = self.sites[site_name]
        host = site.add_node(f"{site_name}-{node_id}")
        info = self.endpoint_info(site_name, node_id, host)
        node = GridNode(
            host,
            info,
            self._relay_addr_arg(relays),
            reflector_addr=(self.relay_host.ip, REFLECTOR_PORT),
            connector=self._connector(site_name),
            auto_reconnect=auto_reconnect,
            mesh_seed=self.seed,
            mesh_config=self.mesh_config,
        )
        self.nodes[node_id] = node
        return node

    def _connector(self, site_name: str):
        """How a node of the site dials a public server: ``None`` (directly)
        except on a severe site, where even the relay can only be reached
        through the gateway proxy."""
        if self.kinds[site_name] != "severe":
            return None
        proxy_addr = (self.sites[site_name].gateway.ip, SOCKS_PORT)

        def connector(h, target, _proxy=proxy_addr):
            from ..simnet.socks import socks_connect

            return (yield from socks_connect(h, _proxy, target))

        return connector

    @property
    def registry(self):
        """An Ibis Name Service on the relay host (created on first use)."""
        if self._registry is None:
            from ..ipl.registry import RegistryServer

            self._registry = RegistryServer(self.relay_host, 4100)
            self._registry.start()
        return self._registry

    def add_ibis(
        self, site_name: str, name: str, relays=None, auto_reconnect=False,
        **ibis_kwargs,
    ):
        """Add a node running a full Ibis runtime instance."""
        from ..ipl.registry import RegistryClient
        from ..ipl.runtime import Ibis

        registry = self.registry  # ensure the name service is up
        node = self.add_node(site_name, name, auto_reconnect, relays)
        client = RegistryClient(
            node.host, registry.addr, connector=self._connector(site_name)
        )
        return Ibis(node, client, **ibis_kwargs)

    # -- fault-injection surface (used by repro.chaos) -----------------------
    def site_wan_link(self, name: str) -> Link:
        """The access link joining site ``name`` to the backbone."""
        return self.sites[name].wan_link

    def site_firewall(self, name: str) -> StatefulFirewall:
        fw = self.sites[name].firewall
        if fw is None:
            raise ValueError(f"site {name!r} has no firewall")
        return fw

    def site_nat(self, name: str) -> NatBox:
        nat = self.sites[name].nat
        if nat is None:
            raise ValueError(f"site {name!r} has no NAT")
        return nat

    def site_proxy(self, name: str) -> SocksServer:
        proxy = self.proxies.get(name)
        if proxy is None:
            raise ValueError(f"site {name!r} has no SOCKS proxy")
        return proxy

    # -- streaming telemetry ---------------------------------------------------
    def enable_telemetry(
        self,
        interval: float = 0.5,
        window: float = 10.0,
        sources: Optional[dict] = None,
    ) -> obs.TelemetryAggregator:
        """Give every node (and the relay plane) a telemetry publisher.

        Call *after* the nodes are added.  Each node publishes the
        instruments labelled ``node=<id>`` out of the process registry;
        one extra ``relays`` source publishes the ``relay.*``/``mesh.*``
        families (and a live run's ``proxy.*`` gateway ledgers).
        ``sources`` adds custom publishers: a mapping of source name ->
        ``select(name, labels)`` predicate.  All streams feed
        ``self.telemetry`` (the aggregator SLOs hang off) and
        ``self.telemetry_log`` (the JSONL capture the chaos runner can
        write out); publishers tick on the scenario's runtime and are
        stopped — with a final flush — at :meth:`shutdown`.  The live
        chaos scenario borrows this method.
        """
        registry = obs.get_registry()
        self.telemetry = obs.TelemetryAggregator(window=window)
        self.telemetry_log = obs.TelemetryLog()

        def add_publisher(source, select):
            pub = obs.TelemetryPublisher(
                registry,
                source,
                interval=interval,
                clock=lambda: self.sim.now,
                select=select,
            )
            pub.add_sink(self.telemetry_log)
            pub.add_sink(self.telemetry.ingest)
            self.telemetry_publishers.append(pub)
            self._spawn_publisher(pub.run(self.runtime), f"telemetry-{source}")
            return pub

        for node_id in sorted(self.nodes):
            add_publisher(
                node_id,
                lambda name, labels, _id=node_id: labels.get("node") == _id,
            )
        add_publisher(
            "relays",
            lambda name, labels: name.startswith(("relay.", "mesh.", "proxy."))
            and "node" not in labels,
        )
        for source, select in sorted((sources or {}).items()):
            add_publisher(source, select)
        return self.telemetry

    def spawn(self, steps: Generator, name: str):
        """Start a workload process."""
        return self.sim.process(steps, name=name)

    _spawn_publisher = spawn

    # -- chaos scenario protocol ---------------------------------------------
    def shutdown(self) -> None:
        """Tear down every node and every relay (chaos teardown surface)."""
        # Publishers first (with a final flush), so the last delta is on
        # the stream before instruments stop moving.
        for pub in self.telemetry_publishers:
            pub.stop(flush=True)
        # Which relays a fault had already taken down (and which were
        # still up) — the mesh convergence post-checks need to know who
        # was killed vs. merely torn down, after everything is stopped.
        self.down_at_shutdown = sorted(
            rid for rid, r in self.relays.items() if r._listener is None
        )
        for node in self.nodes.values():
            node.stop()
        for server in self.relays.values():
            server.stop()

    def chaos_stats(self) -> dict:
        """Scenario-side stats merged into a chaos report's ``stats``."""
        stats = {
            "relay_forwarded_bytes": sum(
                r.forwarded_bytes for r in self.relays.values()
            ),
            "relay_forwarded_messages": sum(
                r.forwarded_messages for r in self.relays.values()
            ),
            "reconnects": sum(
                n.relay_client.reconnects for n in self.nodes.values()
            ),
        }
        if self.telemetry_log is not None:
            stats["telemetry_records"] = len(self.telemetry_log)
            stats["telemetry_breaches"] = len(self.telemetry.breaches)
        if self.mesh_enabled:
            stats["mesh_relays"] = len(self.relays)
            stats["mesh_deaths"] = sum(
                len(r.mesh.deaths)
                for r in self.relays.values()
                if r.mesh is not None
            )
            stats["mesh_route_changes"] = sum(
                getattr(n.relay_client, "table", None).route_changes
                for n in self.nodes.values()
                if getattr(n.relay_client, "table", None) is not None
            )
        return stats

    def mesh_deaths(self) -> list[tuple[str, str, float, float]]:
        """Every (observer, dead relay, last_heard, detected_at) record.

        The chaos convergence invariant asserts ``detected_at -
        last_heard`` stays within the configured detection bound on
        every surviving observer.
        """
        out = []
        for rid, server in sorted(self.relays.items()):
            if server.mesh is None:
                continue
            for dead_id, last_heard, detected in server.mesh.deaths:
                out.append((rid, dead_id, last_heard, detected))
        return out

    # -- execution helpers ---------------------------------------------------
    def start_all(self) -> Generator:
        """Start every node (register with the relay)."""
        procs = [self.sim.process(node.start()) for node in self.nodes.values()]
        yield all_of(self.sim, procs)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def measure_stack_throughput(
        self,
        sender_id: str,
        receiver_id: str,
        spec: StackSpec,
        payload: bytes,
        total_bytes: int,
        message_size: int = 65536,
        until: float = 3600.0,
        warmup_bytes: int = 0,
    ) -> dict:
        """Bulk transfer over a negotiated driver stack; returns metrics.

        ``payload`` is cycled to supply ``total_bytes`` of application data
        in ``message_size`` writes (the "message size" axis of Figures
        9/10); the channel aggregates them into TCP_Block blocks of at most
        64 KiB (§4.1).  Throughput is measured at the receiver over
        simulated time, excluding establishment and an optional warm-up
        prefix.
        """
        from .factory import BrokeredConnectionFactory

        sim = self.sim
        sender = self.nodes[sender_id]
        receiver = self.nodes[receiver_id]
        if not isinstance(spec, StackSpec):
            raise TypeError(
                f"expected StackSpec, got {type(spec).__name__}; the string "
                f"form is wire-only — use StackSpec.parse(...) or the typed "
                f"builders"
            )
        parsed = spec
        res: dict = {}

        def run_sender() -> Generator:
            yield from sender.start()
            yield from receiver.relay_client.wait_connected(timeout=until)
            service = yield from sender.open_service_link(receiver_id)
            factory = BrokeredConnectionFactory(sender)
            channel = yield from factory.connect(
                service, receiver.info, spec=parsed,
                block_size=min(message_size, 65536),
            )
            res["method"] = None
            sent = 0
            pos = 0
            while sent < total_bytes:
                chunk = payload[pos : pos + message_size]
                if len(chunk) < message_size:
                    pos = 0
                    chunk = payload[:message_size]
                pos += message_size
                yield from channel.write(chunk)
                sent += len(chunk)
            yield from channel.flush()
            channel.close()
            res["sent"] = sent

        def run_receiver() -> Generator:
            yield from receiver.start()
            _peer, service = yield from receiver.accept_service_link()
            factory = BrokeredConnectionFactory(receiver)
            channel = yield from factory.accept(service)
            got = 0
            t0 = None
            while True:
                data = yield from channel.read(1 << 20)
                if not data:
                    break
                got += len(data)
                if t0 is None and got >= warmup_bytes:
                    t0 = sim.now
                    got_at_t0 = got
            res["received"] = got
            res["seconds"] = sim.now - t0
            res["measured_bytes"] = got - got_at_t0
            res["throughput"] = res["measured_bytes"] / res["seconds"] / 1e6

        sim.process(run_sender(), name="xfer-sender")
        sim.process(run_receiver(), name="xfer-receiver")
        sim.run(until=sim.now + until)
        if "throughput" not in res:
            raise RuntimeError(
                f"stacked transfer {sender_id}->{receiver_id} ({spec}) did not finish"
            )
        return res

    def establish_pair(
        self,
        initiator_id: str,
        responder_id: str,
        methods: Optional[list[str]] = None,
        payload: bytes = b"ping",
        until: float = 300.0,
    ) -> dict:
        """Start both nodes, negotiate a data link, echo a payload.

        Returns ``{"method", "delay", "echo", "initiator_log", ...}``.
        """
        res: dict = {}
        initiator = self.nodes[initiator_id]
        responder = self.nodes[responder_id]

        def run_initiator() -> Generator:
            yield from initiator.start()
            yield from responder.relay_client.wait_connected(timeout=until)
            service = yield from initiator.open_service_link(responder_id)
            t0 = self.sim.now
            link = yield from initiator.broker.initiate(
                service, responder.info, methods
            )
            res["method"] = link.method
            res["delay"] = self.sim.now - t0
            res["native_tcp"] = link.native_tcp
            res["relayed"] = link.relayed
            yield from link.send_all(payload)
            res["echo"] = yield from link.recv_exactly(len(payload))
            res["initiator_log"] = list(initiator.broker.attempt_log)
            link.close()

        def run_responder() -> Generator:
            yield from responder.start()
            _peer, service = yield from responder.accept_service_link()
            link = yield from responder.broker.respond(service)
            data = yield from link.recv_exactly(len(payload))
            yield from link.send_all(data)
            res["responder_log"] = list(responder.broker.attempt_log)

        self.sim.process(run_initiator(), name="scenario-initiator")
        self.sim.process(run_responder(), name="scenario-responder")
        self.sim.run(until=self.sim.now + until)
        if "method" not in res:
            raise RuntimeError(f"pair {initiator_id}->{responder_id} never connected")
        return res
