"""Hosts, interfaces, routers and site/Internet builders.

The simulated network mirrors the deployments the paper evaluates on
(Section 6): multiple *sites*, each a LAN of compute nodes behind a border
gateway, joined across a wide-area backbone.  A site's gateway may carry a
stateful firewall and/or a NAT box on its WAN interface; private sites use
RFC 1918 addresses that the backbone cannot route (exactly the connectivity
problem of Section 1).

Layering:

* :class:`Interface` — attachment point of a host to a link, with an ordered
  chain of :class:`PacketFilter` (firewall, NAT) applied on egress in list
  order and on ingress in reverse order, iptables-style.
* :class:`Host` — owns interfaces, a static routing table and a TCP stack.
  Routers are hosts with ``ip_forward=True``.
* :class:`Network` — container: builds links, delivers trace events.
* :class:`Internet` / :class:`Site` — scenario builders reproducing the
  paper's topologies.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .engine import Simulator
from .link import Link, Transmitter
from .packet import Addr, Segment, in_prefix, ip_to_int

__all__ = [
    "PacketFilter",
    "Interface",
    "Host",
    "Network",
    "Internet",
    "Site",
    "LAN_BANDWIDTH",
    "LAN_DELAY",
]

#: 100 Mbit/s Ethernet LAN defaults (paper §4.1 measures 11.8 MB/s on this).
LAN_BANDWIDTH = 12_500_000.0
LAN_DELAY = 0.000_05
#: switch port buffering: generous relative to the tiny LAN BDP, so a LAN
#: hop never drops bursts headed for a slower WAN uplink
LAN_QUEUE = 262_144


class PacketFilter:
    """Base class for middlebox packet filters (firewall, NAT).

    ``egress`` sees packets leaving through the interface the filter is
    attached to; ``ingress`` sees packets arriving on it.  Either returns
    the (possibly rewritten) segment, or ``None`` to drop it.
    """

    def egress(self, segment: Segment) -> Optional[Segment]:
        return segment

    def ingress(self, segment: Segment) -> Optional[Segment]:
        return segment


class Interface:
    """A host's attachment to a link."""

    def __init__(self, host: "Host", name: str, ip: str, prefixlen: int):
        self.host = host
        self.name = name
        self.ip = ip
        self.prefixlen = prefixlen
        self.link: Optional[Link] = None
        self.transmitter: Optional[Transmitter] = None
        self.filters: list[PacketFilter] = []

    def attach(self, link: Link, transmitter: Transmitter) -> None:
        self.link = link
        self.transmitter = transmitter

    def send(self, segment: Segment) -> None:
        """Apply egress filters then put the segment on the wire."""
        host = self.host
        for flt in self.filters:
            out = flt.egress(segment)
            if out is None:
                host._drop(self, segment, f"egress:{type(flt).__name__}")
                return
            segment = out
        if self.transmitter is None:
            raise RuntimeError(f"interface {self} not attached to a link")
        if host.net.tracers:
            host.net.trace("tx", host=host, iface=self, segment=segment)
        self.transmitter.transmit(segment)

    def receive(self, segment: Segment) -> None:
        """Apply ingress filters (reverse order) then hand to the host."""
        host = self.host
        for flt in reversed(self.filters):
            out = flt.ingress(segment)
            if out is None:
                host._drop(self, segment, f"ingress:{type(flt).__name__}")
                return
            segment = out
        if host.net.tracers:
            host.net.trace("rx", host=host, iface=self, segment=segment)
        host._receive(self, segment)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Interface {self.host.name}/{self.name} {self.ip}/{self.prefixlen}>"


class Host:
    """A simulated machine: interfaces, routes, and a TCP stack.

    The TCP stack is created lazily on first access so pure routers stay
    lightweight.  Application processes run as simulation processes and use
    :mod:`repro.simnet.sockets` for a blocking-style socket API.
    """

    def __init__(self, net: "Network", name: str, ip_forward: bool = False):
        self.net = net
        self.sim: Simulator = net.sim
        self.name = name
        self.ip_forward = ip_forward
        self.interfaces: list[Interface] = []
        #: every interface's address (kept by :meth:`add_interface`)
        self.local_ips: set[str] = set()
        # (prefix_int, prefixlen, mask, iface) sorted by prefixlen desc
        self._routes: list[tuple[int, int, int, Interface]] = []
        # destination string -> route() result, one entry per address
        # ever routed to; add_route() clears it
        self._route_cache: dict[str, Optional[Interface]] = {}
        self._tcp = None
        self.cpu = None  # attached by simnet.cpu.CpuModel when modelling CPU cost

    # -- configuration ------------------------------------------------------
    def add_interface(self, ip: str, prefixlen: int, name: str = "") -> Interface:
        iface = Interface(self, name or f"eth{len(self.interfaces)}", ip, prefixlen)
        self.interfaces.append(iface)
        self.local_ips.add(ip)
        self.add_route(ip, prefixlen, iface)  # connected route
        return iface

    def add_route(self, prefix: str, prefixlen: int, iface: Interface) -> None:
        mask = 0 if prefixlen == 0 else (~((1 << (32 - prefixlen)) - 1)) & 0xFFFFFFFF
        entry = (ip_to_int(prefix) & mask, prefixlen, mask, iface)
        self._routes.append(entry)
        self._routes.sort(key=lambda r: -r[1])
        self._route_cache.clear()

    def default_route(self, iface: Interface) -> None:
        self.add_route("0.0.0.0", 0, iface)

    @property
    def ip(self) -> str:
        """Primary address (first interface)."""
        if not self.interfaces:
            raise RuntimeError(f"host {self.name} has no interfaces")
        return self.interfaces[0].ip

    @property
    def tcp(self):
        """The host's TCP stack (created on first use)."""
        if self._tcp is None:
            from .tcp import TcpStack

            self._tcp = TcpStack(self)
        return self._tcp

    # -- data path ----------------------------------------------------------
    def route(self, dst_ip: str) -> Optional[Interface]:
        """Longest-prefix match, memoised per destination string."""
        try:
            return self._route_cache[dst_ip]
        except KeyError:
            pass
        dst = ip_to_int(dst_ip)
        found = None
        for prefix, _plen, mask, iface in self._routes:
            if dst & mask == prefix:
                found = iface
                break
        self._route_cache[dst_ip] = found
        return found

    def _drop(self, iface: Optional[Interface], segment: Segment, reason: str) -> None:
        if self.net.tracers:
            self.net.trace(
                "drop", host=self, iface=iface, segment=segment, reason=reason
            )

    def send_segment(self, segment: Segment) -> None:
        """Route and transmit a locally originated segment."""
        dst_ip = segment.dst[0]
        if dst_ip in self.local_ips:
            # Loopback delivery, no wire.
            if self.net.tracers:
                self.net.trace("lo", host=self, iface=None, segment=segment)
            self.sim.call_later(0.0, self._deliver_local, segment)
            return
        iface = self.route(dst_ip)
        if iface is None:
            self._drop(None, segment, "no-route")
            return
        iface.send(segment)

    def _receive(self, iface: Interface, segment: Segment) -> None:
        if segment.dst[0] in self.local_ips:
            self._deliver_local(segment)
        elif self.ip_forward:
            self._forward(segment)
        else:
            self._drop(iface, segment, "not-for-me")

    def _forward(self, segment: Segment) -> None:
        if segment.ttl <= 1:
            self._drop(None, segment, "ttl")
            return
        segment.ttl -= 1
        out = self.route(segment.dst[0])
        if out is None:
            self._drop(None, segment, "no-route")
            return
        out.send(segment)

    def _deliver_local(self, segment: Segment) -> None:
        self.tcp.receive(segment)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Host {self.name}>"


class Network:
    """Container for the whole simulated network."""

    #: the simulation tier a scenario built on this network runs at
    tier = "packet"

    def __init__(self, sim: Optional[Simulator] = None, seed: int = 0):
        self.sim = sim or Simulator()
        self.seed = seed
        self.hosts: dict[str, Host] = {}
        self.links: list[Link] = []
        self.tracers: list[Callable[[dict], None]] = []
        self._link_seq = 0

    def add_host(self, name: str, ip_forward: bool = False) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name!r}")
        host = Host(self, name, ip_forward=ip_forward)
        self.hosts[name] = host
        return host

    def add_router(self, name: str) -> Host:
        return self.add_host(name, ip_forward=True)

    def connect(
        self,
        a: Host,
        b: Host,
        ip_a: str,
        ip_b: str,
        prefixlen: int,
        delay: float = LAN_DELAY,
        bandwidth: float = LAN_BANDWIDTH,
        loss: float = 0.0,
        queue_bytes: Optional[int] = None,
        name: str = "",
        jitter: float = 0.0,
        delay_back: Optional[float] = None,
    ) -> Link:
        """Create a link between two hosts, adding connected interfaces.

        ``delay`` is the a→b propagation half; ``delay_back`` (defaulting
        to ``delay``) the b→a half.  Asymmetric paths are explicit so the
        RTT is always the sum of the two halves on both simulation tiers.
        """
        self._link_seq += 1
        link = Link(
            self.sim,
            delay=delay,
            bandwidth=bandwidth,
            queue_bytes=queue_bytes,
            loss=loss,
            seed=self.seed + self._link_seq,
            name=name or f"{a.name}--{b.name}",
            jitter=jitter,
            delay_back=delay_back,
        )
        iface_a = a.add_interface(ip_a, prefixlen)
        iface_b = b.add_interface(ip_b, prefixlen)
        link.connect(iface_a, iface_b)
        self.links.append(link)
        return link

    def live_connections(self) -> list[str]:
        """Every TCP connection still in a host's stack, one line each:
        after a scenario has been torn down and drained, each is a leak."""
        leaks = []
        for name in sorted(self.hosts):
            stack = self.hosts[name]._tcp
            if stack is None:
                continue
            for (laddr, raddr), sock in sorted(stack._conns.items()):
                leaks.append(
                    f"{name} {laddr[0]}:{laddr[1]}->{raddr[0]}:{raddr[1]} "
                    f"[{sock.state}]"
                )
        return leaks

    def trace(self, kind: str, **info) -> None:
        if not self.tracers:
            return
        info["kind"] = kind
        info["time"] = self.sim.now
        for tracer in self.tracers:
            tracer(info)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)


class Site:
    """A grid site: LAN nodes behind a border gateway.

    * ``firewall`` — attach a stateful firewall to the gateway's WAN side.
    * ``nat`` — attach a NAT box; the site then uses private 10.x addresses.
    * Without NAT the site LAN uses publicly routed addresses
      (203.0.<index>.0/24) announced to the backbone.

    The gateway itself is dual-homed ("connected both inside and outside of
    the firewall", §3.3) so relays and SOCKS proxies can run on it.
    """

    def __init__(
        self,
        internet: "Internet",
        name: str,
        index: int,
        firewall=None,
        nat=None,
        access_delay: float = 0.005,
        access_bandwidth: float = 12_500_000.0,
        access_loss: float = 0.0,
        queue_bytes: Optional[int] = None,
        access_jitter: float = 0.0,
    ):
        self.internet = internet
        self.net = internet.net
        self.name = name
        self.index = index
        self.nat = nat
        self.firewall = firewall
        self.nodes: list[Host] = []

        net = self.net
        self.gateway = net.add_router(f"{name}-gw")
        self.wan_ip = f"198.51.{index}.2"
        backbone_ip = f"198.51.{index}.1"
        self.wan_link = net.connect(
            internet.backbone,
            self.gateway,
            backbone_ip,
            self.wan_ip,
            30,
            delay=access_delay,
            bandwidth=access_bandwidth,
            loss=access_loss,
            queue_bytes=queue_bytes,
            name=f"wan-{name}",
            jitter=access_jitter,
        )
        self.wan_iface = self.gateway.interfaces[-1]
        self.gateway.default_route(self.wan_iface)

        if nat is not None:
            self.lan_prefix = f"10.{index}.0.0"
            self.lan_plen = 16
        else:
            self.lan_prefix = f"203.0.{index}.0"
            self.lan_plen = 24
            # Publicly routed site: backbone learns the prefix.
            internet.backbone.add_route(
                self.lan_prefix, self.lan_plen, internet.backbone.interfaces[-1]
            )
        self._next_node = 10

        # Middlebox chain on the WAN interface: firewall sees internal
        # addressing; NAT rewrites outermost.
        if firewall is not None:
            firewall.exempt_ips.add(self.wan_ip)
            self.wan_iface.filters.append(firewall)
        if nat is not None:
            nat.configure(external_ip=self.wan_ip, site=self)
            self.wan_iface.filters.append(nat)

    def _lan_ip(self, node_index: int) -> str:
        base = self.lan_prefix.rsplit(".", 1)[0] if self.lan_plen == 24 else None
        if self.lan_plen == 24:
            return f"{base}.{node_index}"
        return f"10.{self.index}.0.{node_index}"

    @property
    def gateway_lan_ip(self) -> str:
        return self._lan_ip(1)

    def add_node(self, name: str = "") -> Host:
        """Add a compute node on the site LAN.

        The LAN is modelled as per-node point-to-point links to the gateway
        (a switched Ethernet); the gateway carries a host route per node so
        forwarding picks the right port.
        """
        idx = self._next_node
        self._next_node += 1
        node = self.net.add_host(name or f"{self.name}-n{idx}")
        node_ip = self._lan_ip(idx)
        gw_lan_ip = self._lan_ip(200 + len(self.nodes)) if self.nodes else self._lan_ip(1)
        self.net.connect(
            self.gateway,
            node,
            gw_lan_ip,
            node_ip,
            self.lan_plen,
            delay=LAN_DELAY,
            bandwidth=LAN_BANDWIDTH,
            queue_bytes=LAN_QUEUE,
            name=f"lan-{self.name}-{node.name}",
        )
        # Host route: the connected-prefix routes of sibling ports would
        # otherwise shadow each other.
        self.gateway.add_route(node_ip, 32, self.gateway.interfaces[-1])
        node.default_route(node.interfaces[-1])
        self.nodes.append(node)
        return node

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = []
        if self.firewall is not None:
            kind.append("firewall")
        if self.nat is not None:
            kind.append("nat")
        return f"<Site {self.name} [{','.join(kind) or 'open'}]>"


class Internet:
    """The wide-area backbone joining sites and public hosts.

    The backbone router itself is infinitely fast relative to access links,
    so end-to-end WAN characteristics (delay, capacity, loss) are set by the
    two access links of the communicating sites — matching how the paper
    reports per-pair link capacity/latency.
    """

    def __init__(self, net: Optional[Network] = None, seed: int = 0):
        self.net = net or Network(seed=seed)
        self.sim = self.net.sim
        self.backbone = self.net.add_router("backbone")
        self.sites: dict[str, Site] = {}
        self._public_seq = 9
        self._site_seq = 0

    def add_site(self, name: str, **kwargs) -> Site:
        self._site_seq += 1
        site = Site(self, name, self._site_seq, **kwargs)
        self.sites[name] = site
        return site

    def add_public_host(
        self,
        name: str,
        delay: float = 0.002,
        bandwidth: float = 125_000_000.0,
    ) -> Host:
        """A host with a public address directly on the backbone."""
        self._public_seq += 1
        host = self.net.add_host(name)
        host_ip = f"198.51.100.{self._public_seq}"
        backbone_ip = f"198.51.200.{self._public_seq}"
        self.net.connect(
            self.backbone, host, backbone_ip, host_ip, 32,
            delay=delay, bandwidth=bandwidth, name=f"pub-{name}",
        )
        # Point-to-point link: the backbone needs an explicit host route.
        self.backbone.add_route(host_ip, 32, self.backbone.interfaces[-1])
        host.default_route(host.interfaces[-1])
        return host
