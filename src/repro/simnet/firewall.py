"""Stateful connection-tracking firewall (paper §3.2, Figure 2).

The firewall sits on a site gateway's WAN interface and implements the
policy the paper describes as typical: *allow all outgoing packets, drop all
incoming packets except those belonging to an already established
connection*.

Connection tracking: the first outbound segment of a flow creates a
conntrack entry for its 4-tuple.  Inbound segments are accepted only when
the mirrored 4-tuple has an entry (or matches an explicitly opened port).
This is exactly the behaviour that makes TCP splicing work (Figure 2,
right): both endpoints emit a SYN, each firewall records an *outgoing*
flow, and the peer's crossing SYN then matches the entry.

``strict_outbound`` models the "severe firewall" of §3.3 that forbids even
outgoing connections except through a well-controlled proxy: outbound flows
are dropped unless destined for an allowlisted proxy address.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .packet import Addr, Segment
from .topology import PacketFilter

__all__ = ["StatefulFirewall", "FirewallStats"]


class FirewallStats:
    __slots__ = ("out_allowed", "out_dropped", "in_allowed", "in_dropped")

    def __init__(self):
        self.out_allowed = 0
        self.out_dropped = 0
        self.in_allowed = 0
        self.in_dropped = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class StatefulFirewall(PacketFilter):
    """Stateful packet filter for a site's WAN interface.

    Parameters
    ----------
    open_ports:
        Destination ports on which unsolicited inbound connections are
        allowed ("selectively open some TCP ports", §1 — the approach the
        paper wants to avoid needing).
    strict_outbound:
        If set, outbound flows are only allowed to addresses in
        ``allowed_destinations`` (the "severe firewall" case of §3.3).
    conntrack_timeout:
        Entries idle longer than this are purged lazily.
    """

    def __init__(
        self,
        open_ports: Optional[set[int]] = None,
        strict_outbound: bool = False,
        allowed_destinations: Optional[set[str]] = None,
        conntrack_timeout: float = 600.0,
        sim=None,
    ):
        self.open_ports = set(open_ports or ())
        self.strict_outbound = strict_outbound
        self.allowed_destinations = set(allowed_destinations or ())
        self.conntrack_timeout = conntrack_timeout
        self.sim = sim
        # flow 4-tuple (inside_addr, outside_addr) -> last activity time
        self._conntrack: dict[tuple[Addr, Addr], float] = {}
        # no entry is older than this, so no scan is due before it expires
        self._oldest = float("-inf")
        #: gateway's own addresses: traffic to these bypasses the filter
        #: (the gateway is "connected both inside and outside", §3.3).
        self.exempt_ips: set[str] = set()
        self.stats = FirewallStats()

    def _now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def _expire(self) -> None:
        if self.conntrack_timeout <= 0 or self.sim is None:
            return
        now = self.sim.now
        cutoff = now - self.conntrack_timeout
        if self._oldest >= cutoff:
            return
        stale = [k for k, t in self._conntrack.items() if t < cutoff]
        for k in stale:
            del self._conntrack[k]
        self._oldest = min(self._conntrack.values(), default=now)

    # -- outbound ------------------------------------------------------------
    def egress(self, segment: Segment) -> Optional[Segment]:
        if segment.src[0] in self.exempt_ips:
            return segment
        key = (segment.src, segment.dst)
        if key not in self._conntrack:
            if self.strict_outbound and segment.dst[0] not in self.allowed_destinations:
                self.stats.out_dropped += 1
                return None
        self._conntrack[key] = self._now()
        self.stats.out_allowed += 1
        return segment

    # -- inbound -------------------------------------------------------------
    def ingress(self, segment: Segment) -> Optional[Segment]:
        if segment.dst[0] in self.exempt_ips:
            self.stats.in_allowed += 1
            return segment
        self._expire()
        key = (segment.dst, segment.src)  # mirrored flow
        if key in self._conntrack:
            self._conntrack[key] = self._now()
            self.stats.in_allowed += 1
            return segment
        if segment.dst[1] in self.open_ports:
            self.stats.in_allowed += 1
            return segment
        self.stats.in_dropped += 1
        return None

    def flush(self) -> int:
        """Drop all conntrack state (e.g. to simulate a firewall reboot).

        Returns the number of flows forgotten.  Established TCP flows
        recover on their next *outbound* segment (retransmission or ACK),
        which re-creates the entry — matching real conntrack-flush
        behaviour for outbound-initiated connections.
        """
        flows = len(self._conntrack)
        self._conntrack.clear()
        return flows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<StatefulFirewall open={sorted(self.open_ports)} "
            f"strict={self.strict_outbound} flows={len(self._conntrack)}>"
        )
