"""Endpoint descriptors: what the decision tree needs to know about a node.

An :class:`EndpointInfo` captures a node's connectivity situation — private
or public address, firewall, NAT flavour, observed external address (via a
STUN-style probe against the relay host), available SOCKS proxy.  The
brokering protocol exchanges these over the service link before choosing an
establishment method (paper §3.4).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from ..simnet.packet import Addr
from ..util.framing import ByteReader, ByteWriter

__all__ = ["EndpointInfo", "scoped_id"]


def scoped_id(name: str, seq: int, seq_bits: int) -> int:
    """A 64-bit id of node ``name``: ``seq`` in the low ``seq_bits`` (a
    multiple of 8), the name above them — its bytes when they fit, else a
    digest of the whole name, so ``worker-1`` and ``worker-2`` never share
    one and a run repeats its ids."""
    width = 8 - seq_bits // 8
    raw = name.encode()
    if len(raw) > width:
        raw = hashlib.blake2b(raw, digest_size=width).digest()
    high = int.from_bytes(raw.ljust(width, b"\0"), "big")
    return (high << seq_bits) | (seq & ((1 << seq_bits) - 1))


@dataclass
class EndpointInfo:
    """Connectivity facts about one endpoint."""

    node_id: str
    #: the address the node itself sees (may be RFC 1918 private)
    local_ip: str
    #: True when a firewall blocks unsolicited inbound connections
    behind_firewall: bool = False
    #: True when the node is behind network address translation
    behind_nat: bool = False
    #: True when the NAT mapping is endpoint-independent / predictable
    #: (Table 1: splicing "works with NAT only with NAT gateways based on a
    #: known and predictable port translation rule"); None = unknown
    nat_predictable: Optional[bool] = None
    #: SOCKS proxy usable by this node, if any
    socks_proxy: Optional[Addr] = None
    #: ports (if any) explicitly opened in the site firewall
    open_ports: tuple = ()
    #: True when even *outgoing* direct connections are blocked (the
    #: "severe firewall" of §3.3 that only permits traffic via a proxy)
    outbound_blocked: bool = False

    @property
    def accepts_inbound(self) -> bool:
        """Can a remote client simply connect to this node?"""
        return not self.behind_firewall and not self.behind_nat

    @property
    def can_splice(self) -> bool:
        """Can this endpoint take part in a spliced (simultaneous) open?"""
        if self.outbound_blocked:
            return False  # its SYN never leaves the site
        if self.behind_nat:
            # Unknown predictability is resolved optimistically; the
            # brokered attempt will fall back on failure (§6: "we were less
            # lucky with some of the NAT implementations").
            return self.nat_predictable is not False
        return True

    # -- wire encoding (exchanged during brokering) -----------------------------
    def encode(self) -> bytes:
        w = (
            ByteWriter()
            .lp_str(self.node_id)
            .lp_str(self.local_ip)
            .u8(1 if self.behind_firewall else 0)
            .u8(1 if self.behind_nat else 0)
            .u8({None: 0, True: 1, False: 2}[self.nat_predictable])
        )
        if self.socks_proxy is not None:
            w.u8(1).lp_str(self.socks_proxy[0]).u16(self.socks_proxy[1])
        else:
            w.u8(0)
        w.u16(len(self.open_ports))
        for port in self.open_ports:
            w.u16(port)
        w.u8(1 if self.outbound_blocked else 0)
        return w.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "EndpointInfo":
        r = ByteReader(data)
        node_id = r.lp_str()
        local_ip = r.lp_str()
        behind_firewall = bool(r.u8())
        behind_nat = bool(r.u8())
        nat_predictable = {0: None, 1: True, 2: False}[r.u8()]
        proxy = None
        if r.u8():
            proxy = (r.lp_str(), r.u16())
        open_ports = tuple(r.u16() for _ in range(r.u16()))
        outbound_blocked = bool(r.u8())
        return cls(
            node_id=node_id,
            local_ip=local_ip,
            behind_firewall=behind_firewall,
            behind_nat=behind_nat,
            nat_predictable=nat_predictable,
            socks_proxy=proxy,
            open_ports=open_ports,
            outbound_blocked=outbound_blocked,
        )
