"""Packet model for the simulated network.

We model a single transport protocol (TCP) over an IPv4-like network layer.
Segments carry *real* payload bytes: the simulator is not just a timing
model — compression, encryption and serialization all round-trip through it,
so end-to-end data integrity is checkable in tests.

Sizes are modelled explicitly so link serialization delay and queue
occupancy are realistic: each segment is charged ``IP_HEADER + TCP_HEADER``
bytes of overhead on the wire.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

__all__ = [
    "Addr",
    "Segment",
    "IP_HEADER",
    "TCP_HEADER",
    "SEGMENT_OVERHEAD",
    "FLAG_NAMES",
    "ip_to_int",
    "int_to_ip",
    "in_prefix",
    "is_private",
]

#: An endpoint address: (ip, port).
Addr = Tuple[str, int]

IP_HEADER = 20
TCP_HEADER = 20
SEGMENT_OVERHEAD = IP_HEADER + TCP_HEADER

_packet_ids = itertools.count(1)

FLAG_NAMES = ("SYN", "ACK", "FIN", "RST")


def ip_to_int(ip: str) -> int:
    """Parse dotted-quad ``ip`` into a 32-bit integer."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address: {ip!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 address: {ip!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format a 32-bit integer as a dotted-quad address."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"address out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def in_prefix(ip: str, prefix: str, prefixlen: int) -> bool:
    """True if ``ip`` falls inside ``prefix/prefixlen``."""
    if not 0 <= prefixlen <= 32:
        raise ValueError(f"bad prefix length: {prefixlen}")
    if prefixlen == 0:
        return True
    mask = ~((1 << (32 - prefixlen)) - 1) & 0xFFFFFFFF
    return (ip_to_int(ip) & mask) == (ip_to_int(prefix) & mask)


_PRIVATE_PREFIXES = (("10.0.0.0", 8), ("172.16.0.0", 12), ("192.168.0.0", 16))


def is_private(ip: str) -> bool:
    """True for RFC 1918 private addresses."""
    return any(in_prefix(ip, p, l) for p, l in _PRIVATE_PREFIXES)


@dataclass
class Segment:
    """A TCP segment inside an IP datagram.

    ``seq``/``ack`` are byte sequence numbers (absolute, starting from the
    randomly chosen ISN like real TCP — the simulator uses small ISNs for
    readable traces).  ``window`` is the advertised receive window in bytes.
    """

    src: Addr
    dst: Addr
    seq: int = 0
    ack: int = 0
    syn: bool = False
    fin: bool = False
    rst: bool = False
    ack_flag: bool = False
    window: int = 65535
    payload: bytes = b""
    ttl: int = 64
    pkt_id: int = field(default_factory=_packet_ids.__next__)

    @property
    def size(self) -> int:
        """Total on-wire size in bytes."""
        return SEGMENT_OVERHEAD + len(self.payload)

    @property
    def seg_len(self) -> int:
        """Sequence-number space consumed (SYN and FIN count as one)."""
        return len(self.payload) + (1 if self.syn else 0) + (1 if self.fin else 0)

    @property
    def flow(self) -> Tuple[Addr, Addr]:
        """The (src, dst) 4-tuple identifying this packet's flow."""
        return (self.src, self.dst)

    def flags_str(self) -> str:
        """Human-readable flag string, e.g. ``"SYN|ACK"``."""
        flags = []
        if self.syn:
            flags.append("SYN")
        if self.fin:
            flags.append("FIN")
        if self.rst:
            flags.append("RST")
        if self.ack_flag:
            flags.append("ACK")
        return "|".join(flags) if flags else "."

    def copy(self, **changes) -> "Segment":
        """A shallow copy with ``changes`` applied and a fresh packet id."""
        new = replace(self, **changes)
        new.pkt_id = next(_packet_ids)
        return new

    def describe(self) -> str:
        """One-line rendering used by the packet tracer."""
        src = f"{self.src[0]}:{self.src[1]}"
        dst = f"{self.dst[0]}:{self.dst[1]}"
        parts = [f"{src} > {dst}", self.flags_str()]
        parts.append(f"seq={self.seq}")
        if self.ack_flag:
            parts.append(f"ack={self.ack}")
        if self.payload:
            parts.append(f"len={len(self.payload)}")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Segment #{self.pkt_id} {self.describe()}>"
