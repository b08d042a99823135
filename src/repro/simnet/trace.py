"""Packet tracing: reproduce the paper's protocol diagrams as event logs.

Figures 1 and 2 of the paper are packet-exchange diagrams (client/server
handshake vs. TCP splicing, with and without firewalls).  The tracer
records every transmit / receive / drop the network performs, and
:func:`handshake_diagram` reduces a trace to the handshake-segment
sequence so benchmarks and tests can assert the exact exchanges the paper
draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .packet import Segment
from .topology import Network

__all__ = ["TraceEntry", "Tracer", "handshake_diagram", "format_trace"]


@dataclass
class TraceEntry:
    time: float
    kind: str  # tx / rx / drop / lo / tcp-state
    host: str
    segment: Optional[Segment]
    reason: str = ""
    detail: str = ""

    def line(self) -> str:
        base = f"{self.time * 1000:10.3f}ms {self.host:12s} {self.kind:5s}"
        if self.segment is not None:
            base += f" {self.segment.describe()}"
        if self.reason:
            base += f" [{self.reason}]"
        if self.detail:
            base += f" {self.detail}"
        return base


class Tracer:
    """Records network events; attach with ``Tracer(net)``.

    ``only`` restricts recording to the given event kinds; ``hosts``
    restricts to events at the named hosts.
    """

    def __init__(
        self,
        net: Network,
        only: Optional[Iterable[str]] = None,
        hosts: Optional[Iterable[str]] = None,
    ):
        self.entries: list[TraceEntry] = []
        self.only = set(only) if only else None
        self.hosts = set(hosts) if hosts else None
        net.tracers.append(self._record)
        self._net = net

    def detach(self) -> None:
        try:
            self._net.tracers.remove(self._record)
        except ValueError:
            pass

    def _record(self, info: dict) -> None:
        kind = info["kind"]
        if self.only is not None and kind not in self.only:
            return
        host = info.get("host")
        host_name = host.name if host is not None else "?"
        if self.hosts is not None and host_name not in self.hosts:
            return
        detail = ""
        if kind == "tcp-state":
            detail = f"{info.get('old')} -> {info.get('new')}"
        self.entries.append(
            TraceEntry(
                time=info["time"],
                kind=kind,
                host=host_name,
                segment=info.get("segment"),
                reason=info.get("reason", ""),
                detail=detail,
            )
        )

    def filter(self, pred: Callable[[TraceEntry], bool]) -> list[TraceEntry]:
        return [e for e in self.entries if pred(e)]

    def handshake_segments(self) -> list[TraceEntry]:
        """Entries for SYN-bearing segments (the Figure 1/2 content)."""
        return [
            e
            for e in self.entries
            if e.segment is not None and (e.segment.syn or e.segment.rst)
        ]

    def drops(self) -> list[TraceEntry]:
        return [e for e in self.entries if e.kind == "drop"]

    def render(self) -> str:
        return "\n".join(e.line() for e in self.entries)


def handshake_diagram(tracer: Tracer, host_a: str, host_b: str) -> list[str]:
    """Reduce a trace to the arrow diagram of Figures 1/2.

    Each line is ``A --FLAGS--> B`` for a handshake segment *received* by
    the far end (so firewall-dropped segments do not appear, matching how
    the paper draws blocked arrows separately).
    """
    arrows = []
    for entry in tracer.entries:
        seg = entry.segment
        if seg is None or not (seg.syn or (seg.ack_flag and not seg.payload)):
            continue
        if entry.kind != "rx" or entry.host not in (host_a, host_b):
            continue
        sender = host_b if entry.host == host_a else host_a
        arrows.append(f"{sender} --{seg.flags_str()}--> {entry.host}")
    return arrows


def format_trace(entries: Iterable[TraceEntry]) -> str:
    return "\n".join(e.line() for e in entries)
