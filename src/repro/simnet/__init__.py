"""Simulated wide-area network substrate.

A deterministic discrete-event model of the grid environments the paper
deploys on: sites with LANs behind border gateways, stateful firewalls,
several NAT flavours, SOCKS proxies, and a from-scratch TCP with
client/server + simultaneous-open establishment and Reno congestion
control.

Entry points:

* :class:`~repro.simnet.backend.SimBackend` — the fidelity-agnostic
  engine protocol; :func:`~repro.simnet.backend.make_backend` picks the
  ``packet`` (per-segment TCP) or ``flow`` (fluid AIMD) tier.
* :class:`~repro.simnet.engine.Simulator` — the event loop.
* :class:`~repro.simnet.topology.Internet` — packet-tier scenario
  builder (sites, public hosts).
* :class:`~repro.simnet.flow.FlowNetwork` — flow-tier topology +
  max-min rate solver for fleet-scale runs.
* :mod:`~repro.simnet.sockets` — blocking-style sockets for sim processes.

See ``docs/SIMNET.md`` for the fidelity-tier architecture and when each
tier's numbers are trustworthy.
"""

from .backend import FIDELITIES, PacketBackend, SimBackend, make_backend
from .engine import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    all_of,
    any_of,
    with_timeout,
)
from .firewall import StatefulFirewall
from .flow import (
    FlowBackend,
    FlowHost,
    FlowLink,
    FlowNetwork,
    FluidFlow,
    aimd_rate,
    slow_start_penalty,
    spec_flow_params,
)
from .link import Link
from .nat import BrokenNAT, ConeNAT, NatBox, SymmetricNAT
from .packet import Addr, Segment, in_prefix, int_to_ip, ip_to_int, is_private
from .cpu import CpuModel, DEFAULT_RATES
from .sockets import (
    SimListener,
    SimSocket,
    connect,
    connect_simultaneous,
    listen,
)
from .socks import SocksError, SocksServer, socks_accept_bound, socks_bind, socks_connect
from ..obs.meters import SeriesRecorder, TransferMeter, mb_per_s
from .tcp import (
    ConnectRefused,
    ConnectTimeout,
    ConnectionReset,
    SocketClosed,
    TcpConfig,
    TcpError,
)
from .topology import Host, Internet, Network, Site
from .trace import Tracer, handshake_diagram

__all__ = [
    "SimBackend",
    "PacketBackend",
    "FlowBackend",
    "make_backend",
    "FIDELITIES",
    "FlowNetwork",
    "FlowHost",
    "FlowLink",
    "FluidFlow",
    "aimd_rate",
    "slow_start_penalty",
    "spec_flow_params",
    "Simulator",
    "Event",
    "Process",
    "Timeout",
    "Interrupt",
    "SimulationError",
    "any_of",
    "all_of",
    "with_timeout",
    "Network",
    "Internet",
    "Site",
    "Host",
    "Link",
    "Addr",
    "Segment",
    "ip_to_int",
    "int_to_ip",
    "in_prefix",
    "is_private",
    "StatefulFirewall",
    "NatBox",
    "ConeNAT",
    "SymmetricNAT",
    "BrokenNAT",
    "CpuModel",
    "DEFAULT_RATES",
    "TcpConfig",
    "TcpError",
    "ConnectTimeout",
    "ConnectRefused",
    "ConnectionReset",
    "SocketClosed",
    "SimSocket",
    "SimListener",
    "connect",
    "listen",
    "connect_simultaneous",
    "SocksServer",
    "SocksError",
    "socks_connect",
    "socks_bind",
    "socks_accept_bound",
    "Tracer",
    "handshake_diagram",
    "TransferMeter",
    "SeriesRecorder",
    "mb_per_s",
]
