"""The paper's contribution: integrated WAN communication.

* establishment — client/server, TCP splicing, SOCKS proxy, routed
  messages, selected by the Figure 4 decision tree and negotiated by the
  :class:`~repro.core.brokering.Broker` over service links.
* utilization — composable driver stacks: ``TCP_Block`` aggregation,
  parallel streams, zlib compression, TLS — applied orthogonally to
  however the link was established (§4, §5.2).
* :class:`~repro.core.relay.RelayServer` / ``RelayClient`` — routed
  messages through a gateway relay (Figure 3).
"""

from .addressing import EndpointInfo
from .brokering import ATTEMPT_TIMEOUT, Broker, BrokerError
from .dispatch import RoutedDispatcher, SERVICE_TAG, data_tag
from .establishment import (
    ALL_METHODS,
    CLIENT_SERVER,
    PRECEDENCE,
    ROUTED,
    SOCKS_PROXY,
    SPLICING,
    EstablishmentError,
    MethodProperties,
    choose_method,
    feasible_methods,
    table1_matrix,
)
from ..tune.planner import estimate_bdp, recommend_streams
from .links import Link, TcpLink
from .monitor import PathMonitor, select_spec
from .relay import MAX_MSG, RelayClient, RelayError, RelayServer, RoutedLink
from .wire import WireError, recv_frame, send_frame

__all__ = [
    "EndpointInfo",
    "Broker",
    "BrokerError",
    "ATTEMPT_TIMEOUT",
    "RoutedDispatcher",
    "SERVICE_TAG",
    "data_tag",
    "Link",
    "TcpLink",
    "PathMonitor",
    "select_spec",
    "recommend_streams",
    "estimate_bdp",
    "RelayServer",
    "RelayClient",
    "RoutedLink",
    "RelayError",
    "MAX_MSG",
    "choose_method",
    "feasible_methods",
    "table1_matrix",
    "ALL_METHODS",
    "PRECEDENCE",
    "CLIENT_SERVER",
    "SPLICING",
    "SOCKS_PROXY",
    "ROUTED",
    "MethodProperties",
    "EstablishmentError",
    "WireError",
    "send_frame",
    "recv_frame",
]
