"""GridNode: one node's complete connectivity machinery.

Bundles what every participating process needs (paper §5.2): a relay
registration (bootstrap + service links), a routed-link dispatcher, an
address-reflector handle, and a :class:`~repro.core.brokering.Broker` for
data-link negotiation.  The IPL runtime builds on this; core-level tests
and examples use it directly.
"""

from __future__ import annotations

from types import coroutine
from typing import Callable, Generator, Optional

from .. import obs
from ..mux import MuxEndpoint
from ..obs.flight import FlightRecorder
from ..simnet.packet import Addr
from .addressing import EndpointInfo, scoped_id
from .brokering import Broker
from .dispatch import SERVICE_TAG, RoutedDispatcher, resume_tag
from .relay import RelayClient
from .runtime import Bound
from .session import SessionLink, SessionRegistry
from .utilization.parallel import ParallelStreamsDriver, RebalancingParallelDriver

__all__ = ["GridNode"]


class GridNode(Bound):
    """A node wired into the grid's connectivity fabric.

    The shared IPL and factory take their ``runtime`` (the simulator's,
    from ``self.sim``), ``mux_endpoint``, ``session_link`` and ``parallel``
    striping classes from here; the live node names the asyncio ones.

    Parameters
    ----------
    host:
        The simulated host.
    info:
        This node's :class:`EndpointInfo` (``info.node_id`` is the identity
        under which the node registers with the relay).
    relay_addr:
        The relay server's address (bootstrap rendezvous) — or, for a
        relay *mesh*, a mapping of relay id -> address: the node then
        registers with every relay through a
        :class:`~repro.mesh.client.MeshRelayClient` and routed links are
        route-table picked (with mid-stream failover).
    reflector_addr:
        The address reflector (defaults to the relay host, port 3478).
    connector:
        Optional custom connector for reaching the relay (e.g. via SOCKS on
        severely firewalled sites).
    """

    mux_endpoint = MuxEndpoint
    session_link = SessionLink
    parallel = (ParallelStreamsDriver, RebalancingParallelDriver)

    def __init__(
        self,
        host,
        info: EndpointInfo,
        relay_addr,
        reflector_addr: Optional[Addr] = None,
        connector: Optional[Callable] = None,
        auto_reconnect: bool = False,
        mesh_seed=0,
        mesh_config=None,
    ):
        self.host = host
        self.sim = host.sim
        self.info = info
        self.relay_addr = relay_addr
        if isinstance(relay_addr, dict):
            primary = relay_addr[min(relay_addr)]
            self.reflector_addr = reflector_addr or (primary[0], 3478)
            from ..mesh.client import MeshRelayClient

            self.relay_client = MeshRelayClient(
                host,
                info.node_id,
                relay_addr,
                connector=connector,
                seed=mesh_seed,
                config=mesh_config,
            )
        else:
            self.reflector_addr = reflector_addr or (relay_addr[0], 3478)
            self.relay_client = RelayClient(
                host,
                info.node_id,
                relay_addr,
                connector=connector,
                auto_reconnect=auto_reconnect,
            )
        self.dispatcher: Optional[RoutedDispatcher] = None
        self.broker: Optional[Broker] = None
        #: always-on black box: last ~512 lifecycle notes, dumped into
        #: postmortem bundles when a chaos invariant fails
        self.flight = FlightRecorder(info.node_id, clock=lambda: host.sim.now)
        #: live survivable sessions (responder side serves re-attachment)
        self.sessions = SessionRegistry(self)
        self._sid_seq = 0

    @property
    def node_id(self) -> str:
        return self.info.node_id

    def start(self) -> Generator:
        """Register with the relay; wire the dispatcher and broker."""
        yield from self.relay_client.connect()
        obs.metrics().gauge("node.up", node=self.info.node_id).set(1)
        self.dispatcher = RoutedDispatcher(self)
        self.broker = Broker(self)
        return self

    # -- service links ------------------------------------------------------
    def open_service_link(self, peer_id: str, info=None) -> Generator:
        """Open a service link to ``peer_id`` (routed via the relay).

        Routed messages are the bootstrap-capable method (Table 1), so the
        service link always goes through the relay — "In the presence of
        firewalls, NetIbis chooses routed messages for service links."
        (The peer's registered ``info`` is not needed for that.)
        """
        link = yield from self.relay_client.open_link(peer_id, payload=SERVICE_TAG)
        return link

    @coroutine
    def accept_service_link(self) -> Generator:
        """Wait for a peer-initiated service link; returns (peer_id, link)."""
        link = yield from self.dispatcher.accept_service()
        return link.peer, link

    # -- survivable sessions -------------------------------------------------
    def next_session_id(self) -> int:
        """A deterministic 64-bit session id unique to this node."""
        self._sid_seq += 1
        return scoped_id(self.node_id, self._sid_seq, 16)

    @coroutine
    def open_resume_link(self, peer_id: str, sid: int) -> Generator:
        """Open the service link a session uses to re-establish itself."""
        link = yield from self.relay_client.open_link(peer_id, payload=resume_tag(sid))
        return link

    def stop(self) -> None:
        obs.metrics().gauge("node.up", node=self.info.node_id).set(0)
        self.sessions.close()
        if self.dispatcher is not None:
            self.dispatcher.close()
        self.relay_client.close()
