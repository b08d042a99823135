"""The host-side mesh client: one registration per relay, one route table.

:class:`MeshRelayClient` presents the exact surface of a single
:class:`~repro.core.relay.RelayClient` — ``open_link`` / ``accept_link``
/ ``wait_connected`` / ``close`` / ``drop`` / ``connected`` /
``reconnects`` — so everything built on the single-relay client
(:class:`~repro.core.dispatch.RoutedDispatcher`, the broker, the stack
factory, session recovery) works unchanged on a mesh.  Underneath it
holds one auto-reconnecting sub-client per relay and answers the mesh's
question — *which relay carries this link* — with a
:class:`~repro.mesh.routes.RouteTable` fed by relay-pushed ``T_MESH``
views and ``path.rtt_seconds`` gauges.

Failover falls out of the composition: when the incumbent relay dies,
its sub-client disconnects (making it unusable to the route table) and
the next ``open_link`` — including a session's RESUME re-establishment —
lands on a surviving relay.
"""

from __future__ import annotations

from typing import Callable, Optional

from .. import obs
from ..core.relay import _SESSION_ERRORS, _TRANSPORT_ERRORS, RelayClient, RelayError
from ..core.relay_core import MeshSelection
from ..core.runtime import Bound
from ..obs import TraceContext
from ..simnet.packet import Addr
from .config import MeshConfig

__all__ = ["MeshRelayClient"]


class MeshRelayClient(Bound, MeshSelection):
    """A node's registrations with every relay of a mesh, route-table picked.

    ``relays`` maps relay id -> address.  Sub-clients always run with
    ``auto_reconnect`` so a crashed-then-restarted relay re-joins the
    usable set without anyone asking.  Written once on ``self.runtime``;
    a live subclass names the asyncio runtime and its sub-client class.
    """

    client_class = RelayClient

    def __init__(
        self,
        host,
        node_id: str,
        relays: dict[str, Addr],
        connector: Optional[Callable] = None,
        seed=0,
        config: Optional[MeshConfig] = None,
        keepalive: float = 10.0,
    ):
        self.host = host
        clients = {
            rid: self.client_class(host=host, node_id=node_id, relay_addr=addr,
                                   connector=connector, auto_reconnect=True,
                                   keepalive=keepalive)
            for rid, addr in sorted(relays.items())
        }
        super().__init__(node_id, clients, seed, config, clock=self.runtime.now)
        #: one queue for links accepted on *any* relay
        self._accepts = self.runtime.queue()
        for client in clients.values():
            client._accepts = self._accepts

    @property
    def sim(self):
        return self.host.sim

    # -- RelayClient surface: state ------------------------------------------
    @property
    def reconnects(self) -> int:
        return sum(c.reconnects for c in self.clients.values())

    # -- lifecycle -----------------------------------------------------------
    async def connect(self):
        """Register with every relay; at least one must accept us.

        Relays unreachable at boot are retried in the background with the
        sub-client's reconnect policy — the mesh is degraded, not down.
        """
        self.closed = False
        errors: list[str] = []
        for rid in sorted(self.clients):
            client = self.clients[rid]
            try:
                await client.connect()
            except _SESSION_ERRORS as exc:
                errors.append(f"{rid}: {type(exc).__name__}: {exc}")
                client._spawn(client._reconnect_loop(),
                              f"mesh-join-{self.node_id}-{rid}")
        if not self.connected:
            raise RelayError(f"no relay reachable: {'; '.join(errors)}")
        return self

    async def wait_connected(self, timeout: float = 30.0):
        """Wait until *any* relay registration is live."""
        deadline = self.runtime.now() + timeout
        while True:
            if self.connected:
                return self
            if self.closed:
                raise RelayError("relay client closed")
            remaining = deadline - self.runtime.now()
            if remaining <= 0:
                raise TimeoutError(
                    f"no relay connection up within {timeout}s"
                )
            await self.runtime.sleep(min(0.2, remaining))

    def close(self) -> None:
        self.closed = True
        for client in self.clients.values():
            client.close()

    def drop(self) -> None:
        """Fault-injection hook: sever every relay session abruptly."""
        for client in self.clients.values():
            client.drop()

    # -- links ---------------------------------------------------------------
    def _feed_paths(self) -> None:
        """Fold measured path RTTs into the route table.

        :class:`~repro.core.monitor.PathMonitor` publishes
        ``path.rtt_seconds{peer=...}``; gauges whose peer is one of our
        relays refine that relay's score.  Unmeasured relays keep their
        load-only score, so telemetry sharpens routing without gating it.
        """
        for inst in obs.metrics().instruments("path.rtt_seconds"):
            peer = inst.labels.get("peer")
            if peer in self.clients:
                self.table.update_path(peer, inst.value)

    def pick_relay(self, peer: str) -> Optional[str]:
        self._feed_paths()
        return super().pick_relay(peer)

    async def open_link(
        self, peer: str, payload: bytes = b"",
        ctx: Optional[TraceContext] = None,
    ):
        """Open a routed link to ``peer`` through the best live relay; a
        relay whose session turns out dead is skipped for the next best."""
        for _ in self.clients:
            rid = self.choose_relay(peer, ctx)
            try:
                return await self.clients[rid].open_link(peer, payload, ctx=ctx)
            except (*_TRANSPORT_ERRORS, RelayError):
                self.clients[rid].connected = False
                self.table.invalidate(rid)
        raise RelayError("no usable relay for routed open")

    def accept_link(self):
        """Wait for a peer-initiated routed link on *any* relay."""
        return self._accepts.get()
