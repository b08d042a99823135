"""LiveIbis: the Ibis runtime over real sockets.

The paper's §8 plans "a second implementation" (PadicoTM) to validate the
architecture; this is ours.  :class:`LiveIbis` is
:class:`~repro.ipl.runtime.Ibis` — the same ports, port-connect request,
stack agreement, shared mux endpoints and factory — over a
:class:`LiveNode`, which holds only establishment on real sockets.  User
space cannot manufacture middlebox traversal, so service links go direct
to the peer's advertised listener and fall back to relay-routed messages
(the bootstrap-capable subset of Figure 4), and :class:`LiveBroker` makes
data links by having the responder offer a fresh listener.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .. import obs
from ..core.addressing import EndpointInfo
from ..core.dispatch import SERVICE_TAG
from ..core.factory import TlsConfig
from ..core.node import GridNode
from ..core.runtime import ASYNCIO
from ..core.wire import recv_frame, send_frame
from ..ipl.registry import RegistryClient
from ..ipl.runtime import Ibis, IbisError
from ..util.framing import ByteReader, ByteWriter
from .drivers import AsyncParallelStreamsDriver, AsyncRebalancingParallelDriver
from .mux import AsyncMuxEndpoint
from .relay import LiveRelayClient
from .transport import live_connect, live_listen

__all__ = ["LiveIbis", "LiveIbisError", "LiveNode", "LiveBroker"]

Addr = Tuple[str, int]

#: data-request exchange on a service link: the initiator asks, the
#: responder answers with the address of a listener opened for it
REQ_DATA = 1
RESP_LISTENER = 0


class LiveIbisError(IbisError):
    """Live runtime failure."""


async def _task(steps):
    """Root of every task started here: per-layer attribution
    (``benchmarks/perf``) follows the file a task's coroutine is defined in."""
    return await steps


class _Tasks:
    """Tasks started on the asyncio runtime, tracked for cancelling."""

    def _spawn(self, steps, name: str):
        task = ASYNCIO.spawn(_task(steps), name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _cancel_tasks(self) -> None:
        for task in list(self._tasks):
            task.cancel()


class LiveBroker:
    """The data-link exchange on a live service link (docs/PROTOCOLS.md §5):
    ``initiate`` asks, with its trace context so the responder joins the
    trace, and dials the listener that ``respond`` opens for it."""

    def __init__(self, node: "LiveNode"):
        self.node = node

    async def initiate(self, service, peer_info, methods=None, ctx=None):
        child = ctx.child() if ctx is not None else None
        encoded = child.encode() if child is not None else b""
        await send_frame(
            service, ByteWriter().u8(REQ_DATA).lp_bytes(encoded).getvalue()
        )
        reply = ByteReader(await recv_frame(service))
        if reply.u8() != RESP_LISTENER:
            raise LiveIbisError("responder offered no data listener")
        sock = await live_connect((reply.lp_str(), reply.u16()))
        obs.event(
            "data.connected", ctx=child, node=self.node.node_id,
            peer=peer_info.node_id, backend="live",
        )
        return sock

    async def respond(self, service):
        request = ByteReader(await recv_frame(service))
        request.u8()  # request kind; only data connections are defined
        try:
            ctx = obs.TraceContext.decode(request.lp_bytes())
        except ValueError:  # empty: the initiator has no trace
            ctx = None
        listener = await live_listen(self.node.listen_host, 0)
        try:
            reply = ByteWriter().u8(RESP_LISTENER).lp_str(listener.addr[0])
            await send_frame(service, reply.u16(listener.port).getvalue())
            sock = await listener.accept()
        finally:
            listener.close()
        sock.ctx = ctx  # the factory stamps the responder's spans with it
        obs.event(
            "data.accepted", ctx=ctx, node=self.node.node_id, backend="live"
        )
        return sock


class LiveNode(_Tasks):
    """What the shared Ibis and factory ask of a node, on real sockets:
    service links on a direct listener (advertised as ``local_ip`` and
    ``open_ports[0]``) or relay-routed under the ``service`` tag."""

    runtime = ASYNCIO
    mux_endpoint = AsyncMuxEndpoint
    parallel = (AsyncParallelStreamsDriver, AsyncRebalancingParallelDriver)
    #: no simulated host whose CPU the filters charge
    host = None
    next_session_id = GridNode.next_session_id

    def __init__(self, name: str, relay_addr: Addr, listen_host: str):
        self.node_id = name
        self.info: Optional[EndpointInfo] = None
        self.listen_host = listen_host
        self.listener = None
        self.relay_client = LiveRelayClient(name, relay_addr)
        self.broker = LiveBroker(self)
        self._service_links = ASYNCIO.queue()
        self._tasks: set = set()
        self._sid_seq = 0

    async def start(self) -> "LiveNode":
        self.listener = await live_listen(self.listen_host, 0)
        self.info = EndpointInfo(
            node_id=self.node_id,
            local_ip=self.listener.addr[0],
            open_ports=(self.listener.port,),
        )
        await self.relay_client.connect()
        self._spawn(self._direct_links(), f"livenode-{self.node_id}-direct")
        self._spawn(self._routed_links(), f"livenode-{self.node_id}-routed")
        return self

    async def open_service_link(self, peer_id: str, info: EndpointInfo):
        # Figure 4, bootstrap branch: direct client/server when the peer
        # advertises a reachable listener, else routed via the relay.
        try:
            return await live_connect((info.local_ip, info.open_ports[0]))
        except (ConnectionError, OSError, IndexError):
            return await self.relay_client.open_link(peer_id, payload=SERVICE_TAG)

    async def accept_service_link(self):
        """The next service link: ``(peer, link)``, ``peer`` empty when the
        link came to the direct listener (the request names the sender)."""
        return await self._service_links.get()

    async def _direct_links(self) -> None:
        while True:
            self._service_links.put(("", await self.listener.accept()))

    async def _routed_links(self) -> None:
        while True:
            link = await self.relay_client.accept_link()
            if link.open_payload == SERVICE_TAG:
                self._service_links.put((link.peer, link))
            else:  # data links are direct here: nothing else is routed in
                link.close()

    def stop(self) -> None:
        self._cancel_tasks()
        self.relay_client.close()
        if self.listener is not None:
            self.listener.close()


class LiveIbis(_Tasks, Ibis):
    """One live Ibis instance: :class:`Ibis` over a :class:`LiveNode`."""

    def __init__(
        self,
        name: str,
        registry_addr: Addr,
        relay_addr: Addr,
        default_spec=None,
        listen_host: str = "127.0.0.1",
        tls_config: Optional[TlsConfig] = None,
    ):
        registry = RegistryClient(
            None, registry_addr, connector=lambda _host, addr: live_connect(addr)
        )
        super().__init__(
            LiveNode(name, relay_addr, listen_host), registry,
            default_spec=default_spec, tls_config=tls_config,
        )
        self._tasks: set = set()

    # the node's service listener and the factory's shared mux endpoints
    listener = property(lambda self: self.node.listener)
    _shared_mux = property(lambda self: self.factory._shared_mux)
    _shared_mux_resp = property(lambda self: self.factory._shared_mux_resp)

    async def _connect_port(self, send_port, port_name, spec, ctx=None):
        if getattr(spec or self.default_spec, "session", None) is not None:
            raise LiveIbisError("layer 'session' unsupported on the live backend")
        ctx = obs.current() or obs.TraceContext.new()
        with obs.span(
            "port.connect", ctx=ctx, port=port_name, node=self.name,
            backend="live",
        ):
            return await super()._connect_port(send_port, port_name, spec, ctx)

    async def leave(self) -> None:
        try:
            await super().leave()
        finally:
            self._cancel_tasks()
