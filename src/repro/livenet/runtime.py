"""LiveIbis: the Ibis runtime over real sockets.

The paper's §8 plans "a second implementation" (PadicoTM) to validate the
architecture; this is ours.  :class:`LiveIbis` is
:class:`~repro.ipl.runtime.Ibis` — the same ports, port-connect request,
stack agreement, shared mux endpoints and factory — over a
:class:`LiveNode`, which holds only establishment on real sockets.  User
space cannot manufacture middlebox traversal, so of Figure 4 a live node
carries out client/server, direct to the peer's one advertised port, and
routed messages; the shared :class:`~repro.core.brokering.Broker`
negotiates and falls back between them.  Every link names its purpose when it opens (``service``,
``data:<nonce>``, ``sessres:<sid>``), direct or routed, and the simulator
node's :class:`~repro.core.dispatch.RoutedDispatcher` hands it on; the
session registry and resume link are the simulator node's too.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .. import obs
from ..core.addressing import EndpointInfo
from ..core.brokering import Broker
from ..core.dispatch import SERVICE_TAG, RoutedDispatcher, data_tag
from ..core.establishment.base import CLIENT_SERVER, ROUTED
from ..core.establishment.verify import verify_initiator, verify_responder
from ..core.factory import TlsConfig
from ..core.node import GridNode
from ..core.runtime import ASYNCIO
from ..core.session import SessionRegistry
from ..core.wire import WireError, recv_frame, send_frame
from ..ipl.registry import RegistryClient
from ..ipl.runtime import Ibis, IbisError
from .drivers import AsyncParallelStreamsDriver, AsyncRebalancingParallelDriver
from .mux import AsyncMuxEndpoint
from .relay import LiveMeshRelayClient, LiveRelayClient
from .session import AsyncSessionLink
from .transport import live_connect, live_listen

__all__ = ["LiveIbis", "LiveIbisError", "LiveNode", "LiveBroker"]

Addr = Tuple[str, int]

#: longest purpose tag a direct link may open with
_MAX_TAG = 64


class LiveIbisError(IbisError):
    """Live runtime failure."""


async def _task(steps):
    """Root of every task started here: per-layer attribution
    (``benchmarks/perf``) follows the file a task's coroutine is defined in.
    A task cancelled before its first step never awaits ``steps``, so the
    spawner closes ``steps`` once the task is done: unrun, not unawaited."""
    return await steps


class _Tasks:
    """Tasks started on the asyncio runtime, tracked for cancelling."""

    def _spawn(self, steps, name: str):
        task = ASYNCIO.spawn(_task(steps), name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        task.add_done_callback(lambda _task: steps.close())  # see _task
        return task

    def _cancel_tasks(self) -> None:
        for task in list(self._tasks):
            task.cancel()


class LiveBroker(Broker):
    """The shared broker with client/server on real sockets: the initiator
    dials the peer's one advertised port under ``data:<nonce>``, and the
    responder meets that link at the dispatcher's
    :meth:`~repro.core.dispatch.RoutedDispatcher.await_data`, opening no
    listener; each then runs the cookie exchange."""

    METHODS = (CLIENT_SERVER, ROUTED)

    async def _connect_client_server(self, peer_info, _params, nonce, ctx):
        sock = await live_connect((peer_info.local_ip, peer_info.open_ports[0]))
        try:
            await send_frame(sock, data_tag(nonce))
            await verify_initiator(sock, nonce)
        except BaseException:
            sock.abort()
            raise
        obs.event("establish.link", ctx=ctx, method=CLIENT_SERVER, role="initiator")
        return sock

    def _accept_client_server(self, nonce, ctx):
        async def pending():
            sock = await self.dispatcher.await_data(nonce)
            try:
                await verify_responder(sock, nonce)
            except BaseException:
                sock.abort()
                raise
            obs.event(
                "establish.link", ctx=ctx, method=CLIENT_SERVER, role="responder")
            return sock

        return b"", pending()


class LiveNode(_Tasks):
    """What the shared Ibis and factory ask of a node, on real sockets.

    The node has one port, advertised as ``local_ip`` and
    ``open_ports[0]``: its own listener, or a gateway that forwards to it
    (:meth:`advertise`).  Every direct link opens with a purpose tag and is
    routed by the same :class:`~repro.core.dispatch.RoutedDispatcher` rule
    as the relay-routed ones; a link silent past :attr:`tag_deadline`
    seconds, or naming a purpose nobody serves, is closed.  ``relay_addr`` is
    one relay's address, or relay id -> address for a mesh.
    """

    runtime = ASYNCIO
    mux_endpoint = AsyncMuxEndpoint
    session_link = AsyncSessionLink
    parallel = (AsyncParallelStreamsDriver, AsyncRebalancingParallelDriver)
    #: no simulated host whose CPU the filters charge, no address
    #: reflector (no NAT to discover) and no flight recorder
    host = reflector_addr = flight = None
    next_session_id = GridNode.next_session_id
    accept_service_link = GridNode.accept_service_link
    open_resume_link = GridNode.open_resume_link
    #: seconds a direct link may take to name its purpose
    tag_deadline = 5.0

    def __init__(
        self,
        name: str,
        relay_addr,
        listen_host: str = "127.0.0.1",
        auto_reconnect: bool = False,
        mesh_seed=0,
        mesh_config=None,
    ):
        self.node_id = name
        self.info: Optional[EndpointInfo] = None
        self.listen_host = listen_host
        self.listener = None
        if isinstance(relay_addr, dict):
            self.relay_client = LiveMeshRelayClient(
                name, relay_addr, seed=mesh_seed, config=mesh_config)
        else:
            self.relay_client = LiveRelayClient(
                name, relay_addr, auto_reconnect=auto_reconnect)
        self.dispatcher: Optional[RoutedDispatcher] = None
        self.broker: Optional[LiveBroker] = None
        self.sessions = SessionRegistry(self)
        #: direct service links this node opened or accepted: a port
        #: connect leaves its own open once negotiated, so :meth:`stop`
        #: closes what is left of them
        self._service_links: set = set()
        self._tasks: set = set()
        self._sid_seq = 0

    async def listen(self) -> Addr:
        """Bind the node's port; returns the address a gateway forwards to."""
        if self.listener is None:
            self.listener = await live_listen(self.listen_host, 0)
        return self.listener.addr

    def advertise(self, addr: Addr) -> None:
        """Tell peers ``addr`` is this node's port (a port-forward to it)."""
        self.info = EndpointInfo(
            node_id=self.node_id, local_ip=addr[0], open_ports=(addr[1],)
        )

    async def start(self) -> "LiveNode":
        if self.info is None:
            self.advertise(await self.listen())
        await self.relay_client.connect()
        self.dispatcher = RoutedDispatcher(self)
        self.broker = LiveBroker(self)
        self._spawn(self._direct_links(), f"livenode-{self.node_id}-direct")
        return self

    async def open_service_link(self, peer_id: str, info: EndpointInfo):
        """A service link to ``info``'s node: direct to its advertised
        port, else routed via the relay (Figure 4's bootstrap branch)."""
        try:
            sock = await live_connect((info.local_ip, info.open_ports[0]))
        except (OSError, IndexError):
            return await self.relay_client.open_link(info.node_id, payload=SERVICE_TAG)
        await send_frame(sock, SERVICE_TAG)
        self._keep_service_link(sock)
        return sock

    def _keep_service_link(self, sock) -> None:
        self._service_links = {s for s in self._service_links if not s.closing}
        self._service_links.add(sock)

    async def _direct_links(self) -> None:
        while True:
            sock = await self.listener.accept()
            self._spawn(self._route_direct(sock), f"livenode-{self.node_id}-tag")

    async def _route_direct(self, sock) -> None:
        try:
            tag = await self.runtime.bounded(
                recv_frame(sock, _MAX_TAG), self.tag_deadline)
        except (WireError, EOFError, OSError):  # a missed deadline too
            sock.close()
            return
        if tag == SERVICE_TAG:
            self._keep_service_link(sock)
        self.dispatcher.route(sock, tag)

    def stop(self) -> None:
        self.sessions.close()
        if self.dispatcher is not None:
            self.dispatcher.close()
        self._cancel_tasks()
        self.relay_client.close()
        if self.listener is not None:
            self.listener.close()
        for sock in self._service_links:
            sock.close()
        self._service_links.clear()


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
