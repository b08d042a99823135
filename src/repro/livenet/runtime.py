"""LiveIbis: the Ibis runtime over real sockets.

The paper's §8 plans "a second implementation" (PadicoTM) to validate the
architecture; this is ours.  The same layering as :mod:`repro.ipl.runtime`
— name service, relay registration, port-connect requests, negotiated
driver stacks, typed messages — bound to asyncio instead of the simulator.

Establishment on a real network from user space cannot manufacture
middlebox traversal, so the live decision list is: direct TCP to the
peer's advertised service listener, falling back to relay-routed messages
— exactly the bootstrap-capable subset of Figure 4.  The full method
matrix lives in the simulator.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Optional, Tuple

from .. import obs
from ..core.addressing import EndpointInfo
from ..core.utilization.spec import StackSpec
from ..core.utilization.stack import build_stack
from ..core.utilization.stream import BlockChannel
from ..core.wire import WireError, recv_frame, send_frame
from ..ipl.registry import RegistryClient
from ..ipl.serialization import MessageReader, MessageWriter
from ..util.framing import ByteReader, ByteWriter
from ..mux import DEFAULT_WINDOW
from ..mux.scheduler import make_scheduler
from .drivers import AsyncParallelStreamsDriver, AsyncRebalancingParallelDriver
from .mux import AsyncMuxEndpoint
from .relay import LiveRelayClient
from .transport import LiveListener, live_connect, live_listen

__all__ = ["LiveIbis", "LiveIbisError", "LiveSendPort", "LiveReceivePort"]

REQ_PORT_CONNECT = 1
RESP_OK = 0
RESP_ERR = 1

Addr = Tuple[str, int]


class LiveIbisError(Exception):
    """Live runtime failure."""


def _typed_spec(spec) -> StackSpec:
    if not isinstance(spec, StackSpec):
        raise TypeError(
            f"expected StackSpec, got {type(spec).__name__}; the string form "
            f"is wire-only — use StackSpec.parse(...)"
        )
    return spec


def _require_live_supported(spec: StackSpec) -> None:
    """Refuse, before anything is dialled, what :class:`LiveIbis` cannot
    run: it assembles no session links and runs no TLS handshake (it has
    no credentials to run one with)."""
    for layer in ("session", "tls"):
        if layer in spec:
            raise LiveIbisError(f"layer {layer!r} unsupported on the live backend")


def _build_channel(spec: StackSpec, socks: list) -> BlockChannel:
    return BlockChannel(
        build_stack(spec, socks, parallel=(
            AsyncParallelStreamsDriver, AsyncRebalancingParallelDriver))
    )


class LiveWriteMessage(MessageWriter):
    """A message under construction on a live send port."""

    def __init__(self, port: "LiveSendPort"):
        super().__init__()
        self._port = port

    async def finish(self) -> int:
        payload = self.getvalue()
        for channel in self._port.channels.values():
            await channel.send_message(payload)
        self._port.messages_sent += 1
        return len(payload)


class LiveSendPort:
    """Sending endpoint: connect to named receive ports, send messages."""

    def __init__(self, runtime: "LiveIbis", name: str):
        self.runtime = runtime
        self.name = name
        self.channels: dict[str, BlockChannel] = {}
        self.messages_sent = 0

    async def connect(self, port_name: str, spec: Optional[StackSpec] = None) -> None:
        if port_name in self.channels:
            raise LiveIbisError(f"already connected to {port_name!r}")
        channel = await self.runtime._connect_port(port_name, spec)
        self.channels[port_name] = channel

    def new_message(self) -> LiveWriteMessage:
        if not self.channels:
            raise LiveIbisError(f"send port {self.name!r} is not connected")
        return LiveWriteMessage(self)

    def close(self) -> None:
        for channel in self.channels.values():
            channel.close()
        self.channels.clear()


class LiveReceivePort:
    """Receiving endpoint: fans incoming channels into one message queue."""

    def __init__(self, runtime: "LiveIbis", name: str):
        self.runtime = runtime
        self.name = name
        self._queue: asyncio.Queue = asyncio.Queue()
        self._pumps: list[asyncio.Task] = []

    def _attach(self, channel: BlockChannel, origin: str) -> None:
        self._pumps.append(asyncio.ensure_future(self._pump(channel, origin)))

    async def _pump(self, channel: BlockChannel, origin: str) -> None:
        try:
            while True:
                payload = await channel.recv_message()
                message = MessageReader(payload)
                message.origin = origin
                await self._queue.put(message)
        except (EOFError, ConnectionError, asyncio.CancelledError):
            return

    async def receive(self) -> MessageReader:
        return await self._queue.get()

    def close(self) -> None:
        for task in self._pumps:
            task.cancel()


class LiveIbis:
    """One live Ibis instance."""

    def __init__(
        self,
        name: str,
        registry_addr: Addr,
        relay_addr: Addr,
        default_spec=None,
        listen_host: str = "127.0.0.1",
    ):
        self.name = name
        self.default_spec = (
            StackSpec.tcp() if default_spec is None else _typed_spec(default_spec)
        )
        self.registry = RegistryClient(
            None, registry_addr, connector=lambda _host, addr: live_connect(addr)
        )
        self.relay = LiveRelayClient(name, relay_addr)
        self.listen_host = listen_host
        self.listener: Optional[LiveListener] = None
        self.receive_ports: dict[str, LiveReceivePort] = {}
        self._tasks: list[asyncio.Task] = []
        self.info: Optional[EndpointInfo] = None
        #: initiator side: peer name -> (endpoint id, shared mux endpoint)
        self._shared_mux: dict[str, tuple[int, AsyncMuxEndpoint]] = {}
        #: responder side: (peer name, endpoint id) -> shared mux endpoint
        self._shared_mux_resp: dict[tuple[str, int], AsyncMuxEndpoint] = {}
        self._mux_ids = itertools.count(1)

    async def start(self) -> "LiveIbis":
        self.listener = await live_listen(self.listen_host, 0)
        await self.registry.connect()
        # The node's service address travels inside EndpointInfo:
        # local_ip holds the listener host, open_ports[0] the service port.
        self.info = EndpointInfo(
            node_id=self.name,
            local_ip=self.listener.addr[0],
            open_ports=(self.listener.port,),
        )
        await self.registry.register(self.name, self.info)
        await self.relay.connect()
        self._tasks.append(asyncio.ensure_future(self._direct_service_loop()))
        self._tasks.append(asyncio.ensure_future(self._routed_service_loop()))
        return self

    async def leave(self) -> None:
        for port in self.receive_ports.values():
            port.close()
        for _eid, endpoint in self._shared_mux.values():
            endpoint.close()
        for endpoint in self._shared_mux_resp.values():
            endpoint.close()
        self._shared_mux.clear()
        self._shared_mux_resp.clear()
        for task in self._tasks:
            task.cancel()
        await self.registry.leave(self.name)
        self.registry.close()
        self.relay.close()
        if self.listener is not None:
            self.listener.close()

    # -- ports ---------------------------------------------------------------
    async def create_receive_port(self, port_name: str) -> LiveReceivePort:
        if port_name in self.receive_ports:
            raise LiveIbisError(f"receive port {port_name!r} exists")
        port = LiveReceivePort(self, port_name)
        await self.registry.register_port(port_name, self.name)
        self.receive_ports[port_name] = port
        return port

    def create_send_port(self, port_name: str) -> LiveSendPort:
        return LiveSendPort(self, port_name)

    async def elect(self, election: str) -> str:
        return await self.registry.elect(election, self.name)

    # -- connecting --------------------------------------------------------------
    async def _connect_port(self, port_name: str, spec):
        parsed = self.default_spec if spec is None else _typed_spec(spec)
        _require_live_supported(parsed)
        owner, owner_info = await self.registry.lookup_port(port_name)
        ctx = obs.current() or obs.TraceContext.new()
        with obs.span(
            "port.connect", ctx=ctx, port=port_name, node=self.name,
            backend="live",
        ):
            service = await self._open_service(owner, owner_info)
            request = (
                ByteWriter()
                .u8(REQ_PORT_CONNECT)
                .lp_str(port_name)
                .lp_str(self.name)
                .getvalue()
            )
            await send_frame(service, request)
            reply = ByteReader(await recv_frame(service))
            if reply.u8() != RESP_OK:
                raise LiveIbisError(f"connect rejected: {reply.lp_str()}")
            # Stack agreement + data connections (direct TCP or routed).
            agreement = ByteWriter().lp_str(str(parsed)).u32(65536)
            n = parsed.links_required
            if parsed.mux is not None:
                # One shared data connection per peer; every logical link
                # is a multiplexed channel over it.  The agreement names
                # the endpoint (eid) so later connects to the same peer
                # reuse it, and a fresh nonce tags this conversation's
                # channels so concurrent connects cannot steal them —
                # the same scheme as the sim factory.
                nonce = next(self._mux_ids)
                cached = self._shared_mux.get(owner)
                if cached is not None and not cached[1].alive:
                    self._shared_mux.pop(owner, None)
                    cached = None
                reuse = 1 if cached is not None else 0
                eid = cached[0] if cached is not None else next(self._mux_ids)
                agreement.u8(reuse).u64(eid).u64(nonce)
                await send_frame(service, agreement.getvalue())
                if cached is not None:
                    endpoint = cached[1]
                    obs.event(
                        "mux.reuse", ctx=ctx, node=self.name, peer=owner,
                        backend="live",
                    )
                else:
                    sock = await self._open_data(
                        owner, owner_info, service, ctx=ctx
                    )
                    endpoint = await AsyncMuxEndpoint.establish(
                        sock,
                        AsyncMuxEndpoint.INITIATOR,
                        window=int(parsed.mux.get("win", DEFAULT_WINDOW)),
                        scheduler=make_scheduler(
                            str(parsed.mux.get("sched", "rr"))
                        ),
                        node=self.name,
                        ctx=ctx,
                    )
                    self._shared_mux[owner] = (eid, endpoint)
                tag = nonce.to_bytes(8, "big")
                socks = [
                    await endpoint.open_channel(tag, ctx=ctx)
                    for _ in range(n)
                ]
            else:
                await send_frame(service, agreement.getvalue())
                socks = []
                for _ in range(n):
                    sock = await self._open_data(
                        owner, owner_info, service, ctx=ctx
                    )
                    socks.append(sock)
            return _build_channel(parsed, socks)

    async def _open_service(self, owner: str, info: EndpointInfo):
        # Figure 4, bootstrap branch: direct client/server when the peer
        # advertises a reachable listener, else routed via the relay.
        try:
            return await live_connect((info.local_ip, info.open_ports[0]))
        except (ConnectionError, OSError, IndexError):
            return await self.relay.open_link(owner, payload=b"service")

    async def _open_data(
        self, owner: str, info: EndpointInfo, service, ctx=None
    ):
        # The request frame carries the caller's trace context so the
        # responder's side of the data connection joins the same causal
        # trace: u8 request kind, lp_bytes encoded context (empty when
        # the caller has none).
        child = ctx.child() if ctx is not None else None
        encoded = child.encode() if child is not None else b""
        await send_frame(
            service, ByteWriter().u8(1).lp_bytes(encoded).getvalue()
        )
        reply = ByteReader(await recv_frame(service))
        kind = reply.u8()
        if kind != 0:
            raise LiveIbisError("responder offered no data listener")
        host = reply.lp_str()
        port = reply.u16()
        sock = await live_connect((host, port))
        obs.event(
            "data.connected", ctx=child, node=self.name, peer=owner,
            backend="live",
        )
        return sock

    # -- serving --------------------------------------------------------------------
    async def _direct_service_loop(self) -> None:
        while True:
            sock = await self.listener.accept()
            asyncio.ensure_future(self._serve_one(sock))

    async def _routed_service_loop(self) -> None:
        while True:
            link = await self.relay.accept_link()
            if link.open_payload == b"service":
                asyncio.ensure_future(self._serve_one(link))
            # Other tags would be routed data channels; the live responder
            # always offers direct listeners, so none are expected.

    async def _serve_one(self, service) -> None:
        try:
            request = ByteReader(await recv_frame(service))
        except (EOFError, ConnectionError, WireError):
            service.close()
            return
        if request.u8() != REQ_PORT_CONNECT:
            await send_frame(
                service, ByteWriter().u8(RESP_ERR).lp_str("bad request").getvalue()
            )
            return
        port_name = request.lp_str()
        sender = request.lp_str()
        port = self.receive_ports.get(port_name)
        if port is None:
            await send_frame(
                service,
                ByteWriter().u8(RESP_ERR).lp_str(f"no port {port_name!r}").getvalue(),
            )
            return
        await send_frame(service, ByteWriter().u8(RESP_OK).getvalue())
        agreement = ByteReader(await recv_frame(service))
        # The spec string is the wire format: parse it silently.
        parsed = StackSpec.parse(agreement.lp_str())
        try:
            _require_live_supported(parsed)
        except LiveIbisError:
            service.close()  # the peer is parked on its data request
            raise
        _block_size = agreement.u32()
        n = parsed.links_required
        if parsed.mux is not None:
            reuse = agreement.u8()
            eid = agreement.u64()
            nonce = agreement.u64()
            key = (sender, eid)
            endpoint = self._shared_mux_resp.get(key)
            if endpoint is not None and not endpoint.alive:
                self._shared_mux_resp.pop(key, None)
                endpoint = None
            if reuse:
                if endpoint is None:
                    raise LiveIbisError(
                        f"peer {sender!r} asked to reuse unknown mux "
                        f"endpoint {eid}"
                    )
            else:
                sock, ctx = await self._accept_data(service, sender)
                endpoint = await AsyncMuxEndpoint.establish(
                    sock,
                    AsyncMuxEndpoint.RESPONDER,
                    window=int(parsed.mux.get("win", DEFAULT_WINDOW)),
                    scheduler=make_scheduler(
                        str(parsed.mux.get("sched", "rr"))
                    ),
                    node=self.name,
                    ctx=ctx,
                )
                self._shared_mux_resp[key] = endpoint
            tag = nonce.to_bytes(8, "big")
            socks = [
                await endpoint.accept_channel(tag) for _ in range(n)
            ]
        else:
            socks = []
            for _ in range(n):
                sock, _ctx = await self._accept_data(service, sender)
                socks.append(sock)
        port._attach(_build_channel(parsed, socks), origin=sender)

    async def _accept_data(self, service, sender: str):
        """One responder round of the data-connection sub-protocol.

        Returns ``(socket, trace_context)`` — the context decoded from
        the request frame (``None`` when the caller sent none), so the
        accept joins the initiator's causal trace.
        """
        request = ByteReader(await recv_frame(service))
        request.u8()  # request kind; only data connections are defined
        ctx = None
        encoded = request.lp_bytes()
        if encoded:
            try:
                ctx = obs.TraceContext.decode(encoded)
            except Exception:
                ctx = None
        listener = await live_listen(self.listen_host, 0)
        reply = (
            ByteWriter()
            .u8(0)
            .lp_str(listener.addr[0])
            .u16(listener.port)
            .getvalue()
        )
        await send_frame(service, reply)
        sock = await listener.accept()
        listener.close()
        obs.event(
            "data.accepted", ctx=ctx, node=self.name, peer=sender,
            backend="live",
        )
        return sock, ctx
