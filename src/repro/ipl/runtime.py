"""The Ibis runtime instance (paper §5, Figure 5).

One :class:`Ibis` object per participating process wires together the whole
stack: the relay registration and broker (its node), the Ibis Name Service
client, the brokered connection factory, and the send/receive ports of the
IPL.  It is written once on :mod:`repro.core.runtime`: over a simulated
:class:`~repro.core.node.GridNode` a simulator process runs it, and
:class:`~repro.livenet.runtime.LiveIbis` is the same class over a node on
real sockets.

Connection flow for ``send_port.connect("worker-in")``:

1. look up the receive port in the name service → owner node + its
   :class:`~repro.core.addressing.EndpointInfo`;
2. open a service link to the owner (the node's bootstrap method: routed
   via the relay in the simulator, direct with a routed fallback on live);
3. send a port-connect request naming the receive port;
4. the factory negotiates the driver-stack spec and establishes the data
   links via the Figure 4 decision tree with fall-back;
5. both sides assemble mirrored driver stacks; the channel is attached to
   the ports.
"""

from __future__ import annotations

from types import coroutine
from typing import Generator, Optional

from .. import obs
from ..core.factory import BrokeredConnectionFactory, TlsConfig, _typed_spec
from ..core.utilization.spec import StackSpec, StackSpecError
from ..core.utilization.stream import DEFAULT_BLOCK, BlockChannel
from ..core.wire import recv_frame, send_frame
from ..util.framing import ByteReader, ByteWriter, FrameError
from .identifiers import IbisIdentifier
from .ports import ReceivePort, SendPort
from .registry import RegistryClient

__all__ = [
    "Ibis",
    "IbisError",
    "encode_port_tag",
    "decode_port_tag",
    "is_port_tag",
]

REQ_PORT_CONNECT = 1
RESP_OK = 0
RESP_ERR = 1

#: mux OPEN tags carrying an in-band port-connect request start with this
#: magic.  The factory's conversation tags are exactly 8 nonce bytes, so
#: :func:`is_port_tag` requires the prefix AND a longer tag — it can never
#: steal a nonce tag, whatever the nonce's bytes happen to be.
PORT_TAG_MAGIC = b"ipl1"


def encode_port_tag(
    port_name: str, sender: str, spec: StackSpec, block_size: int
) -> bytes:
    """The OPEN tag for a fast port connect: the whole request, in-band.

    Carrying the request (and the stack agreement) inside the mux OPEN
    saves the service-link round trip the slow path spends on
    ``REQ_PORT_CONNECT``/``RESP_OK`` before negotiation even starts.
    """
    return (
        ByteWriter()
        .raw(PORT_TAG_MAGIC)
        .lp_str(port_name)
        .lp_str(sender)
        .lp_str(str(spec))
        .u32(block_size)
        .getvalue()
    )


def decode_port_tag(tag: bytes) -> tuple[str, str, str, int]:
    """``(port_name, sender, spec_text, block_size)`` from a port tag."""
    reader = ByteReader(tag)
    if reader.raw(len(PORT_TAG_MAGIC)) != PORT_TAG_MAGIC:
        raise FrameError("not a port-connect tag")
    port_name = reader.lp_str()
    sender = reader.lp_str()
    spec_text = reader.lp_str()
    block_size = reader.u32()
    reader.expect_end()
    return port_name, sender, spec_text, block_size


def is_port_tag(tag: bytes) -> bool:
    """Matcher for :meth:`MuxEndpoint.accept_channel`: claims only
    port-connect tags, never a factory conversation's 8-byte nonce."""
    return len(tag) > 8 and tag.startswith(PORT_TAG_MAGIC)


class IbisError(Exception):
    """Runtime-level failure (unknown port, rejected connect, ...)."""


class Ibis:
    """One Ibis instance: the application's entry point to the IPL.

    ``node`` is what establishes links — a simulated
    :class:`~repro.core.node.GridNode`, or the live node of
    :class:`~repro.livenet.runtime.LiveIbis` — and names the runtime every
    task here runs on; ``registry`` is the name-service client, not yet
    connected.
    """

    def __init__(
        self,
        node,
        registry: RegistryClient,
        default_spec: Optional[StackSpec] = None,
        tls_config: Optional[TlsConfig] = None,
        pool: str = "default",
    ):
        self.node = node
        self.runtime = node.runtime
        self.name = node.node_id
        self.identifier = IbisIdentifier(self.name, pool)
        if default_spec is not None and not isinstance(default_spec, StackSpec):
            raise TypeError(
                f"default_spec must be a StackSpec, got {type(default_spec).__name__}"
            )
        self.default_spec = default_spec or StackSpec.tcp()
        self.registry = registry
        self.factory: Optional[BrokeredConnectionFactory] = None
        self.tls_config = tls_config
        self.receive_ports: dict[str, ReceivePort] = {}
        self.send_ports: dict[str, SendPort] = {}
        self.started = False
        #: shared mux endpoints that already have a fast-open accept loop
        self._port_acceptors: set = set()

    @property
    def info(self):
        """This node's :class:`~repro.core.addressing.EndpointInfo`."""
        return self.node.info

    def _spawn(self, steps, name: str):
        return self.runtime.spawn(steps, name)

    # -- lifecycle -----------------------------------------------------------
    @coroutine
    def start(self) -> Generator:
        """Join the grid: relay, name service, service-request loop."""
        yield from self.node.start()
        yield from self.registry.connect()
        yield from self.registry.register(self.name, self.info)
        self.factory = BrokeredConnectionFactory(self.node, self.tls_config)
        self._spawn(self._service_loop(), name=f"ibis-{self.name}-services")
        self.started = True
        return self

    @coroutine
    def leave(self) -> Generator:
        """Leave the pool: unregister and drop connections."""
        for port in list(self.send_ports.values()):
            port.close()
        for port in list(self.receive_ports.values()):
            port.close()
        if self.factory is not None:
            self.factory.close()
        yield from self.registry.leave(self.name)
        self.registry.close()
        self.node.stop()
        self.started = False

    # -- ports ---------------------------------------------------------------
    @coroutine
    def create_receive_port(self, port_name: str) -> Generator:
        """Create and globally register a named receive port."""
        if port_name in self.receive_ports:
            raise IbisError(f"receive port {port_name!r} already exists")
        port = ReceivePort(self, port_name)
        yield from self.registry.register_port(port_name, self.name)
        self.receive_ports[port_name] = port
        return port

    def create_send_port(self, port_name: str) -> SendPort:
        """Create a send port (local object; connects on demand)."""
        if port_name in self.send_ports:
            raise IbisError(f"send port {port_name!r} already exists")
        port = SendPort(self, port_name)
        self.send_ports[port_name] = port
        return port

    @coroutine
    def elect(self, election: str) -> Generator:
        """Run an election; returns the winner's node name."""
        winner = yield from self.registry.elect(election, self.name)
        return winner

    # -- connection machinery ---------------------------------------------------
    @coroutine
    def _connect_port(
        self, send_port: SendPort, port_name: str, spec: Optional[StackSpec],
        ctx=None,
    ) -> Generator:
        if not self.started:
            raise IbisError("Ibis instance not started")
        parsed = self.default_spec if spec is None else _typed_spec(spec)
        owner, owner_info = yield from self.registry.lookup_port(port_name)
        fast = yield from self._fast_connect(owner, port_name, parsed)
        if fast is not None:
            return fast
        service = yield from self.node.open_service_link(owner, owner_info)
        request = (
            ByteWriter()
            .u8(REQ_PORT_CONNECT)
            .lp_str(port_name)
            .lp_str(self.name)
            .getvalue()
        )
        try:
            yield from send_frame(service, request)
            reply = yield from recv_frame(service)
            r = ByteReader(reply)
            if r.u8() != RESP_OK:
                raise IbisError(f"connect to {port_name!r} rejected: {r.lp_str()}")
            channel = yield from self.factory.connect(
                service, owner_info, spec=parsed, ctx=ctx
            )
        except Exception:
            service.close()
            raise
        # a mux spec just created (or reused) a shared endpoint: serve
        # fast opens the peer may initiate over it from now on
        self._ensure_port_acceptors()
        return channel

    @coroutine
    def _fast_connect(
        self, owner: str, port_name: str, parsed: StackSpec
    ) -> Generator:
        """Port connect carried in a mux OPEN tag — no service link at all.

        Applies when the spec is muxed (single channel, no session/tls
        layer, which would need per-link negotiation) and this node
        already shares a live mux endpoint with the owner: the OPEN tag
        carries the request plus the stack agreement, saving the slow
        path's ``REQ_PORT_CONNECT``/``RESP_OK`` round trip.  Returns
        ``None`` when the fast path does not apply.  Unlike the slow
        path, an unknown receive port surfaces on first use (the
        responder aborts the channel) rather than at connect time.
        """
        if (
            parsed.mux is None
            or parsed.session is not None
            or parsed.links_required != 1
            or any(layer.name == "tls" for layer in parsed.layers)
        ):
            return None
        endpoint = self.factory.shared_endpoint(owner)
        if endpoint is None:
            return None
        tag = encode_port_tag(port_name, self.name, parsed, DEFAULT_BLOCK)
        channel = yield from endpoint.open_channel(tag)
        stack = self.factory.build(parsed, [channel])
        obs.event(
            "ipl.fast_open", node=self.name, peer=owner, port=port_name
        )
        obs.metrics().counter("ipl.fast_opens_total", node=self.name).inc()
        return BlockChannel(stack, block_size=DEFAULT_BLOCK)

    def _ensure_port_acceptors(self) -> None:
        """Run a fast-open accept loop on every live shared mux endpoint."""
        seen = [cached[1] for cached in self.factory._shared_mux.values()]
        seen.extend(self.factory._shared_mux_resp.values())
        for endpoint in seen:
            if endpoint.alive and endpoint not in self._port_acceptors:
                self._port_acceptors.add(endpoint)
                self._spawn(
                    self._port_accept_loop(endpoint),
                    name=f"ibis-{self.name}-fastopen",
                )

    @coroutine
    def _port_accept_loop(self, endpoint) -> Generator:
        try:
            while endpoint.alive:
                channel = yield from endpoint.accept_channel(match=is_port_tag)
                self._spawn(
                    self._serve_fast_open(channel),
                    name=f"ibis-{self.name}-fastserve",
                )
        except Exception:  # noqa: BLE001 - endpoint died; loop is done
            pass
        finally:
            self._port_acceptors.discard(endpoint)

    @coroutine
    def _serve_fast_open(self, channel) -> Generator:
        try:
            port_name, sender, spec_text, block_size = decode_port_tag(
                channel.tag
            )
            parsed = StackSpec.parse(spec_text)
        except (FrameError, StackSpecError, UnicodeDecodeError):
            channel.abort()
            return
        port = self.receive_ports.get(port_name)
        if port is None or port.closed:
            channel.abort()
            return
        stack = self.factory.build(parsed, [channel])
        port._attach(BlockChannel(stack, block_size=block_size), origin=sender)
        return
        yield  # pragma: no cover - makes this a generator for spawn

    @coroutine
    def _service_loop(self) -> Generator:
        while True:
            _peer, service = yield from self.node.accept_service_link()
            self._spawn(self._serve_one(service), name=f"ibis-{self.name}-serve")

    @coroutine
    def _serve_one(self, service) -> Generator:
        """Answer one ``REQ_PORT_CONNECT``; a rejected request or a failed
        negotiation closes its service link, so the initiator is not left
        parked on it."""
        try:
            request = yield from recv_frame(service)
        except Exception:  # noqa: BLE001 - the initiator went away
            service.close()
            return
        try:
            r = ByteReader(request)
            if r.u8() != REQ_PORT_CONNECT:
                return (yield from self._reject(service, "bad request"))
            port_name = r.lp_str()
            sender = r.lp_str()
            port = self.receive_ports.get(port_name)
            if port is None or port.closed:
                return (yield from self._reject(service, f"no port {port_name!r}"))
            yield from send_frame(service, ByteWriter().u8(RESP_OK).getvalue())
            channel = yield from self.factory.accept(service, peer=sender)
        except Exception:
            service.close()
            raise
        self._ensure_port_acceptors()
        port._attach(channel, origin=sender)

    @staticmethod
    @coroutine
    def _reject(service, reason: str) -> Generator:
        yield from send_frame(
            service, ByteWriter().u8(RESP_ERR).lp_str(reason).getvalue()
        )
        service.close()
