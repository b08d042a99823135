"""Connection factories (paper §5.2).

"Resolving the WAN connection and communication issues ... can be
simplified significantly by employing a framework that explicitly supports
the separation of connection establishment and link utilization ... using
socket factories for connection establishment, and networking and
filtering drivers for link utilization."

* The **bootstrap** path is the relay/service-link machinery in
  :class:`~repro.core.node.GridNode` (no pre-existing connection needed).
* The **brokered** factory here negotiates a driver-stack spec over the
  service link ("driver assembly consistency on both endpoints"),
  establishes as many data links as the stack's networking layer needs —
  each via the Figure 4 decision tree with fall-back — and assembles the
  stack into an application-ready :class:`BlockChannel`.

Written once for both runtimes: what differs is named on the node it is
given (``runtime``, ``mux_endpoint``, ``session_link``, the ``parallel``
striping classes, ``broker``), so one agreement frame serves the simulated
:class:`~repro.core.node.GridNode` and ``LiveIbis``'s node on real sockets.
"""

from __future__ import annotations

from dataclasses import replace
from types import coroutine
from typing import Generator, Optional

from .. import obs
from ..mux import DEFAULT_WINDOW, MuxEndpoint
from ..mux.scheduler import make_scheduler
from ..obs import TraceContext
from ..simnet.tcp import TcpError
from ..util.framing import ByteReader, ByteWriter, FrameError
from .addressing import EndpointInfo
from .establishment.base import EstablishmentError
from .links import Link
from .node import GridNode
from .relay import RelayError
from .retry import RetryPolicy, retrying
from .session import SessionConfig, SessionLink
from .utilization.spec import StackSpec, StackSpecError
from .utilization.stack import build_stack
from .utilization.stream import DEFAULT_BLOCK, BlockChannel
from .utilization.tls import TlsDriver
from .utilization.stack import find_driver
from .wire import WireError, recv_frame, send_frame

__all__ = [
    "BrokeredConnectionFactory",
    "TlsConfig",
    "TRANSIENT_ERRORS",
    "CONNECT_RETRY",
    "ACCEPT_RETRY",
    "TLS_HANDSHAKE_DEADLINE",
]

#: failures that justify renegotiating on a fresh service link: anything
#: from "every method failed" to the service link itself dying under us
TRANSIENT_ERRORS = (
    EstablishmentError,  # includes BrokerError
    WireError,
    FrameError,
    EOFError,
    RelayError,
    TcpError,
    TimeoutError,
)

#: initiator-side default: backs off while the relay restarts or the WAN heals
CONNECT_RETRY = RetryPolicy(
    max_attempts=6, base_delay=0.5, multiplier=2.0, max_delay=8.0, jitter=0.25
)

#: responder-side default: redial immediately — accept_service_link blocks
#: until the initiator's next attempt arrives, so pacing is initiator-driven
ACCEPT_RETRY = RetryPolicy(
    max_attempts=10, base_delay=0.0, multiplier=1.0, max_delay=0.0, jitter=0.0
)

#: seconds a ``tls`` handshake may take before the connect fails: a peer
#: that accepts the data link and then says nothing must not park us
TLS_HANDSHAKE_DEADLINE = 30.0

#: per-node replay-buffer budget shared by standalone (non-mux) sessions;
#: muxed sessions are bounded by the channel credit window instead
SESSION_BUFFER_BUDGET = 4 << 20

#: floor under the per-session share — a session must always be able to
#: keep at least one maximal chunk in flight, or it can't make progress
MIN_SESSION_WINDOW = 64 << 10


def _typed_spec(spec: Optional[StackSpec]) -> StackSpec:
    if spec is None:
        return StackSpec.tcp()
    if not isinstance(spec, StackSpec):
        raise TypeError(
            f"expected StackSpec, got {type(spec).__name__}; the string form "
            f"is wire-only — use StackSpec.parse(...) or the typed builders"
        )
    return spec


class TlsConfig:
    """Credentials for stacks containing a ``tls`` layer."""

    def __init__(
        self,
        trust_anchors,
        identity=None,
        expected_peer: Optional[str] = None,
        require_client_auth: bool = False,
    ):
        self.trust_anchors = list(trust_anchors)
        self.identity = identity
        self.expected_peer = expected_peer
        self.require_client_auth = require_client_auth


class BrokeredConnectionFactory:
    """Builds fully configured data channels between two grid nodes.

    ``fidelity`` pins the factory to a simulation tier (default
    ``"packet"``).  Driver stacks are assembled from real driver objects
    over per-segment TCP, so only the packet tier can run them; a
    factory (or a spec) pinned to ``"flow"`` fails fast with a pointer
    to the fluid path (:meth:`~repro.simnet.flow.FlowNetwork.start_flow`
    parameterized via :func:`~repro.simnet.flow.spec_flow_params`)
    instead of silently assembling at the wrong tier.
    """

    def __init__(
        self,
        node: GridNode,
        tls_config: Optional[TlsConfig] = None,
        fidelity: str = "packet",
    ):
        from ..simnet.backend import FIDELITIES

        if fidelity not in FIDELITIES:
            raise StackSpecError(
                f"unknown fidelity {fidelity!r}; have {FIDELITIES}"
            )
        self.node = node
        self.tls_config = tls_config
        self.fidelity = fidelity
        # Shared mux endpoints, one per peer pair: the first muxed connect
        # to a peer establishes the carrier link, later connects open more
        # channels over it instead of re-running establishment.  Initiator
        # side is keyed by peer node id; responder side by (peer, eid)
        # where the endpoint id travels in the agreement frame.
        self._shared_mux: dict[str, tuple[int, MuxEndpoint]] = {}
        self._shared_mux_resp: dict[tuple[str, int], MuxEndpoint] = {}

    # -- initiator ----------------------------------------------------------
    @coroutine
    def connect(
        self,
        service_link: Link,
        peer_info: EndpointInfo,
        spec: Optional[StackSpec] = None,
        block_size: int = DEFAULT_BLOCK,
        methods: Optional[list] = None,
        ctx: Optional[TraceContext] = None,
    ) -> Generator:
        """Negotiate ``spec`` with the peer and build the channel.

        ``spec`` is a :class:`StackSpec` (default: plain ``TCP_Block``).
        ``methods`` restricts the establishment methods attempted for the
        data links (and for session re-establishment after a fault).

        When the spec carries a ``session`` layer, this side generates one
        session id per data link, sends them along with the spec, and
        wraps each established link in a
        :class:`~repro.core.session.SessionLink` before stack assembly —
        so the whole driver stack survives mid-stream link failure.
        """
        ctx = ctx or obs.current() or TraceContext.new()
        parsed = _typed_spec(spec)
        self._check_fidelity(parsed)
        n = parsed.links_required
        sids = [self.node.next_session_id() for _ in range(n)] if parsed.session else []
        cached = None
        eid = 0
        if parsed.mux is not None:
            cached = self._shared_mux.get(peer_info.node_id)
            if cached is not None and not cached[1].alive:
                self._shared_mux.pop(peer_info.node_id, None)
                cached = None
            eid = cached[0] if cached is not None else self.node.next_session_id()
        frame = ByteWriter().lp_str(str(parsed)).u32(block_size)
        for sid in sids:
            frame.u64(sid)
        window = 0
        if parsed.session and parsed.mux is None:
            # Standalone sessions negotiate the replay window: this side
            # offers its budget share, the responder clamps to the min of
            # the offer and its own share, so neither end over-retains
            # under many concurrent sessions.
            window = self._standalone_window(parsed)
            frame.u32(window)
        nonce = 0
        if parsed.mux is not None:
            # the nonce tags this conversation's channels so concurrent
            # connects over a shared endpoint can't claim each other's
            nonce = self.node.next_session_id()
            frame.u8(1 if cached is not None else 0).u64(eid).u64(nonce)
        yield from send_frame(service_link, frame.getvalue())
        links = []
        endpoint = None
        try:
            if parsed.mux is not None:
                if cached is not None:
                    # the peer pair already shares a carrier link — just
                    # open more channels over it (no establishment at all)
                    endpoint = cached[1]
                    obs.event(
                        "mux.endpoint_reused",
                        ctx=ctx,
                        node=self.node.node_id,
                        peer=peer_info.node_id,
                        eid=f"{eid:016x}",
                    )
                else:
                    # one expensively-established physical link carries
                    # every channel the networking layer needs (ISSUE:
                    # reuse, don't re-establish per conversation)
                    raw = yield from self.node.broker.initiate(
                        service_link, peer_info, methods, ctx=ctx
                    )
                    endpoint = yield from self._mux_endpoint(
                        raw, parsed, MuxEndpoint.INITIATOR, ctx=ctx
                    )
                    self._shared_mux[peer_info.node_id] = (eid, endpoint)
                tag = nonce.to_bytes(8, "big")
                for _ in range(n):
                    channel = yield from endpoint.open_channel(tag, ctx=ctx)
                    links.append(channel)
            else:
                for _ in range(n):
                    link = yield from self.node.broker.initiate(
                        service_link, peer_info, methods, ctx=ctx
                    )
                    links.append(link)
        except BaseException:
            if endpoint is not None and cached is None:
                endpoint.close()
                self._shared_mux.pop(peer_info.node_id, None)
            for link in links:
                link.abort()
            raise
        links = self._wrap_sessions(
            parsed, links, sids, SessionLink.INITIATOR, peer_info, methods,
            window=window, ctx=ctx,
        )
        try:
            with obs.span(
                "stack.assemble",
                ctx=ctx.child(),
                node=self.node.node_id,
                spec=str(parsed),
                role="initiator",
                links=n,
            ):
                stack = self.build(parsed, links)
                yield from self._maybe_tls(stack, client=True)
        except BaseException:
            for link in links:
                link.abort()
            raise
        return BlockChannel(stack, block_size=block_size)

    @coroutine
    def connect_retrying(
        self,
        peer_id: str,
        peer_info: EndpointInfo,
        spec: Optional[StackSpec] = None,
        block_size: int = DEFAULT_BLOCK,
        policy: RetryPolicy = CONNECT_RETRY,
        connect_timeout: float = 15.0,
        methods: Optional[list] = None,
        ctx: Optional[TraceContext] = None,
    ) -> Generator:
        """Like :meth:`connect`, but owns the whole bootstrap and survives
        transient failures.

        Each attempt waits for a live relay registration, opens a fresh
        service link to ``peer_id`` and negotiates the channel; on any
        :data:`TRANSIENT_ERRORS` failure the service link is closed (which
        unblocks a responder still parked on it) and the attempt is
        retried under ``policy`` with backoff.  This is what lets a
        brokered connection ride out a relay crash/restart or a dropped
        negotiation peer instead of hanging (ISSUE: fall back, don't hang).
        """
        node = self.node

        @coroutine
        def attempt(_i: int) -> Generator:
            yield from node.relay_client.wait_connected(timeout=connect_timeout)
            service = yield from node.open_service_link(peer_id, peer_info)
            try:
                channel = yield from self.connect(
                    service,
                    peer_info,
                    spec=spec,
                    block_size=block_size,
                    methods=methods,
                    ctx=ctx,
                )
            except BaseException:
                # Closing tells a responder blocked on this link to give
                # up on it and accept our next, fresh service link.
                service.close()
                raise
            service.close()
            return channel

        return (
            yield from retrying(
                node.runtime,
                attempt,
                policy,
                retry_on=TRANSIENT_ERRORS,
                key=f"{node.node_id}->{peer_id}",
                name="broker.connect",
            )
        )

    # -- responder -----------------------------------------------------------
    @coroutine
    def accept(self, service_link: Link, peer: Optional[str] = None) -> Generator:
        """Serve one channel negotiation on ``service_link`` from ``peer``
        (by default the link's own ``peer``: a direct socket has none)."""
        frame = yield from recv_frame(service_link)
        reader = ByteReader(frame)
        # The spec string is the wire format (§5.2): parse it silently.
        # Fidelity never travels the wire — the local factory's tier
        # applies, which is what lets the two endpoints differ.
        parsed = StackSpec.parse(reader.lp_str())
        self._check_fidelity(parsed)
        block_size = reader.u32()
        n = parsed.links_required
        sids = [reader.u64() for _ in range(n)] if parsed.session else []
        window = 0
        if parsed.session and parsed.mux is None:
            # min(peer's offer, our own budget share): both replay
            # buffers stay inside whichever end is more constrained
            window = min(reader.u32(), self._standalone_window(parsed))
        peer_id = peer if peer is not None else getattr(service_link, "peer", "")
        reuse = False
        eid = nonce = 0
        if parsed.mux is not None:
            reuse = bool(reader.u8())
            eid = reader.u64()
            nonce = reader.u64()
        links = []
        endpoint = None
        created = False
        try:
            if parsed.mux is not None:
                if reuse:
                    endpoint = self._shared_mux_resp.get((peer_id, eid))
                    if endpoint is None or not endpoint.alive:
                        self._shared_mux_resp.pop((peer_id, eid), None)
                        raise EstablishmentError(
                            f"peer asked to reuse unknown mux endpoint "
                            f"{eid:016x}"
                        )
                else:
                    raw = yield from self.node.broker.respond(service_link)
                    endpoint = yield from self._mux_endpoint(
                        raw, parsed, MuxEndpoint.RESPONDER,
                        ctx=getattr(raw, "ctx", None),
                    )
                    self._shared_mux_resp[(peer_id, eid)] = endpoint
                    created = True
                tag = nonce.to_bytes(8, "big")
                for _ in range(n):
                    channel = yield from endpoint.accept_channel(tag)
                    links.append(channel)
            else:
                for _ in range(n):
                    link = yield from self.node.broker.respond(service_link)
                    links.append(link)
        except BaseException:
            if endpoint is not None and created:
                endpoint.close()
                self._shared_mux_resp.pop((peer_id, eid), None)
            for link in links:
                link.abort()
            raise
        links = self._wrap_sessions(
            parsed, links, sids, SessionLink.RESPONDER, None, None,
            peer_id=peer_id, window=window,
        )
        # On this side the causal identity arrives per-link inside the
        # brokering ATTEMPT frames; the assembly span is stamped with the
        # first data link's context so it joins the initiator's trace.
        rctx = next((l.ctx for l in links if getattr(l, "ctx", None)), None)
        try:
            with obs.span(
                "stack.assemble",
                ctx=rctx.child() if rctx is not None else None,
                node=self.node.node_id,
                spec=str(parsed),
                role="responder",
                links=n,
            ):
                stack = self.build(parsed, links)
                yield from self._maybe_tls(stack, client=False)
        except BaseException:
            for link in links:
                link.abort()
            raise
        return BlockChannel(stack, block_size=block_size)

    @coroutine
    def accept_retrying(
        self,
        policy: RetryPolicy = ACCEPT_RETRY,
    ) -> Generator:
        """Like :meth:`accept`, but serves negotiations until one succeeds.

        A failed or abandoned negotiation (the initiator gave up and closed
        its service link, the relay restarted, ...) just loops back to
        waiting for the initiator's next service link.
        """
        node = self.node

        @coroutine
        def attempt(_i: int) -> Generator:
            _peer, service = yield from node.accept_service_link()
            try:
                channel = yield from self.accept(service)
            except BaseException:
                service.close()
                raise
            service.close()
            return channel

        return (
            yield from retrying(
                node.runtime,
                attempt,
                policy,
                retry_on=TRANSIENT_ERRORS,
                key=f"{node.node_id}:accept",
                name="broker.accept",
            )
        )

    # -- helpers --------------------------------------------------------------
    def build(self, parsed: StackSpec, links: list):
        """The driver tree over ``links``, from the node's striping classes."""
        return build_stack(
            parsed, links, host=self.node.host, parallel=self.node.parallel
        )

    def close(self) -> None:
        """Close every shared mux endpoint (and so its carrier link)."""
        for _eid, endpoint in self._shared_mux.values():
            endpoint.close()
        for endpoint in self._shared_mux_resp.values():
            endpoint.close()
        self._shared_mux.clear()
        self._shared_mux_resp.clear()

    def shared_endpoint(self, peer_id: str) -> Optional[MuxEndpoint]:
        """The live shared mux endpoint to ``peer_id``, whichever role
        established it — or ``None``.

        Mux channels open from either end of the carrier link, so a
        caller holding an endpoint this node *responded* on can still
        initiate new channels over it (the IPL fast-open path).
        """
        cached = self._shared_mux.get(peer_id)
        if cached is not None and cached[1].alive:
            return cached[1]
        for (pid, _eid), endpoint in self._shared_mux_resp.items():
            if pid == peer_id and endpoint.alive:
                return endpoint
        return None

    def _check_fidelity(self, parsed: StackSpec) -> None:
        """Fail fast when a stack is pinned to a tier this factory isn't.

        Real driver assembly only exists on the packet tier; flow-tier
        transfers are :class:`~repro.simnet.flow.FluidFlow` rate
        processes parameterized from the same spec (see
        :func:`~repro.simnet.flow.spec_flow_params`).
        """
        if self.fidelity != "packet":
            raise StackSpecError(
                f"factory pinned to fidelity {self.fidelity!r} cannot "
                "assemble driver stacks; flow-tier transfers are started "
                "with FlowNetwork.start_flow(**spec_flow_params(spec))"
            )
        if parsed.fidelity != self.fidelity:
            raise StackSpecError(
                f"spec {parsed!r} is pinned to fidelity "
                f"{parsed.fidelity!r} but this factory assembles "
                f"{self.fidelity!r} stacks"
            )

    @coroutine
    def _mux_endpoint(
        self,
        raw: Link,
        parsed: StackSpec,
        role: str,
        ctx: Optional[TraceContext] = None,
    ) -> Generator:
        """Wrap the single brokered link in a running mux endpoint.

        ``close_when_idle`` ties the endpoint's (and the physical link's)
        lifetime to its channels: when both sides have closed every
        channel, the carrier link is torn down too, mirroring what
        closing a dedicated per-conversation link used to do.
        """
        layer = parsed.mux
        window = int(layer.get("win", DEFAULT_WINDOW))
        endpoint = yield from self.node.mux_endpoint.establish(
            raw,
            role,
            window=window,
            scheduler=make_scheduler(str(layer.get("sched", "rr"))),
            node=self.node.node_id,
            flight=getattr(self.node, "flight", None),
            ctx=ctx,
        )
        endpoint.close_when_idle = True
        return endpoint

    def _standalone_window(self, parsed: StackSpec) -> int:
        """This node's replay-window offer for one new standalone session.

        The node-wide :data:`SESSION_BUFFER_BUDGET` is divided across the
        sessions that would hold replay buffers once this negotiation
        lands, floored at :data:`MIN_SESSION_WINDOW`, and never above the
        spec's own ``buf=`` cap — so the first session on an idle node
        still gets its full configured window, while the N-th concurrent
        one gets a 1/(N+1) share instead of over-retaining.
        """
        config = SessionConfig.from_layer(parsed.session)
        live = sum(
            1
            for session in self.node.sessions
            if session.state not in ("finished", "failed")
        )
        share = SESSION_BUFFER_BUDGET // (live + parsed.links_required)
        return min(config.max_buffer, max(MIN_SESSION_WINDOW, share))

    def _wrap_sessions(
        self,
        parsed: StackSpec,
        links: list,
        sids: list,
        role: str,
        peer_info: Optional[EndpointInfo],
        methods: Optional[list],
        peer_id: str = "",
        window: int = 0,
        ctx: Optional[TraceContext] = None,
    ) -> list:
        layer = parsed.session
        if layer is None:
            return links
        config = SessionConfig.from_layer(layer)
        if parsed.mux is not None:
            # Session-under-mux: the replay buffer may never outgrow the
            # channel credit window, so per-session memory is bounded by
            # the receiver's grant even under many concurrent sessions
            # (the ROADMAP per-session flow-control item).
            window = int(parsed.mux.get("win", DEFAULT_WINDOW))
            config = replace(config, max_buffer=min(config.max_buffer, window))
        elif window:
            # Standalone: the window negotiated on the service link (the
            # min of both budget shares) bounds the replay buffer.
            config = replace(config, max_buffer=min(config.max_buffer, window))
            obs.metrics().gauge(
                "session.negotiated_window", node=self.node.node_id
            ).set(config.max_buffer)
        wrapped = []
        for link, sid in zip(links, sids):
            reconnect = None
            if role == SessionLink.INITIATOR:
                peer_id = peer_info.node_id
                reconnect = self._session_reconnect(peer_info, methods)
            session = self.node.session_link(
                link,
                sid,
                role,
                config=config,
                reconnect=reconnect,
                peer=peer_id,
                ctx=ctx or getattr(link, "ctx", None),
                node=self.node.node_id,
                flight=getattr(self.node, "flight", None),
            )
            self.node.sessions.add(session)
            wrapped.append(session)
        return wrapped

    def _session_reconnect(
        self, peer_info: EndpointInfo, methods: Optional[list]
    ) -> callable:
        """The re-establishment closure a session runs after a fault: wait
        for a live relay registration, open a ``sessres:<sid>``-tagged
        service link, and re-run the Figure 4 decision tree to the same
        peer (restricted to the same ``methods`` as the original link)."""
        node = self.node

        @coroutine
        def reconnect(session: SessionLink) -> Generator:
            yield from node.relay_client.wait_connected(timeout=12.0)
            service = yield from node.open_resume_link(peer_info.node_id, session.sid)
            try:
                # re-establishment inherits the recovery's trace context, so
                # its establish.attempt spans nest under the resume span
                link = yield from node.broker.initiate(
                    service, peer_info, methods, ctx=session._resume_ctx
                )
            except BaseException:
                service.close()
                raise
            service.close()
            return link

        return reconnect

    @coroutine
    def _maybe_tls(self, stack, client: bool) -> Generator:
        tls = find_driver(stack, TlsDriver)
        if tls is None:
            return
        if self.tls_config is None:
            raise ValueError("stack contains a tls layer but no TlsConfig given")
        cfg = self.tls_config
        runtime = self.node.runtime
        now = runtime.now()
        if client:
            handshake = tls.handshake_client(
                trust_anchors=cfg.trust_anchors,
                identity=cfg.identity,
                expected_server=cfg.expected_peer,
                now=now,
            )
        else:
            if cfg.identity is None:
                raise ValueError("TLS server side needs an identity")
            handshake = tls.handshake_server(
                identity=cfg.identity,
                trust_anchors=cfg.trust_anchors,
                require_client_auth=cfg.require_client_auth,
                now=now,
            )
        yield from runtime.bounded(handshake, TLS_HANDSHAKE_DEADLINE)
