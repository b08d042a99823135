"""Brokered data-link establishment over service links (paper §3, §5.2).

"Each data link has an associated service link, used for driver assembly
consistency on both endpoints, and connection establishment negotiation."

The broker walks the Figure 4 precedence list produced by
:func:`~repro.core.establishment.decision.feasible_methods`, attempting one
method at a time.  Every attempt is verified with a cookie exchange; a
failed attempt (timeout, reset, verification mismatch — e.g. a
standards-noncompliant NAT) falls back to the next method, exactly the
behaviour the paper reports in §6.

Wire protocol over the service link (length-prefixed frames, all tagged
with the attempt nonce so frames from a timed-out attempt cannot
desynchronize a later one):

* ``ATTEMPT``  initiator → responder: method, nonce, initiator info+params.
* ``PARAMS``   responder → initiator: responder's parameters (addresses).
* ``NAK``      responder → initiator: method not possible on this side.
* ``RESULT``   initiator → responder: attempt verdict, so both sides agree
  on whether to fall back.

Written once on :mod:`repro.core.runtime`, for whichever runtime the node
names; a broker carries out only the methods in :attr:`Broker.METHODS`
(a live node's: client/server and routed) and NAKs the others.
"""

from __future__ import annotations

from typing import Optional

from .. import obs
from ..obs import DEFAULT_SECONDS_BUCKETS, TraceContext
from ..simnet.packet import Addr
from ..util.framing import ByteReader, ByteWriter, FrameError
from .addressing import EndpointInfo, scoped_id
from .dispatch import data_tag
from .establishment import client_server, proxy, routed, splicing
from .establishment.base import (
    CLIENT_SERVER,
    PRECEDENCE,
    ROUTED,
    SOCKS_PROXY,
    SPLICING,
    EstablishmentError,
)
from .establishment.decision import feasible_methods
from .establishment.verify import verify_initiator
from .links import Link
from .wire import WireError, recv_frame, send_frame

__all__ = ["Broker", "BrokerError", "ATTEMPT_TIMEOUT"]

M_ATTEMPT = 1
M_PARAMS = 2
M_NAK = 3
M_RESULT = 4

#: per-attempt budget, in the runtime's seconds
ATTEMPT_TIMEOUT = 12.0


class BrokerError(EstablishmentError):
    """Negotiation protocol failure."""


class _NakReceived(Exception):
    """Responder declined the method."""


def _pack_addr(w: ByteWriter, addr: Addr) -> ByteWriter:
    return w.lp_str(addr[0]).u16(addr[1])


def _unpack_addr(r: ByteReader) -> Addr:
    return (r.lp_str(), r.u16())


class Broker:
    """Runs data-link negotiations for one started node: its runtime, host,
    info, relay client, dispatcher, address reflector (NAT mapping
    discovery) and flight recorder."""

    #: the Figure 4 methods this broker carries out, best first
    METHODS = PRECEDENCE

    def __init__(self, node):
        self.runtime = node.runtime
        self.host = node.host
        self.info = node.info
        self.relay_client = node.relay_client
        self.dispatcher = node.dispatcher
        self.reflector = node.reflector_addr
        self.flight = node.flight
        self._nonce_seq = 0
        #: history of (method, ok) per negotiation, observable in tests
        self.attempt_log: list[tuple[str, bool]] = []

    def _next_nonce(self) -> int:
        self._nonce_seq += 1
        return scoped_id(self.info.node_id, self._nonce_seq, 24)

    def _record_attempt(self, method: str, outcome: str, role: str, elapsed: float):
        reg = obs.metrics()
        reg.counter(
            "establish.attempts_total", method=method, outcome=outcome, role=role
        ).inc()
        reg.histogram(
            "establish.attempt_seconds", buckets=DEFAULT_SECONDS_BUCKETS, method=method
        ).observe(elapsed)

    def _note(self, name: str, ctx: Optional[TraceContext], **attrs) -> None:
        if self.flight is not None:
            self.flight.note(name, ctx=ctx, **attrs)

    # ------------------------------------------------------------- initiator
    async def initiate(
        self,
        service_link: Link,
        peer_info: EndpointInfo,
        methods: Optional[list[str]] = None,
        ctx: Optional[TraceContext] = None,
    ):
        """Negotiate and establish a data link to ``peer_info``.

        Returns the established :class:`Link`.  Raises
        :class:`EstablishmentError` when every feasible method failed.

        ``ctx`` is the causal parent of the negotiation; each attempt
        gets a child context which rides the ATTEMPT frame so the
        responder's spans join the same trace.
        """
        if methods is None:
            methods = [
                m for m in feasible_methods(self.info, peer_info, bootstrap=False)
                if m in self.METHODS
            ]
        if ctx is None:
            ctx = obs.current() or TraceContext.new()
        node = self.info.node_id
        obs.event(
            "establish.decision",
            ctx=ctx,
            node=node,
            peer=peer_info.node_id,
            methods=",".join(methods),
        )
        failures = []
        for method in methods:
            nonce = self._next_nonce()
            attempt_ctx = ctx.child()
            self._note(
                "establish.attempt", attempt_ctx,
                method=method, peer=peer_info.node_id, role="initiator",
            )
            t0 = self.runtime.now()
            with obs.span(
                "establish.attempt",
                ctx=attempt_ctx,
                node=node,
                method=method,
                peer=peer_info.node_id,
                role="initiator",
            ) as sp:
                try:
                    link = await self._attempt_initiator(
                        service_link, peer_info, method, nonce, attempt_ctx
                    )
                except _NakReceived as nak:
                    sp.set(outcome="nak")
                    self._record_attempt(method, "nak", "initiator", self.runtime.now() - t0)
                    self.attempt_log.append((method, False))
                    failures.append(f"{method}: peer NAK ({nak})")
                    obs.event(
                        "establish.fallback", ctx=ctx, node=node,
                        method=method, reason=f"nak: {nak}",
                    )
                    self._note(
                        "establish.fallback", attempt_ctx,
                        method=method, reason="nak",
                    )
                    continue
                except (WireError, FrameError, EOFError, BrokerError):
                    self._record_attempt(
                        method, "error", "initiator", self.runtime.now() - t0
                    )
                    raise  # the service link itself broke: no point continuing
                except Exception as exc:
                    sp.set(outcome="failed")
                    self._record_attempt(
                        method, "failed", "initiator", self.runtime.now() - t0
                    )
                    self.attempt_log.append((method, False))
                    failures.append(f"{method}: {type(exc).__name__}: {exc}")
                    obs.event(
                        "establish.fallback",
                        ctx=ctx,
                        node=node,
                        method=method,
                        reason=f"{type(exc).__name__}: {exc}",
                    )
                    self._note(
                        "establish.fallback", attempt_ctx,
                        method=method, reason=type(exc).__name__,
                    )
                    await send_frame(
                        service_link, _result(nonce, False, str(exc))
                    )
                    continue
                except BaseException as exc:
                    # Process death (kill/interrupt) mid-attempt still exits
                    # the span, so close the books: the attempts counter must
                    # agree with the recorded spans (chaos obs invariant).
                    # GeneratorExit is the one exception that must NOT record
                    # — it arrives when a GC'd process coroutine is closed,
                    # at a time no seed controls.
                    if isinstance(exc, GeneratorExit):
                        raise
                    sp.set(outcome="aborted")
                    self._record_attempt(
                        method, "aborted", "initiator", self.runtime.now() - t0
                    )
                    raise
                sp.set(outcome="ok")
                self._record_attempt(method, "ok", "initiator", self.runtime.now() - t0)
            self._note(
                "establish.ok", attempt_ctx, method=method, peer=peer_info.node_id
            )
            self.attempt_log.append((method, True))
            await send_frame(service_link, _result(nonce, True, ""))
            return link
        raise EstablishmentError(
            f"all methods failed toward {peer_info.node_id}: {failures}"
        )

    async def _attempt_initiator(
        self,
        service_link: Link,
        peer_info: EndpointInfo,
        method: str,
        nonce: int,
        ctx: Optional[TraceContext] = None,
    ):
        params, cleanup, state = await self._initiator_params(method)
        try:
            attempt = (
                ByteWriter()
                .u8(M_ATTEMPT)
                .u64(nonce)
                .f64(self.runtime.now())  # lets the responder estimate one-way delay
                .lp_str(method)
                .lp_bytes(self.info.encode())
                .lp_bytes(params)
                # Trailing causal context: the responder parents its
                # attempt span on the initiator's, joining the traces.
                .lp_bytes(ctx.encode() if ctx is not None else b"")
                .getvalue()
            )
            await send_frame(service_link, attempt)
            # The responder's reply is also bounded: a peer disappearing
            # mid-negotiation (crashed node, dead relay session) must not
            # hang the initiator forever.  A timeout here may leave a dead
            # waiter on the service link (the interrupted read), so it is
            # reported as a BrokerError: negotiation-fatal, the caller must
            # abandon this service link and renegotiate on a fresh one.
            try:
                peer_params = await self.runtime.bounded(
                    self._await_params(service_link, nonce), ATTEMPT_TIMEOUT
                )
            except TimeoutError:
                raise BrokerError(
                    f"{method}: no PARAMS/NAK within {ATTEMPT_TIMEOUT}s "
                    f"(responder vanished mid-negotiation?)"
                ) from None
            return (
                await self.runtime.bounded(
                    self._execute_initiator(
                        method, nonce, peer_info, peer_params, state, ctx
                    ),
                    ATTEMPT_TIMEOUT,
                )
            )
        finally:
            if cleanup is not None:
                cleanup()

    async def _await_params(self, service_link: Link, nonce: int):
        """Read frames until this attempt's PARAMS or NAK (skipping stale)."""
        while True:
            reply = await recv_frame(service_link)
            r = ByteReader(reply)
            kind = r.u8()
            frame_nonce = r.u64()
            if frame_nonce != nonce:
                continue  # leftover of a timed-out attempt
            if kind == M_NAK:
                raise _NakReceived(r.lp_str())
            if kind != M_PARAMS:
                raise BrokerError(f"expected PARAMS, got frame type {kind}")
            return r.lp_bytes()

    async def _initiator_params(self, method: str):
        """Method-specific initiator parameters.

        Returns ``(params_bytes, cleanup_or_None, state)``.
        """
        if method == SPLICING:
            lport, ext_addr, probe = await splicing.prepare_endpoint(
                self.host, self.info.behind_nat, self.reflector
            )

            def cleanup():
                if probe is not None:
                    probe.close()  # idempotent; pins the NAT mapping until now
                self.host.tcp.release_port(lport)

            return (
                _pack_addr(ByteWriter(), ext_addr).getvalue(),
                cleanup,
                (lport, probe),
            )
        return b"", None, None

    async def _execute_initiator(
        self,
        method: str,
        nonce: int,
        peer_info: EndpointInfo,
        peer_params: bytes,
        state,
        ctx: Optional[TraceContext] = None,
    ):
        r = ByteReader(peer_params)
        if method == CLIENT_SERVER:
            return (
                await self._connect_client_server(peer_info, r, nonce, ctx)
            )
        if method == SPLICING:
            peer_addr = _unpack_addr(r)
            lport, probe = state
            return (
                await splicing.splice_and_verify(
                    self.host, peer_addr, lport, nonce, initiator=True, probe=probe,
                    ctx=ctx,
                )
            )
        if method == SOCKS_PROXY:
            addr = _unpack_addr(r)
            if self.info.socks_proxy is not None:
                return (
                    await proxy.connect_via_proxy_and_verify(
                        self.host, self.info.socks_proxy, addr, nonce, ctx=ctx
                    )
                )
            return (
                await proxy.connect_direct_and_verify(
                    self.host, addr, nonce, ctx=ctx
                )
            )
        if method == ROUTED:
            link = await self.relay_client.open_link(
                peer_info.node_id, payload=data_tag(nonce), ctx=ctx
            )
            await verify_initiator(link, nonce)
            return link
        raise BrokerError(f"unknown method {method}")

    async def _connect_client_server(
        self, peer_info: EndpointInfo, params: ByteReader, nonce: int, ctx
    ):
        """Initiator half of client/server: dial the listener the PARAMS
        name, then the cookie exchange."""
        addr = _unpack_addr(params)
        if self.info.socks_proxy is not None:
            # Severe outbound firewall: even client/server goes through
            # the local proxy when one is configured.
            return (
                await proxy.connect_via_proxy_and_verify(
                    self.host, self.info.socks_proxy, addr, nonce, ctx=ctx
                )
            )
        return (
            await client_server.connect_and_verify(
                self.host, addr, nonce, config=splicing.SPLICE_CONFIG, ctx=ctx
            )
        )

    # ------------------------------------------------------------- responder
    async def respond(self, service_link: Link):
        """Serve one data-link negotiation on ``service_link``.

        Returns the established :class:`Link`.
        """
        while True:
            frame = await recv_frame(service_link)
            r = ByteReader(frame)
            kind = r.u8()
            nonce = r.u64()
            if kind == M_RESULT:
                continue  # stale verdict of an attempt we already abandoned
            if kind != M_ATTEMPT:
                raise BrokerError(f"expected ATTEMPT, got frame type {kind}")
            sent_at = r.f64()
            owd = max(0.0, self.runtime.now() - sent_at)
            method = r.lp_str()
            peer_info = EndpointInfo.decode(r.lp_bytes())
            peer_params = r.lp_bytes()
            ctx = None
            if r.remaining:
                blob = r.lp_bytes()
                if blob:
                    ctx = TraceContext.decode(blob)
            link = await self._attempt_responder(
                service_link, method, nonce, peer_info, peer_params, owd, ctx
            )
            if link is not None:
                return link

    async def _attempt_responder(
        self,
        service_link: Link,
        method: str,
        nonce: int,
        peer_info: EndpointInfo,
        peer_params: bytes,
        owd: float,
        ctx: Optional[TraceContext] = None,
    ):
        """One responder-side attempt; returns the link or None (fall back)."""
        t0 = self.runtime.now()
        # Parent this side's span on the initiator's attempt span (which
        # arrived in the ATTEMPT frame), so both halves share one trace.
        rctx = ctx.child() if ctx is not None else None
        self._note(
            "establish.attempt", rctx,
            method=method, peer=peer_info.node_id, role="responder",
        )
        with obs.span(
            "establish.attempt",
            ctx=rctx,
            node=self.info.node_id,
            method=method,
            peer=peer_info.node_id,
            role="responder",
        ) as sp:
            try:
                params, pending = await self._responder_params(
                    method, nonce, peer_info, peer_params, owd, ctx=rctx
                )
            except Exception as exc:
                sp.set(outcome="nak")
                self._record_attempt(method, "nak", "responder", self.runtime.now() - t0)
                nak = (
                    ByteWriter()
                    .u8(M_NAK)
                    .u64(nonce)
                    .lp_str(f"{type(exc).__name__}: {exc}")
                    .getvalue()
                )
                await send_frame(service_link, nak)
                return None
            # Run the local half of the attempt concurrently with sending
            # PARAMS and reading the initiator's RESULT.  The guard parks
            # failures so an early error (e.g. our spliced SYN refused)
            # waits for the verdict instead of crashing the negotiation.
            # Spawning *before* touching the service link matters: the
            # pending coroutine owns method resources (a reflector probe,
            # a listener), and only running it to completion releases them
            # — so if the service link dies mid-negotiation we interrupt
            # the attempt rather than dropping it un-started.
            attempt_proc = self.runtime.spawn(
                _guarded(pending), f"broker-attempt-{method}"
            )
            try:
                await send_frame(
                    service_link,
                    ByteWriter().u8(M_PARAMS).u64(nonce).lp_bytes(params).getvalue(),
                )
                ok = await self._await_result(service_link, nonce)
            except BaseException as exc:
                self.runtime.cancel(attempt_proc)
                # The service link died mid-negotiation (a partition or
                # relay kill, not a method failure).  The span exits
                # regardless, so record the attempt too: the chaos obs
                # invariant holds counters and spans to exact agreement.
                # GeneratorExit (a GC'd process coroutine being closed)
                # must re-raise without recording — its timing is not
                # seed-controlled.
                if isinstance(exc, GeneratorExit):
                    raise
                sp.set(outcome="aborted")
                self._record_attempt(
                    method, "aborted", "responder", self.runtime.now() - t0
                )
                raise
            if ok:
                status, value = await self.runtime.wait(attempt_proc)
                if status != "ok":
                    self._record_attempt(
                        method, "error", "responder", self.runtime.now() - t0
                    )
                    # Initiator verified success but our half failed: the link
                    # is unusable, report it upward.
                    raise BrokerError(
                        f"{method}: initiator succeeded but responder half "
                        f"failed: {value}"
                    )
                sp.set(outcome="ok")
                self._record_attempt(method, "ok", "responder", self.runtime.now() - t0)
                self._note(
                    "establish.ok", rctx, method=method, peer=peer_info.node_id
                )
                self.attempt_log.append((method, True))
                if rctx is not None:
                    try:
                        # expose the causal identity on the link so upper
                        # layers (stack assembly, sessions) can join the
                        # initiator's trace
                        value.ctx = rctx
                    except AttributeError:
                        pass
                return value
            # Initiator reported failure: cancel our half if still running.
            self.runtime.cancel(attempt_proc)
            status, value = await self.runtime.wait(attempt_proc)
            if status == "ok" and value is not None and hasattr(value, "abort"):
                value.abort()
            sp.set(outcome="failed")
            self._record_attempt(method, "failed", "responder", self.runtime.now() - t0)
            self.attempt_log.append((method, False))
            return None

    async def _await_result(self, service_link: Link, nonce: int):
        while True:
            frame = await recv_frame(service_link)
            r = ByteReader(frame)
            kind = r.u8()
            frame_nonce = r.u64()
            if kind != M_RESULT or frame_nonce != nonce:
                continue
            return bool(r.u8())

    async def _responder_params(
        self,
        method: str,
        nonce: int,
        peer_info: EndpointInfo,
        peer_params: bytes,
        owd: float = 0.0,
        ctx: Optional[TraceContext] = None,
    ):
        """Prepare responder-side parameters and the pending local half.

        Returns ``(params_bytes, pending_coroutine)``.
        """
        if method not in self.METHODS:
            raise BrokerError(f"{method} is not carried out on this node")
        if method == CLIENT_SERVER:
            return self._accept_client_server(nonce, ctx)

        if method == SPLICING:
            r = ByteReader(peer_params)
            peer_addr = _unpack_addr(r)
            lport, ext_addr, probe = await splicing.prepare_endpoint(
                self.host, self.info.behind_nat, self.reflector
            )
            params = _pack_addr(ByteWriter(), ext_addr).getvalue()

            async def pending():
                try:
                    # Start when the initiator (one service-link delay away)
                    # is expected to start, so the SYNs cross.
                    await self.runtime.sleep(owd)
                    return (
                        await splicing.splice_and_verify(
                            self.host,
                            peer_addr,
                            lport,
                            nonce,
                            initiator=False,
                            probe=probe,
                            ctx=ctx,
                        )
                    )
                finally:
                    if probe is not None:
                        probe.close()  # idempotent; also closed post-splice
                    self.host.tcp.release_port(lport)

            return params, pending()

        if method == SOCKS_PROXY:
            if self.info.socks_proxy is None and self.info.behind_nat:
                raise BrokerError("no SOCKS proxy available on responder")
            if self.info.accepts_inbound or self.info.socks_proxy is None:
                # Initiator-side-proxy shape: we simply listen; the
                # initiator reaches us through its own proxy.
                listener = client_server.open_listener(self.host)
                params = _pack_addr(ByteWriter(), listener.addr).getvalue()

                async def pending():
                    try:
                        link = await client_server.accept_and_verify(
                            listener, nonce, ctx=ctx
                        )
                        link.method = SOCKS_PROXY
                        link.relayed = True
                        return link
                    finally:
                        listener.close()

                return params, pending()
            control, bound = await proxy.bind_via_proxy(
                self.host, self.info.socks_proxy
            )
            params = _pack_addr(ByteWriter(), bound).getvalue()

            async def pending():
                try:
                    return (
                        await proxy.await_bound_and_verify(
                            control, nonce, ctx=ctx
                        )
                    )
                except BaseException:
                    control.abort()
                    raise

            return params, pending()

        if method == ROUTED:

            async def pending():
                link = await self.dispatcher.await_data(nonce)
                await routed.accept_routed_and_verify(link, nonce, ctx=ctx)
                return link

            return b"", pending()

        raise BrokerError(f"unknown method {method}")

    def _accept_client_server(self, nonce: int, ctx) -> tuple:
        """Responder half of client/server: ``(params, pending)``, a fresh
        listener's address and accepting on it, then the cookie exchange."""
        listener = client_server.open_listener(self.host)
        params = _pack_addr(ByteWriter(), listener.addr).getvalue()

        async def pending():
            try:
                return (
                    await client_server.accept_and_verify(
                        listener, nonce, ctx=ctx
                    )
                )
            finally:
                listener.close()

        return params, pending()


async def _guarded(coro):
    """Wrap an attempt so failures become values instead of crashes."""
    try:
        value = await coro
        return ("ok", value)
    except BaseException as exc:
        return ("err", exc)


def _result(nonce: int, ok: bool, reason: str) -> bytes:
    return (
        ByteWriter()
        .u8(M_RESULT)
        .u64(nonce)
        .u8(1 if ok else 0)
        .lp_str(reason)
        .getvalue()
    )
