"""TCP splicing: brokered simultaneous open (paper §3.2, Figures 1/2).

Both endpoints invoke ``connect`` at (roughly) the same time toward each
other's externally visible (ip, port) pair.  Stateful firewalls on both
sides record the outgoing SYN and therefore admit the peer's crossing SYN.
SYN retransmission absorbs the skew between the two sides' start times, so
no tight clock synchronization is required.

NAT traversal: an endpoint behind a *predictable* (endpoint-independent)
NAT first probes its external mapping for the chosen local port against an
address reflector — the probe connection is kept open so the mapping stays
alive — and advertises the observed external address to the peer via the
service link.  Symmetric NATs make the advertised mapping wrong and broken
NATs reset the crossing SYN; both surface as a failed or unverifiable
connect, and the brokering layer falls back (§6).
"""

from __future__ import annotations

from typing import Optional

from ... import obs
from ...obs import TraceContext
from ...simnet.packet import Addr
from ...simnet.sockets import SimSocket, connect, connect_simultaneous
from ...simnet.tcp import TcpConfig
from ..links import TcpLink
from ..retry import RetryExhausted, RetryPolicy, retrying
from ..runtime import SimRuntime
from .base import SPLICING
from .verify import verify_initiator, verify_responder

__all__ = ["SPLICE_CONFIG", "SPLICE_RETRY", "prepare_endpoint", "splice_and_verify"]

#: connect settings for spliced attempts: give up reasonably fast so a
#: failed attempt falls back without stalling establishment for long
SPLICE_CONFIG = TcpConfig(syn_rto=0.4, syn_retries=4)

#: retry policy for a refused/reset spliced connect: the crossing-SYN
#: window only needs to be hit once, so retry quickly, without jitter —
#: both sides must keep their start times roughly aligned (§3.2)
SPLICE_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.35, multiplier=1.0, max_delay=0.35, jitter=0.0
)


async def prepare_endpoint(
    host,
    behind_nat: bool,
    reflector: Optional[Addr],
):
    """Pick a local data port and learn its external address.

    Returns ``(lport, external_addr, probe_sock_or_None)``.  The caller
    must keep ``probe_sock`` open until splicing finishes (it pins the NAT
    mapping) and close it afterwards.
    """
    lport = host.tcp.allocate_port()
    # allocate_port marks it bound; we will connect with reuse=True.
    if not behind_nat:
        return lport, (host.ip, lport), None
    if reflector is None:
        raise ValueError("NAT traversal needs an address reflector")
    probe = await connect(host, reflector, lport=lport, reuse=True)
    raw = await probe.recv_exactly(32)
    ip, port = raw.decode().strip().split(":")
    return lport, (ip, int(port)), probe


async def splice_and_verify(
    host,
    peer_addr: Addr,
    lport: int,
    nonce: int,
    initiator: bool,
    config: Optional[TcpConfig] = None,
    probe: Optional[SimSocket] = None,
    policy: RetryPolicy = SPLICE_RETRY,
    ctx: Optional[TraceContext] = None,
):
    """Run one side of the simultaneous open + cookie verification.

    A refused connect (the peer's RST because its socket isn't bound yet,
    or a middlebox reset) is retried under ``policy``: the crossing-SYN
    window only needs to be hit once.
    """
    from ...simnet.tcp import ConnectRefused, ConnectionReset

    class _RetrySplice(Exception):
        pass

    async def attempt(_i: int):
        try:
            sock = await connect_simultaneous(
                host, peer_addr, lport, config=config or SPLICE_CONFIG, reuse=True
            )
        except (ConnectRefused, ConnectionReset) as exc:
            raise _RetrySplice(exc) from exc
        link = TcpLink(sock, SPLICING)
        try:
            if initiator:
                await verify_initiator(link, nonce)
            else:
                await verify_responder(link, nonce)
        except (EOFError, ConnectionReset) as exc:
            # Half-open connection torn down under us (e.g. a broken
            # NAT resetting the peer): retry, then give up.
            link.abort()
            raise _RetrySplice(exc) from exc
        except Exception:
            link.abort()
            raise
        obs.event(
            "establish.link", ctx=ctx, method=SPLICING,
            role="initiator" if initiator else "responder",
        )
        return link

    try:
        return (
            await retrying(
                SimRuntime(host.sim),
                attempt,
                policy,
                retry_on=(_RetrySplice,),
                key=f"{host.ip}:{lport}->{peer_addr[0]}:{peer_addr[1]}",
                name="splice",
            )
        )
    except RetryExhausted as exc:
        cause = exc.last.__cause__ if exc.last is not None else None
        raise cause if cause is not None else ConnectRefused("splice failed")
    finally:
        if probe is not None:
            probe.close()
