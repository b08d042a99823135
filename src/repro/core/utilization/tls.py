"""TLS filtering driver (paper §4.4, §5.2).

"SSL/TLS security may be added over a link built with any of the
establishment methods" — the paper left the encryption driver as planned
work; here it is implemented over :mod:`repro.security`: the sans-IO
handshake runs over the sub-driver's blocks, then every block is sealed by
the record layer (SHAKE-256 keystream + HMAC-SHA256, sequence-numbered).

Like compression, encryption CPU time is charged to the host model so
security's throughput cost is measurable (benchmark S1).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...security.certs import Certificate
from ...security.handshake import (
    ClientHandshake,
    HandshakeError,
    Identity,
    ServerHandshake,
)
from ...security.record import RecordError, SecureSession
from ...simnet.cpu import charge
from .base import DriverError, FilterDriver

__all__ = ["TlsDriver"]


class TlsDriver(FilterDriver):
    """Encrypt-and-authenticate filter; call ``handshake_*`` after wiring.

    One side runs :meth:`handshake_client`, the other
    :meth:`handshake_server`; who is which is decided by the brokered
    roles (the data-link initiator acts as TLS client).
    """

    name = "tls"

    def __init__(self, child, host=None):
        super().__init__(child)
        self.host = host
        self.session: Optional[SecureSession] = None
        #: why the session is dead, once a record has failed authentication
        self._failed: Optional[str] = None

    @property
    def peer_subject(self) -> Optional[str]:
        """Authenticated peer identity (after the handshake)."""
        return self.session.peer_subject if self.session else None

    async def handshake_client(
        self,
        trust_anchors: Iterable[Certificate],
        identity: Optional[Identity] = None,
        expected_server: Optional[str] = None,
        now: float = 0.0,
        seed: Optional[bytes] = None,
    ):
        hs = ClientHandshake(
            trust_anchors=trust_anchors,
            identity=identity,
            expected_server=expected_server,
            now=now,
            seed=seed,
        )
        if self.host is not None and self.host.cpu is not None:
            await self.host.cpu.op("dh")  # ephemeral keypair
        await self.child.send_block(hs.hello())
        server_hello = await self.child.recv_block()
        if self.host is not None and self.host.cpu is not None:
            await self.host.cpu.op("verify")
            await self.host.cpu.op("dh")
        try:
            finished, session = hs.finish(server_hello)
        except HandshakeError:
            # Fatal to the link, as a failed record is: the server is parked
            # in recv_block() for a ClientFinished that will never come.
            self.child.close()
            raise
        await self.child.send_block(finished)
        self.session = session
        return session

    async def handshake_server(
        self,
        identity: Identity,
        trust_anchors: Optional[Iterable[Certificate]] = None,
        require_client_auth: bool = False,
        now: float = 0.0,
        seed: Optional[bytes] = None,
    ):
        hs = ServerHandshake(
            identity=identity,
            trust_anchors=trust_anchors,
            require_client_auth=require_client_auth,
            now=now,
            seed=seed,
        )
        client_hello = await self.child.recv_block()
        if self.host is not None and self.host.cpu is not None:
            await self.host.cpu.op("sign")
            await self.host.cpu.op("dh")
        try:
            await self.child.send_block(hs.respond(client_hello))
            finished = await self.child.recv_block()
            self.session = hs.finish(finished)
        except HandshakeError:
            self.child.close()
            raise
        return self.session

    # -- data path -----------------------------------------------------------
    def _require_session(self) -> SecureSession:
        if self._failed is not None:
            raise DriverError(self._failed)
        if self.session is None:
            raise DriverError("TLS handshake not completed")
        return self.session

    async def send_block(self, block: bytes):
        session = self._require_session()
        if self.host is not None:
            await charge(self.host, "encrypt", len(block))
        await self.child.send_block(session.seal(block))

    async def recv_block(self):
        session = self._require_session()
        record = await self.child.recv_block()
        try:
            block = session.open(record)
        except RecordError as exc:
            # Fatal, as TLS's bad_record_mac is: the link goes down with
            # the session instead of carrying records nobody can open.
            self._failed = f"record authentication failed: {exc}"
            self.child.close()
            raise DriverError(self._failed) from exc
        if self.host is not None:
            await charge(self.host, "decrypt", len(block))
        return block
