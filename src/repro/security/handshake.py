"""TLS-like handshake: ephemeral DH + certificate authentication (§4.4).

The paper plans an SSL filtering driver for NetIbis; we implement the full
protocol so the security dimension of the integrated solution is real.  The
design follows TLS 1.3 in miniature:

1. ``ClientHello``  — client random, ephemeral DH public value.
2. ``ServerHello``  — server random, ephemeral DH public value, certificate
   chain, a Schnorr signature over the transcript (proves possession of the
   certified key), and a Finished MAC under the derived keys.
3. ``ClientFinished`` — optional client certificate chain + transcript
   signature (mutual authentication), and the client Finished MAC.

Keys: ``HKDF(salt = client_random || server_random, ikm = DH shared)``
expanded into per-direction encryption/MAC keys and Finished keys.  The
handshake is sans-IO: callers move opaque message blobs; both the simnet
TLS driver and the livenet backend reuse it unchanged.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable, Optional, Sequence

from ..util.framing import ByteReader, ByteWriter, FrameError
from .certs import Certificate, CertificateError, verify_chain
from .dh import DHPrivateKey
from .hkdf import hkdf_expand, hkdf_extract
from .record import RecordCipher, SecureSession
from .schnorr import SignatureError, SigningKey

__all__ = ["HandshakeError", "ClientHandshake", "ServerHandshake", "Identity"]

MSG_CLIENT_HELLO = 1
MSG_SERVER_HELLO = 2
MSG_CLIENT_FINISHED = 3

_SERVER_SIG_LABEL = b"repro-tls server-auth v1"
_CLIENT_SIG_LABEL = b"repro-tls client-auth v1"
_SERVER_FIN_LABEL = b"repro-tls server-fin v1"
_CLIENT_FIN_LABEL = b"repro-tls client-fin v1"


class HandshakeError(Exception):
    """Protocol violation, authentication failure, or tampering."""


class Identity:
    """A key plus its certificate chain (leaf first)."""

    def __init__(self, key: SigningKey, chain: Sequence[Certificate]):
        if not chain:
            raise ValueError("identity requires at least a leaf certificate")
        if chain[0].public_key != key.verify_key:
            raise ValueError("leaf certificate does not match the key")
        self.key = key
        self.chain = list(chain)

    @property
    def subject(self) -> str:
        return self.chain[0].subject


def _derive_keys(
    client_random: bytes, server_random: bytes, shared: bytes
) -> dict[str, bytes]:
    prk = hkdf_extract(client_random + server_random, shared)
    okm = hkdf_expand(prk, b"repro-tls key schedule v1", 32 * 6)
    names = ["c2s_key", "s2c_key", "c2s_mac", "s2c_mac", "c_fin", "s_fin"]
    return {name: okm[i * 32 : (i + 1) * 32] for i, name in enumerate(names)}


def _fin_mac(key: bytes, label: bytes, transcript: bytes) -> bytes:
    return hmac.new(key, label + hashlib.sha256(transcript).digest(), hashlib.sha256).digest()


def _encode_chain(writer: ByteWriter, chain: Sequence[Certificate]) -> None:
    writer.u16(len(chain))
    for cert in chain:
        writer.lp_bytes(cert.encode())


def _decode_chain(reader: ByteReader) -> list[Certificate]:
    count = reader.u16()
    if count > 16:
        raise HandshakeError("certificate chain too long")
    return [Certificate.decode(reader.lp_bytes()) for _ in range(count)]


def _random_from(seed: Optional[bytes], label: bytes) -> bytes:
    if seed is None:
        import secrets

        return secrets.token_bytes(32)
    return hashlib.sha256(label + seed).digest()


class ClientHandshake:
    """Client side of the handshake (sans-IO).

    Call :meth:`hello` to get the first message; feed the server's reply to
    :meth:`finish`, which returns ``(client_finished_msg, session)``.
    """

    def __init__(
        self,
        trust_anchors: Iterable[Certificate],
        identity: Optional[Identity] = None,
        expected_server: Optional[str] = None,
        now: float = 0.0,
        seed: Optional[bytes] = None,
        dh_exponent: Optional[int] = None,
    ):
        self.trust_anchors = list(trust_anchors)
        self.identity = identity
        self.expected_server = expected_server
        self.now = now
        self._random = _random_from(seed, b"client-random")
        self._dh = DHPrivateKey(dh_exponent)
        self._hello: Optional[bytes] = None
        self.peer_subject: Optional[str] = None

    def hello(self) -> bytes:
        msg = (
            ByteWriter()
            .u8(MSG_CLIENT_HELLO)
            .raw(self._random)
            .mpint(self._dh.public)
            .u8(1 if self.identity is not None else 0)
            .getvalue()
        )
        self._hello = msg
        return msg

    def finish(self, server_hello: bytes) -> tuple[bytes, SecureSession]:
        if self._hello is None:
            raise HandshakeError("hello() not sent yet")
        try:
            reader = ByteReader(server_hello)
            if reader.u8() != MSG_SERVER_HELLO:
                raise HandshakeError("expected ServerHello")
            server_random = reader.raw(32)
            server_pub = reader.mpint()
            chain = _decode_chain(reader)
            core_len = len(server_hello) - reader.remaining
            sig_e = reader.mpint()
            sig_s = reader.mpint()
            server_fin = reader.lp_bytes()
            reader.expect_end()
        except FrameError as exc:
            raise HandshakeError(f"malformed ServerHello: {exc}") from exc

        # Authenticate the server.
        try:
            leaf = verify_chain(
                chain, self.trust_anchors, self.now, self.expected_server
            )
        except CertificateError as exc:
            raise HandshakeError(f"server certificate rejected: {exc}") from exc
        sh_core = server_hello[:core_len]
        signed = _SERVER_SIG_LABEL + self._hello + sh_core
        if not leaf.public_key.is_valid(signed, (sig_e, sig_s)):
            raise HandshakeError("server transcript signature invalid")
        self.peer_subject = leaf.subject

        # Key schedule.
        try:
            shared = self._dh.shared(server_pub)
        except ValueError as exc:
            raise HandshakeError(f"bad server DH value: {exc}") from exc
        keys = _derive_keys(self._random, server_random, shared)

        sig_enc = ByteWriter().mpint(sig_e).mpint(sig_s).getvalue()
        expected_fin = _fin_mac(
            keys["s_fin"], _SERVER_FIN_LABEL, self._hello + sh_core + sig_enc
        )
        if not hmac.compare_digest(server_fin, expected_fin):
            raise HandshakeError("server Finished MAC invalid")

        # Build ClientFinished.
        writer = ByteWriter().u8(MSG_CLIENT_FINISHED)
        if self.identity is not None:
            writer.u8(1)
            _encode_chain(writer, self.identity.chain)
            client_signed = (
                _CLIENT_SIG_LABEL + self._hello + server_hello
            )
            ce, cs = self.identity.key.sign(client_signed)
            writer.mpint(ce).mpint(cs)
        else:
            writer.u8(0)
        body_so_far = writer.getvalue()
        client_fin = _fin_mac(
            keys["c_fin"], _CLIENT_FIN_LABEL, self._hello + server_hello + body_so_far
        )
        writer.lp_bytes(client_fin)
        finished_msg = writer.getvalue()

        session = SecureSession(
            send_cipher=RecordCipher(keys["c2s_key"], keys["c2s_mac"]),
            recv_cipher=RecordCipher(keys["s2c_key"], keys["s2c_mac"]),
            peer_subject=self.peer_subject,
            role="client",
        )
        return finished_msg, session


class ServerHandshake:
    """Server side of the handshake (sans-IO).

    Feed the ClientHello to :meth:`respond` (returns the ServerHello), then
    the ClientFinished to :meth:`finish` (returns the session).
    """

    def __init__(
        self,
        identity: Identity,
        trust_anchors: Optional[Iterable[Certificate]] = None,
        require_client_auth: bool = False,
        now: float = 0.0,
        seed: Optional[bytes] = None,
        dh_exponent: Optional[int] = None,
    ):
        self.identity = identity
        self.trust_anchors = list(trust_anchors or ())
        self.require_client_auth = require_client_auth
        if require_client_auth and not self.trust_anchors:
            raise ValueError("client auth requires trust anchors")
        self.now = now
        self._random = _random_from(seed, b"server-random")
        self._dh = DHPrivateKey(dh_exponent)
        self._hello: Optional[bytes] = None
        self._server_hello: Optional[bytes] = None
        self._keys: Optional[dict[str, bytes]] = None
        self.peer_subject: Optional[str] = None

    def respond(self, client_hello: bytes) -> bytes:
        try:
            reader = ByteReader(client_hello)
            if reader.u8() != MSG_CLIENT_HELLO:
                raise HandshakeError("expected ClientHello")
            client_random = reader.raw(32)
            client_pub = reader.mpint()
            _client_has_cert = reader.u8()
            reader.expect_end()
        except FrameError as exc:
            raise HandshakeError(f"malformed ClientHello: {exc}") from exc
        self._hello = client_hello

        # Validate the peer's value before signing anything for it.
        try:
            shared = self._dh.shared(client_pub)
        except ValueError as exc:
            raise HandshakeError(f"bad client DH value: {exc}") from exc
        self._keys = _derive_keys(client_random, self._random, shared)

        writer = ByteWriter().u8(MSG_SERVER_HELLO).raw(self._random)
        writer.mpint(self._dh.public)
        _encode_chain(writer, self.identity.chain)
        sh_core = writer.getvalue()

        sig = self.identity.key.sign(_SERVER_SIG_LABEL + client_hello + sh_core)
        sig_enc = ByteWriter().mpint(sig[0]).mpint(sig[1]).getvalue()

        fin = _fin_mac(
            self._keys["s_fin"], _SERVER_FIN_LABEL, client_hello + sh_core + sig_enc
        )
        message = sh_core + sig_enc + ByteWriter().lp_bytes(fin).getvalue()
        self._server_hello = message
        return message

    def finish(self, client_finished: bytes) -> SecureSession:
        if self._keys is None or self._server_hello is None or self._hello is None:
            raise HandshakeError("respond() not called yet")
        try:
            reader = ByteReader(client_finished)
            if reader.u8() != MSG_CLIENT_FINISHED:
                raise HandshakeError("expected ClientFinished")
            has_cert = reader.u8()
            if has_cert:
                chain = _decode_chain(reader)
                ce = reader.mpint()
                cs = reader.mpint()
            body_len = len(client_finished) - reader.remaining
            fin = reader.lp_bytes()
            reader.expect_end()
        except FrameError as exc:
            raise HandshakeError(f"malformed ClientFinished: {exc}") from exc

        if has_cert:
            try:
                leaf = verify_chain(chain, self.trust_anchors, self.now)
            except CertificateError as exc:
                raise HandshakeError(f"client certificate rejected: {exc}") from exc
            signed = _CLIENT_SIG_LABEL + self._hello + self._server_hello
            if not leaf.public_key.is_valid(signed, (ce, cs)):
                raise HandshakeError("client transcript signature invalid")
            self.peer_subject = leaf.subject
        elif self.require_client_auth:
            raise HandshakeError("client authentication required but not offered")

        body = client_finished[:body_len]
        expected = _fin_mac(
            self._keys["c_fin"],
            _CLIENT_FIN_LABEL,
            self._hello + self._server_hello + body,
        )
        if not hmac.compare_digest(fin, expected):
            raise HandshakeError("client Finished MAC invalid")

        return SecureSession(
            send_cipher=RecordCipher(self._keys["s2c_key"], self._keys["s2c_mac"]),
            recv_cipher=RecordCipher(self._keys["c2s_key"], self._keys["c2s_mac"]),
            peer_subject=self.peer_subject,
            role="server",
        )
