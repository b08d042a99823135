"""From-scratch security substrate: the TLS-like layer the paper plans.

Everything here is implemented on the Python standard library only:

* :mod:`~repro.security.chacha20` — ChaCha20 kernel, kept for a benchmark row.
* :mod:`~repro.security.hkdf` — HKDF-SHA256 (RFC 5869).
* :mod:`~repro.security.dh` — finite-field DH, RFC 3526 group 14.
* :mod:`~repro.security.schnorr` — Schnorr signatures over the same group.
* :mod:`~repro.security.certs` — grid certificates and chain verification.
* :mod:`~repro.security.record` — encrypt-then-MAC records (SHAKE-256 + HMAC).
* :mod:`~repro.security.handshake` — sans-IO TLS-like handshake.
"""

from .certs import Certificate, CertificateAuthority, CertificateError, verify_chain
from .chacha20 import chacha20_block, chacha20_xor
from .dh import DHPrivateKey, GROUP14_G, GROUP14_P, GROUP14_Q, shared_secret
from .handshake import ClientHandshake, HandshakeError, Identity, ServerHandshake
from .hkdf import hkdf, hkdf_expand, hkdf_extract
from .record import MAC_LEN, RecordCipher, RecordError, SecureSession
from .schnorr import SignatureError, SigningKey, VerifyKey, sign, verify

__all__ = [
    "chacha20_block",
    "chacha20_xor",
    "hkdf",
    "hkdf_extract",
    "hkdf_expand",
    "DHPrivateKey",
    "shared_secret",
    "GROUP14_P",
    "GROUP14_G",
    "GROUP14_Q",
    "SigningKey",
    "VerifyKey",
    "sign",
    "verify",
    "SignatureError",
    "Certificate",
    "CertificateAuthority",
    "CertificateError",
    "verify_chain",
    "RecordCipher",
    "RecordError",
    "SecureSession",
    "MAC_LEN",
    "ClientHandshake",
    "ServerHandshake",
    "Identity",
    "HandshakeError",
]
