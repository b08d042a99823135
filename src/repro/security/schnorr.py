"""Schnorr signatures over the RFC 3526 group-14 Schnorr group.

The group prime is a safe prime, so the quadratic residues form a
prime-order subgroup of order q = (p-1)/2 generated by g = 2 (2 is a QR
because p ≡ 7 mod 8).  Signatures authenticate grid certificates
(:mod:`repro.security.certs`) and handshake transcripts.

Nonces are derived deterministically from the key and message (RFC
6979-style), so signing never depends on an entropy source — important for
reproducible simulation runs.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets

from .dh import GROUP14_G, GROUP14_P, GROUP14_Q, jacobi

__all__ = ["SigningKey", "VerifyKey", "sign", "verify", "SignatureError"]

_P = GROUP14_P
_Q = GROUP14_Q
_G = GROUP14_G
#: no SHA-256 output reaches this, so a wider ``e`` is refused before any modexp
_E_BOUND = 1 << 256


class SignatureError(Exception):
    """Signature verification failed."""


def _hash_to_int(*parts: bytes) -> int:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return int.from_bytes(h.digest(), "big") % _Q


def _encode_group_element(value: int) -> bytes:
    return value.to_bytes(256, "big")


def sign(private: int, message: bytes) -> tuple[int, int]:
    """Sign ``message``; returns (e, s).

    Verification recomputes r = g^s * y^(-e) and checks e = H(r || m),
    which makes the signature two scalars instead of a group element.
    """
    if not 1 <= private < _Q:
        raise ValueError("private key out of range")
    # Deterministic nonce: HMAC(key, message), reduced into [1, q).
    key_bytes = private.to_bytes(256, "big")
    k = (
        int.from_bytes(hmac.new(key_bytes, message, hashlib.sha512).digest(), "big")
        % (_Q - 1)
    ) + 1
    r = pow(_G, k, _P)
    e = _hash_to_int(_encode_group_element(r), message)
    s = (k + private * e) % _Q
    return e, s


def verify(public: int, message: bytes, signature: tuple[int, int]) -> bool:
    """True iff ``signature`` is valid for ``message`` under ``public``."""
    e, s = signature
    if not (0 <= e < _E_BOUND and 0 <= s < _Q):
        return False
    if not 1 < public < _P - 1:
        return False
    # r = g^s * y^(q-e), with y^(q-e) = y^q / y^e = (y|p) / y^e by Euler's
    # criterion: a 256-bit exponent, an inverse and a symbol instead of a
    # 2047-bit exponent, and the same r for every y, in the subgroup or not.
    y_e = pow(public, e, _P)
    r = pow(_G, s, _P) * pow(y_e, -1, _P) * jacobi(public, _P) % _P
    return _hash_to_int(_encode_group_element(r), message) == e


class SigningKey:
    """A Schnorr private key."""

    def __init__(self, private: int | None = None):
        if private is None:
            private = secrets.randbelow(_Q - 2) + 1
        if not 1 <= private < _Q:
            raise ValueError("private key out of range")
        self.private = private
        self.verify_key = VerifyKey(pow(_G, private, _P))

    @classmethod
    def from_seed(cls, seed: bytes) -> "SigningKey":
        """Deterministic key from a seed (for reproducible deployments)."""
        digest = hashlib.sha512(b"repro-schnorr-key" + seed).digest()
        private = (int.from_bytes(digest, "big") % (_Q - 2)) + 1
        return cls(private)

    def sign(self, message: bytes) -> tuple[int, int]:
        return sign(self.private, message)


class VerifyKey:
    """A Schnorr public key."""

    def __init__(self, public: int):
        if not 1 < public < _P - 1:
            raise ValueError("public key out of range")
        self.public = public

    def verify(self, message: bytes, signature: tuple[int, int]) -> None:
        """Raises :class:`SignatureError` on failure."""
        if not verify(self.public, message, signature):
            raise SignatureError("bad signature")

    def is_valid(self, message: bytes, signature: tuple[int, int]) -> bool:
        return verify(self.public, message, signature)

    def encode(self) -> bytes:
        return _encode_group_element(self.public)

    @classmethod
    def decode(cls, data: bytes) -> "VerifyKey":
        return cls(int.from_bytes(data, "big"))

    def __eq__(self, other) -> bool:
        return isinstance(other, VerifyKey) and other.public == self.public

    def __hash__(self) -> int:
        return hash(self.public)
