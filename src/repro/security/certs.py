"""Grid certificates: a minimal PKI for peer authentication (paper §1, §4.4).

Grid deployments of the era used GSI-style X.509 certificates; we implement
the same trust structure with a compact binary certificate format signed by
Schnorr keys: a certificate binds a subject name to a public key, signed by
an issuer, with validity bounds and a CA flag.  Chains verify up to a set
of trust anchors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..util.framing import ByteReader, ByteWriter, FrameError
from .schnorr import SigningKey, VerifyKey, verify

__all__ = ["Certificate", "CertificateError", "CertificateAuthority", "verify_chain"]


class CertificateError(Exception):
    """Certificate parsing, validity or chain verification failure."""


@functools.lru_cache(maxsize=256)
def _issuer_signed(issuer_public: int, tbs: bytes, signature: tuple[int, int]) -> bool:
    """:func:`schnorr.verify` for a certificate's issuer signature, memoised.

    The verdict is a pure function of these three values, and the same
    certificate arrives on every connect (the CA's signature on a server's
    certificate), so a repeat costs a hash lookup instead of a verify.
    Validity windows, the CA flag and chain order are checked on every call
    of :func:`verify_chain`, memo or not.
    """
    return verify(issuer_public, tbs, signature)


@dataclass(frozen=True)
class Certificate:
    subject: str
    public_key: VerifyKey
    issuer: str
    serial: int
    valid_from: float
    valid_to: float
    is_ca: bool
    signature: tuple[int, int]

    # -- encoding ------------------------------------------------------------
    def _tbs(self) -> bytes:
        """The to-be-signed portion (everything but the signature)."""
        return (
            ByteWriter()
            .lp_str(self.subject)
            .lp_bytes(self.public_key.encode())
            .lp_str(self.issuer)
            .u64(self.serial)
            .f64(self.valid_from)
            .f64(self.valid_to)
            .u8(1 if self.is_ca else 0)
            .getvalue()
        )

    def encode(self) -> bytes:
        e, s = self.signature
        return ByteWriter().lp_bytes(self._tbs()).mpint(e).mpint(s).getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "Certificate":
        try:
            outer = ByteReader(data)
            tbs = outer.lp_bytes()
            e = outer.mpint()
            s = outer.mpint()
            outer.expect_end()
            r = ByteReader(tbs)
            cert = cls(
                subject=r.lp_str(),
                public_key=VerifyKey.decode(r.lp_bytes()),
                issuer=r.lp_str(),
                serial=r.u64(),
                valid_from=r.f64(),
                valid_to=r.f64(),
                is_ca=bool(r.u8()),
                signature=(e, s),
            )
            r.expect_end()
            return cert
        except (FrameError, ValueError) as exc:
            raise CertificateError(f"malformed certificate: {exc}") from exc

    # -- checks ---------------------------------------------------------------
    def check_validity(self, now: float) -> None:
        if not self.valid_from <= now <= self.valid_to:
            raise CertificateError(
                f"certificate for {self.subject!r} not valid at t={now} "
                f"(window [{self.valid_from}, {self.valid_to}])"
            )

    def check_signed_by(self, issuer_key: VerifyKey) -> None:
        if not _issuer_signed(issuer_key.public, self._tbs(), self.signature):
            raise CertificateError(
                f"certificate for {self.subject!r}: bad issuer signature"
            )


class CertificateAuthority:
    """Issues certificates; the root of a trust chain."""

    def __init__(self, name: str, key: Optional[SigningKey] = None):
        self.name = name
        self.key = key or SigningKey.from_seed(name.encode())
        self._serial = 0
        self.certificate = self._self_signed()

    def _self_signed(self) -> Certificate:
        return self._issue(
            subject=self.name,
            public_key=self.key.verify_key,
            is_ca=True,
            valid_from=0.0,
            valid_to=float("inf"),
        )

    def _issue(self, subject, public_key, is_ca, valid_from, valid_to) -> Certificate:
        self._serial += 1
        unsigned = Certificate(
            subject=subject,
            public_key=public_key,
            issuer=self.name,
            serial=self._serial,
            valid_from=valid_from,
            valid_to=valid_to,
            is_ca=is_ca,
            signature=(0, 0),
        )
        sig = self.key.sign(unsigned._tbs())
        return Certificate(**{**unsigned.__dict__, "signature": sig})

    def issue(
        self,
        subject: str,
        public_key: VerifyKey,
        valid_from: float = 0.0,
        valid_to: float = float("inf"),
        is_ca: bool = False,
    ) -> Certificate:
        """Issue a certificate binding ``subject`` to ``public_key``."""
        return self._issue(subject, public_key, is_ca, valid_from, valid_to)

    def issue_identity(
        self, subject: str, seed: Optional[bytes] = None
    ) -> tuple[SigningKey, Certificate]:
        """Convenience: generate a keypair and certify it."""
        key = SigningKey.from_seed(seed if seed is not None else subject.encode())
        return key, self.issue(subject, key.verify_key)


def verify_chain(
    chain: Sequence[Certificate],
    trust_anchors: Iterable[Certificate],
    now: float,
    expected_subject: Optional[str] = None,
) -> Certificate:
    """Verify ``chain`` (leaf first) against ``trust_anchors``.

    Returns the leaf certificate.  Every link must be signed by the next
    certificate's key; the last link must be signed by a trust anchor (or
    be one).  Intermediates must carry the CA flag.
    """
    if not chain:
        raise CertificateError("empty certificate chain")
    anchors = {cert.subject: cert for cert in trust_anchors}
    leaf = chain[0]
    if expected_subject is not None and leaf.subject != expected_subject:
        raise CertificateError(
            f"subject mismatch: expected {expected_subject!r}, got {leaf.subject!r}"
        )
    for i, cert in enumerate(chain):
        cert.check_validity(now)
        if i > 0 and not cert.is_ca:
            raise CertificateError(
                f"intermediate {cert.subject!r} lacks the CA flag"
            )
        anchor = anchors.get(cert.issuer)
        if anchor is not None:
            cert.check_signed_by(anchor.public_key)
            return leaf
        if i + 1 < len(chain):
            issuer = chain[i + 1]
            if issuer.subject != cert.issuer:
                raise CertificateError(
                    f"broken chain: {cert.subject!r} issued by {cert.issuer!r}, "
                    f"next cert is {issuer.subject!r}"
                )
            cert.check_signed_by(issuer.public_key)
        else:
            raise CertificateError(
                f"chain ends at {cert.subject!r} without reaching a trust anchor"
            )
    raise CertificateError("unreachable")  # pragma: no cover
