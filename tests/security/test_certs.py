"""Grid certificate issuance and chain verification."""

import pytest

from repro.security import certs, schnorr
from repro.security.certs import (
    Certificate,
    CertificateAuthority,
    CertificateError,
    _issuer_signed,
    verify_chain,
)
from repro.security.dh import GROUP14_Q
from repro.security.schnorr import SigningKey


@pytest.fixture
def ca():
    return CertificateAuthority("grid-root")


def test_self_signed_root_verifies(ca):
    leaf = verify_chain([ca.certificate], [ca.certificate], now=1.0)
    assert leaf.subject == "grid-root"
    assert leaf.is_ca


def test_issue_and_verify_leaf(ca):
    key, cert = ca.issue_identity("node-1")
    leaf = verify_chain([cert], [ca.certificate], now=0.0)
    assert leaf.subject == "node-1"
    assert leaf.public_key == key.verify_key


def test_encode_decode_round_trip(ca):
    _key, cert = ca.issue_identity("node-2")
    assert Certificate.decode(cert.encode()) == cert


def test_expired_certificate_rejected(ca):
    key = SigningKey.from_seed(b"n")
    cert = ca.issue("node", key.verify_key, valid_from=0.0, valid_to=10.0)
    verify_chain([cert], [ca.certificate], now=5.0)
    with pytest.raises(CertificateError, match="not valid"):
        verify_chain([cert], [ca.certificate], now=11.0)


def test_not_yet_valid_rejected(ca):
    key = SigningKey.from_seed(b"n")
    cert = ca.issue("node", key.verify_key, valid_from=100.0, valid_to=200.0)
    with pytest.raises(CertificateError, match="not valid"):
        verify_chain([cert], [ca.certificate], now=5.0)


def test_wrong_issuer_rejected(ca):
    other = CertificateAuthority("evil-root")
    _key, cert = other.issue_identity("node")
    with pytest.raises(CertificateError):
        verify_chain([cert], [ca.certificate], now=0.0)


def test_tampered_subject_rejected(ca):
    _key, cert = ca.issue_identity("node")
    forged = Certificate(**{**cert.__dict__, "subject": "admin"})
    with pytest.raises(CertificateError, match="bad issuer signature"):
        verify_chain([forged], [ca.certificate], now=0.0)


def test_issuer_signature_is_verified_once(ca, monkeypatch):
    """A certificate seen again costs no Schnorr verify; each value the memo
    keys on — signed bytes, signature, issuer key — still decides alone."""
    _key, cert = ca.issue_identity("node")
    calls = []
    monkeypatch.setattr(
        certs, "verify", lambda *args: calls.append(args) or schnorr.verify(*args)
    )
    _issuer_signed.cache_clear()
    for _ in range(3):
        verify_chain([cert], [ca.certificate], now=0.0)
    assert len(calls) == 1
    e, s = cert.signature
    other_bytes = Certificate(**{**cert.__dict__, "subject": "admin"})
    other_signature = Certificate(
        **{**cert.__dict__, "signature": (e, (s + 1) % GROUP14_Q)}
    )
    # an anchor of the same name under another key
    impostor = CertificateAuthority("grid-root", key=SigningKey.from_seed(b"impostor"))
    for chain, anchor in (
        (other_bytes, ca.certificate),
        (other_signature, ca.certificate),
        (cert, impostor.certificate),
    ):
        with pytest.raises(CertificateError, match="bad issuer signature"):
            verify_chain([chain], [anchor], now=0.0)
    assert len(calls) == 4


def test_intermediate_chain(ca):
    inter_key = SigningKey.from_seed(b"intermediate")
    inter_cert = ca.issue("site-ca", inter_key.verify_key, is_ca=True)
    site_ca = CertificateAuthority("site-ca", key=inter_key)
    site_ca.certificate = inter_cert
    _key, leaf = site_ca.issue_identity("node-3")
    result = verify_chain([leaf, inter_cert], [ca.certificate], now=0.0)
    assert result.subject == "node-3"


def test_intermediate_without_ca_flag_rejected(ca):
    inter_key = SigningKey.from_seed(b"intermediate")
    inter_cert = ca.issue("fake-ca", inter_key.verify_key, is_ca=False)
    fake = CertificateAuthority("fake-ca", key=inter_key)
    _key, leaf = fake.issue_identity("node")
    with pytest.raises(CertificateError, match="CA flag"):
        verify_chain([leaf, inter_cert], [ca.certificate], now=0.0)


def test_broken_chain_order_rejected(ca):
    _key, leaf = ca.issue_identity("node")
    other = CertificateAuthority("unrelated")
    with pytest.raises(CertificateError):
        verify_chain([leaf, other.certificate], [other.certificate], now=0.0)


def test_chain_not_reaching_anchor_rejected(ca):
    lone = CertificateAuthority("island")
    _key, leaf = lone.issue_identity("node")
    with pytest.raises(CertificateError, match="without reaching"):
        verify_chain([leaf, lone.certificate], [ca.certificate], now=0.0)


def test_subject_mismatch_rejected(ca):
    _key, cert = ca.issue_identity("node-a")
    with pytest.raises(CertificateError, match="subject mismatch"):
        verify_chain([cert], [ca.certificate], now=0.0, expected_subject="node-b")


def test_empty_chain_rejected(ca):
    with pytest.raises(CertificateError, match="empty"):
        verify_chain([], [ca.certificate], now=0.0)


def test_malformed_bytes_rejected():
    with pytest.raises(CertificateError):
        Certificate.decode(b"garbage")
