"""Record layer and TLS-like handshake, including tampering scenarios."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security import (
    GROUP14_P,
    CertificateAuthority,
    ClientHandshake,
    HandshakeError,
    Identity,
    MAC_LEN,
    RecordCipher,
    RecordError,
    ServerHandshake,
    dh,
    schnorr,
)


@pytest.fixture(scope="module")
def pki():
    ca = CertificateAuthority("grid-root")
    skey, scert = ca.issue_identity("server.grid")
    ckey, ccert = ca.issue_identity("client.grid")
    return {
        "ca": ca,
        "server": Identity(skey, [scert]),
        "client": Identity(ckey, [ccert]),
    }


def _run_handshake(pki, client_kwargs=None, server_kwargs=None, wire=None):
    """One seeded handshake; ``wire`` collects the three messages sent."""
    client = ClientHandshake(
        trust_anchors=[pki["ca"].certificate],
        seed=b"c",
        dh_exponent=0x123456789ABCDEF0123456789ABCDEF1,
        **(client_kwargs or {}),
    )
    server = ServerHandshake(
        identity=pki["server"],
        seed=b"s",
        dh_exponent=0x23456789ABCDEF0123456789ABCDEF12,
        **(server_kwargs or {}),
    )
    ch = client.hello()
    sh = server.respond(ch)
    cf, client_session = client.finish(sh)
    server_session = server.finish(cf)
    if wire is not None:
        wire.extend((ch, sh, cf))
    return client, server, client_session, server_session


def _mutual_kwargs(pki):
    """``(client_kwargs, server_kwargs)`` for mutual authentication."""
    return (
        {"identity": pki["client"]},
        {"trust_anchors": [pki["ca"].certificate], "require_client_auth": True},
    )


@pytest.fixture
def modexp_bits(monkeypatch):
    """Exponent widths of every modular ``pow`` that :mod:`dh` and
    :mod:`schnorr` perform, in order (an inverse, exponent -1, counts as
    one bit): a module-level ``pow`` shadows the builtin in both."""
    widths = []

    def counting_pow(base, exponent, modulus):
        widths.append(exponent.bit_length())
        return pow(base, exponent, modulus)

    for module in (dh, schnorr):
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    return widths


class TestRecordLayer:
    def _pair(self):
        return (
            RecordCipher(b"e" * 32, b"m" * 32),
            RecordCipher(b"e" * 32, b"m" * 32),
        )

    def test_seal_open_round_trip(self):
        tx, rx = self._pair()
        assert rx.open(tx.seal(b"hello")) == b"hello"

    @given(st.lists(st.binary(max_size=200), min_size=1, max_size=10))
    def test_record_sequence_round_trips(self, messages):
        tx, rx = self._pair()
        for msg in messages:
            assert rx.open(tx.seal(msg)) == msg

    def test_tampered_ciphertext_fails(self):
        tx, rx = self._pair()
        record = bytearray(tx.seal(b"secret"))
        record[0] ^= 0xFF
        with pytest.raises(RecordError, match="MAC"):
            rx.open(bytes(record))

    def test_tampered_mac_fails(self):
        tx, rx = self._pair()
        record = bytearray(tx.seal(b"secret"))
        record[-1] ^= 0x01
        with pytest.raises(RecordError):
            rx.open(bytes(record))

    def test_replay_fails(self):
        tx, rx = self._pair()
        record = tx.seal(b"one")
        rx.open(record)
        with pytest.raises(RecordError):
            rx.open(record)  # sequence number advanced

    def test_reorder_fails(self):
        tx, rx = self._pair()
        r1, r2 = tx.seal(b"one"), tx.seal(b"two")
        with pytest.raises(RecordError):
            rx.open(r2)

    def test_truncated_record_fails(self):
        _tx, rx = self._pair()
        with pytest.raises(RecordError, match="shorter"):
            rx.open(b"tiny")

    def test_ciphertext_differs_from_plaintext(self):
        tx, _rx = self._pair()
        sealed = tx.seal(b"plaintext!")
        assert b"plaintext!" not in sealed

    @pytest.mark.parametrize("size", [0, 1, 65536, 1 << 20])
    def test_round_trip_and_tamper_at_every_edge(self, size):
        """First, middle and last ciphertext byte and each MAC byte: all
        rejected, none advances ``seq``; the untouched record then opens."""
        tx, rx = self._pair()
        tx.seal(b"earlier")  # so the record under test is not number 0
        rx.seq = 1
        payload = bytes((i * 29 + 5) & 0xFF for i in range(size))
        record = tx.seal(payload)
        assert len(record) == size + MAC_LEN
        ciphertext_edges = sorted({0, size // 2, size - 1}) if size else []
        mac_bytes = range(size, size + MAC_LEN)
        for position in [*ciphertext_edges, *mac_bytes]:
            tampered = bytearray(record)
            tampered[position] ^= 0x80
            with pytest.raises(RecordError, match="MAC failure on record 1"):
                rx.open(bytes(tampered))
            assert rx.seq == 1, f"seq advanced after tamper at {position}"
        assert rx.open(record) == payload
        assert rx.seq == 2

    def test_mac_is_verified_before_any_decryption(self, monkeypatch):
        tx, rx = self._pair()
        record = bytearray(tx.seal(b"secret" * 100))
        record[3] ^= 0x01
        decrypted = []
        monkeypatch.setattr(
            rx._cipher, "process", lambda *a: decrypted.append(a) or b""
        )
        with pytest.raises(RecordError, match="MAC"):
            rx.open(bytes(record))
        assert decrypted == []

    def test_bytes_like_records_open(self):
        tx, rx = self._pair()
        first, second = tx.seal(b"one" * 50), tx.seal(b"two" * 50)
        assert rx.open(bytearray(first)) == b"one" * 50
        assert rx.open(memoryview(second)) == b"two" * 50

    def test_records_sealed_by_the_scalar_cipher_still_open(self):
        """Cross-version fixture: sealed at the commit before the
        lane-parallel kernel (per-block ChaCha20, one-shot HMAC over
        ``seq8 + ciphertext``), keys ``0..31`` / ``32..63``, in order."""
        sealed = [
            (b"", "48317b1d19db4290655946a2a2353d34"),
            (b"grid", "0e2e15bd6ce33521e4238abb6d6c200cbef4d762"),
            (
                bytes(range(256)),
                "4dcbb2f40e786153c537b2c6c1fd471737e208dd0591fffa9c26cb28697da2c1"
                "c84b1cb0c0e2815891f794c7b150a156a8a870c142dd3d5d0215a2ecca0710fc"
                "1bcad32c49d3f94e59dec3904e8419e9673bf407aacb7d1beb33ba35cc271439"
                "13d24a7e024e0f11834f47b564ceee7cd3e9fe47b4ad78e4dbbfb8fda61242d4"
                "7c6313453fdfa7d87de67e6939a0034a66d2f1f39dc328aaa7b3110903dbe0ad"
                "e1bbcfd183601d68b3f78cd8db9d400f405f72fb4dee7ff276fdb8e992ebef2c"
                "02eaed57592fa29a163de8863bd2edd32bf3e4a0b178f5ae84907d3bafac1ef7"
                "d8a7d006b6052cff7a4334f9ea23da7a2f346cda235a48a2d084e3ebd300aeda"
                "d3d9ff7e3da854e74bdd4051d190ee39",
            ),
        ]
        big = bytes((i * 31 + 7) & 0xFF for i in range(70000))
        big_digest = "4af69078b0514cf0d8b9d03342c88af1399d4f7f3233bec6ec0b63bbdb8b0d00"
        tx = RecordCipher(bytes(range(32)), bytes(range(32, 64)))
        rx = RecordCipher(bytes(range(32)), bytes(range(32, 64)))
        for plaintext, record_hex in sealed:
            record = bytes.fromhex(record_hex)
            assert tx.seal(plaintext) == record  # the change seals the same bytes
            assert rx.open(record) == plaintext  # and opens the parent's
        record = tx.seal(big)
        assert hashlib.sha256(record).hexdigest() == big_digest
        assert rx.open(record) == big


class TestHandshake:
    def test_anonymous_client_handshake(self, pki):
        client, server, cs, ss = _run_handshake(pki)
        assert client.peer_subject == "server.grid"
        assert server.peer_subject is None
        assert ss.open(cs.seal(b"up")) == b"up"
        assert cs.open(ss.seal(b"down")) == b"down"

    def test_mutual_auth(self, pki):
        client, server, cs, ss = _run_handshake(pki, *_mutual_kwargs(pki))
        assert server.peer_subject == "client.grid"

    def test_server_requires_client_auth(self, pki):
        with pytest.raises(HandshakeError, match="client authentication"):
            _run_handshake(
                pki,
                server_kwargs={
                    "trust_anchors": [pki["ca"].certificate],
                    "require_client_auth": True,
                },
            )

    def test_expected_server_name_enforced(self, pki):
        with pytest.raises(HandshakeError, match="subject mismatch"):
            _run_handshake(pki, client_kwargs={"expected_server": "other.grid"})

    def test_untrusted_server_rejected(self, pki):
        rogue_ca = CertificateAuthority("rogue")
        key, cert = rogue_ca.issue_identity("server.grid")
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        server = ServerHandshake(identity=Identity(key, [cert]), seed=b"s")
        sh = server.respond(client.hello())
        with pytest.raises(HandshakeError, match="certificate rejected"):
            client.finish(sh)

    def test_tampered_server_hello_rejected(self, pki):
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        server = ServerHandshake(identity=pki["server"], seed=b"s")
        sh = bytearray(server.respond(client.hello()))
        sh[5] ^= 0x01  # flip a bit in the server random
        with pytest.raises(HandshakeError):
            client.finish(bytes(sh))

    def test_tampered_client_finished_rejected(self, pki):
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        server = ServerHandshake(identity=pki["server"], seed=b"s")
        sh = server.respond(client.hello())
        cf, _cs = client.finish(sh)
        corrupted = bytearray(cf)
        corrupted[-1] ^= 0x01
        with pytest.raises(HandshakeError, match="Finished MAC"):
            server.finish(bytes(corrupted))

    def test_mitm_key_substitution_detected(self, pki):
        """An attacker rewriting the DH value is caught — either by the
        server's subgroup validation or by the client's Finished MAC."""
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        server = ServerHandshake(identity=pki["server"], seed=b"s")
        ch = bytearray(client.hello())
        # Attacker rewrites the client's DH public value in flight.
        ch[40] ^= 0x01
        with pytest.raises(HandshakeError):
            sh = server.respond(bytes(ch))
            client.finish(sh)

    def test_expired_server_certificate_rejected(self, pki):
        skey, _ = pki["ca"].issue_identity("old.grid")
        expired = pki["ca"].issue("old.grid", skey.verify_key, 0.0, 10.0)
        client = ClientHandshake(
            trust_anchors=[pki["ca"].certificate], now=99.0, seed=b"c"
        )
        server = ServerHandshake(identity=Identity(skey, [expired]), seed=b"s")
        sh = server.respond(client.hello())
        with pytest.raises(HandshakeError, match="certificate rejected"):
            client.finish(sh)

    def test_malformed_messages_rejected(self, pki):
        server = ServerHandshake(identity=pki["server"], seed=b"s")
        with pytest.raises(HandshakeError):
            server.respond(b"\x07nonsense")
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        client.hello()
        with pytest.raises(HandshakeError):
            client.finish(b"\x99")

    def test_finish_before_hello_is_error(self, pki):
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        with pytest.raises(HandshakeError, match="hello"):
            client.finish(b"\x02" + b"\x00" * 40)

    @settings(max_examples=5, deadline=None)
    @given(st.binary(min_size=0, max_size=1000))
    def test_session_transports_arbitrary_payloads(self, pki, payload):
        _c, _s, cs, ss = _run_handshake(pki)
        assert ss.open(cs.seal(payload)) == payload

    def test_server_refuses_a_bad_dh_value_before_spending_a_modexp(
        self, pki, modexp_bits
    ):
        """Validate first, sign second: a ClientHello whose DH value is a
        non-residue is refused by a symbol computation alone — no signing
        nonce, no subgroup exponentiation."""
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        client._dh.public = GROUP14_P - 2
        hostile_hello = client.hello()
        server = ServerHandshake(identity=pki["server"], seed=b"s")
        del modexp_bits[:]  # the constructors' own ephemeral keys
        with pytest.raises(
            HandshakeError, match="bad client DH value: .* prime-order subgroup"
        ):
            server.respond(hostile_hello)
        assert modexp_bits == []

    def test_modexp_budget(self, pki, modexp_bits):
        """Structural, not timed: one anonymous-client handshake spends
        4 × 256 (ephemeral + shared, both sides) + 512 (signing nonce) +
        2 × (≈ 766 ``g^s`` + 256 ``y^e`` + an inverse) exponent bits.  It
        was ≈ 11 250 with four 2047-bit exponents before Euler's criterion
        replaced them; a full-width exponent creeping back fails here."""
        client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
        server = ServerHandshake(identity=pki["server"], seed=b"s")
        cf, _cs = client.finish(server.respond(client.hello()))
        server.finish(cf)
        assert len(modexp_bits) == 11
        assert max(modexp_bits) <= 800
        assert sum(modexp_bits) <= 4000

    # Captured at the commit before the short-exponent verify and the
    # sign-after-validate reorder: SHA-256 of ClientHello, ServerHello,
    # ClientFinished for the ``pki`` fixture under ``_run_handshake``'s
    # seeds and exponents.
    _PARENT_TRANSCRIPTS = {
        "anonymous": (
            "4e57d1795d0aaf581e4cf11000d8078c51c5ff91e25139c6d1912bcbd521cbaf",
            "4b301d7531b8e74c5158168882e8471ee10bc0817d9239464abd219b23bf1475",
            "bea0c6da26be4fd6fb71cc9618d677f631a20618aef5ef2d6444c48990d11032",
        ),
        "mutual": (
            "a9ecd28ed45df10121bab96386c6fca5cb59e8c2c018d7c6999241ce05697ac4",
            "4b1cee6b7365ba890ee3ff1a59650697bb2acabf91dcf8f3ac914c5e0b5f6db0",
            "76efb38140f2af954d5394c9949ca4a2c9f1f45de5ef51e714c3d62b113cb24d",
        ),
    }
    #: the first client-to-server record sealing b"up" under the derived keys
    _PARENT_FIRST_RECORD = (
        "80df03cd052a736113eb22010d0623be32fbf326b94340cb0fab4d3f5ce66ba8"
    )

    @pytest.mark.parametrize("mode", ["anonymous", "mutual"])
    def test_transcript_is_byte_identical_to_the_parent(self, pki, mode):
        """Cross-version fixture: same three messages on the wire, same
        derived keys, and each side opens what the other seals."""
        wire = []
        kwargs = _mutual_kwargs(pki) if mode == "mutual" else (None, None)
        _c, _s, cs, ss = _run_handshake(pki, *kwargs, wire=wire)
        digests = tuple(hashlib.sha256(message).hexdigest() for message in wire)
        assert digests == self._PARENT_TRANSCRIPTS[mode]
        record = cs.seal(b"up")
        assert hashlib.sha256(record).hexdigest() == self._PARENT_FIRST_RECORD
        assert ss.open(record) == b"up"
        assert cs.open(ss.seal(b"down")) == b"down"
