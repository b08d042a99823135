"""Record layer and TLS-like handshake, including tampering scenarios."""

import hashlib
import hmac
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
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
    SecureSession,
    ServerHandshake,
    dh,
    schnorr,
)
from repro.security.certs import _issuer_signed
from repro.security.handshake import _derive_keys


def direct_record(enc_key: bytes, mac_key: bytes, seq: int, plaintext: bytes) -> bytes:
    """The record construction written out with ``hashlib`` and ``hmac``
    alone: SHAKE-256 keystream over label, key and ``seq8``, XOR byte by
    byte, then a 16-byte HMAC-SHA256 over ``seq8 || ciphertext``."""
    seq8 = seq.to_bytes(8, "big")
    stream = hashlib.shake_256(
        b"repro-record keystream v1" + enc_key + seq8
    ).digest(len(plaintext))
    ciphertext = bytes(a ^ b for a, b in zip(plaintext, stream))
    return ciphertext + hmac.new(mac_key, seq8 + ciphertext, hashlib.sha256).digest()[:16]


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
        squeezed = []
        monkeypatch.setattr(rx, "_keystream", lambda *a: squeezed.append(a) or b"")
        with pytest.raises(RecordError, match="MAC"):
            rx.open(bytes(record))
        assert squeezed == []

    def test_bytes_like_records_open(self):
        tx, rx = self._pair()
        first, second = tx.seal(b"one" * 50), tx.seal(b"two" * 50)
        assert rx.open(bytearray(first)) == b"one" * 50
        assert rx.open(memoryview(second)) == b"two" * 50

    def test_known_answers_match_direct_hashlib(self):
        """Known answers: the empty record, 4, 256 and 70 000 bytes, each at
        seq 0, 1 and 2^63, equal :func:`direct_record` byte for byte."""
        enc_key, mac_key = bytes(range(32)), bytes(range(32, 64))
        payloads = [b"", b"grid", bytes(range(256))]
        payloads.append(bytes((i * 31 + 7) & 0xFF for i in range(70000)))
        for seq in (0, 1, 1 << 63):
            tx, rx = RecordCipher(enc_key, mac_key), RecordCipher(enc_key, mac_key)
            for plaintext in payloads:
                tx.seq = rx.seq = seq
                record = tx.seal(plaintext)
                assert record == direct_record(enc_key, mac_key, seq, plaintext)
                assert rx.open(record) == plaintext
                assert tx.seq == rx.seq == seq + 1

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(0, 200 * 1024), seq=st.integers(0, 2**64 - 1))
    @example(size=0, seq=0)
    @example(size=200 * 1024, seq=2**64 - 1)
    def test_every_size_round_trips(self, size, seq):
        tx, rx = self._pair()
        tx.seq = rx.seq = seq
        payload = random.Random(size).randbytes(size)
        record = tx.seal(payload)
        assert len(record) == size + MAC_LEN
        assert rx.open(record) == payload

    @settings(max_examples=50, deadline=None)
    @given(
        client_random=st.binary(min_size=32, max_size=32),
        server_random=st.binary(min_size=32, max_size=32),
        shared=st.binary(min_size=1, max_size=256),
        seq=st.integers(0, 2**64 - 2),
    )
    def test_keystreams_differ_by_direction_and_seq(
        self, client_random, server_random, shared, seq
    ):
        keys = _derive_keys(client_random, server_random, shared)
        c2s = RecordCipher(keys["c2s_key"], keys["c2s_mac"])
        s2c = RecordCipher(keys["s2c_key"], keys["s2c_mac"])
        seq8, next8 = seq.to_bytes(8, "big"), (seq + 1).to_bytes(8, "big")
        assert c2s._keystream(seq8, 32) != s2c._keystream(seq8, 32)
        assert c2s._keystream(seq8, 32) != c2s._keystream(next8, 32)

    @settings(max_examples=200, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=300), min_size=3, max_size=6),
        attack=st.sampled_from(["flip", "replay", "reorder", "truncate"]),
        data=st.data(),
    )
    def test_every_attack_is_rejected_without_advancing_seq(
        self, payloads, attack, data
    ):
        """Any flipped ciphertext or MAC byte, a replay, a reorder or a cut
        raises :class:`RecordError`; the untouched stream then opens."""
        tx, rx = self._pair()
        records = [tx.seal(payload) for payload in payloads]
        assert rx.open(records[0]) == payloads[0]
        victim = records[1]
        if attack == "flip":
            forged = bytearray(victim)
            forged[data.draw(st.integers(0, len(victim) - 1))] ^= data.draw(
                st.integers(1, 255)
            )
        elif attack == "replay":
            forged = records[0]
        elif attack == "reorder":
            forged = records[data.draw(st.integers(2, len(records) - 1))]
        else:
            forged = victim[: data.draw(st.integers(0, len(victim) - 1))]
        with pytest.raises(RecordError):
            rx.open(forged)
        assert rx.seq == 1
        for record, payload in zip(records[1:], payloads[1:]):
            assert rx.open(record) == payload


@st.composite
def hostile_records(draw):
    """Arbitrary bytes, or a record sealed at seq 0 with bytes flipped, cut
    or grown (never the record itself), as bytes, bytearray or memoryview."""
    if draw(st.booleans()):
        body = bytearray(draw(st.binary(max_size=2000)))
    else:
        tx = RecordCipher(b"e" * 32, b"m" * 32)
        body = bytearray(tx.seal(draw(st.binary(max_size=2000))))
        mutation = draw(st.sampled_from(["flip", "cut", "grow"]))
        if mutation == "flip":
            body[draw(st.integers(0, len(body) - 1))] ^= draw(st.integers(1, 255))
        elif mutation == "cut":
            del body[draw(st.integers(0, len(body) - 1)) :]
        else:
            body += draw(st.binary(min_size=1, max_size=64))
    wrap = draw(st.sampled_from([bytes, bytearray, memoryview]))
    return wrap(body)


class TestHostileRecords:
    @settings(max_examples=300, deadline=None)
    @given(record=hostile_records())
    def test_open_is_total_and_bounded(self, record):
        """Only :class:`RecordError` escapes either ``open``, the sequence
        number stays put, and the peak allocation stays under twice the
        input plus a constant."""
        receivers = [
            RecordCipher(b"e" * 32, b"m" * 32),
            SecureSession(
                RecordCipher(b"x" * 32, b"y" * 32),
                RecordCipher(b"e" * 32, b"m" * 32),
                None,
                "server",
            ),
        ]
        tracemalloc.start()
        try:
            for receiver in receivers:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                with pytest.raises(RecordError):
                    receiver.open(record)
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak < 2 * len(record) + 4096
        finally:
            tracemalloc.stop()
        assert receivers[0].seq == 0
        assert receivers[1]._recv.seq == 0


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
        """Structural, not timed.  Every power of ``g`` goes through
        :func:`dh.g_pow`'s table, so what is left of ``pow`` in one
        anonymous-client handshake is the two 256-bit shared secrets and
        the transcript signature's 256-bit ``y^e`` and inverse; the server
        certificate's ``y^e`` and inverse come on top only the first time
        its issuer signature is seen.  It was 11 calls and ≈ 3 580 exponent
        bits before the table and the memo (≈ 11 250 before Euler's
        criterion); a power of ``g``, a full-width exponent or a re-verified
        certificate creeping back fails here."""
        _issuer_signed.cache_clear()
        spent = []
        for _ in range(2):
            del modexp_bits[:]
            client = ClientHandshake(trust_anchors=[pki["ca"].certificate], seed=b"c")
            server = ServerHandshake(identity=pki["server"], seed=b"s")
            cf, _cs = client.finish(server.respond(client.hello()))
            server.finish(cf)
            spent.append(list(modexp_bits))
        first, repeat = spent
        assert len(first) == 6
        assert len(repeat) == 4
        assert max(first) <= 256
        assert sum(repeat) <= 3 * 256 + 1

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
    #: the first client-to-server record sealing b"up" under the derived
    #: keys, pinned when records moved to the SHAKE-256 keystream
    _PARENT_FIRST_RECORD = (
        "16591cdcd82003f1bb25d59d7e7fb4f5791c362bda25456274cf3e6d875bc069"
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
