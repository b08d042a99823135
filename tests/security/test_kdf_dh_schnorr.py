"""HKDF (RFC 5869 vectors), DH, and Schnorr signatures."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.security import dh, schnorr
from repro.security.dh import (
    GROUP14_G,
    GROUP14_P,
    GROUP14_Q,
    DHPrivateKey,
    _validate_public,
    g_pow,
    jacobi,
    shared_secret,
)
from repro.security.hkdf import hkdf, hkdf_expand, hkdf_extract
from repro.security.schnorr import (
    SignatureError,
    SigningKey,
    VerifyKey,
    _encode_group_element,
    _hash_to_int,
    sign,
    verify,
)


def reference_verify(public, message, signature):
    """The oracle: ``verify`` as it stood while it still paid a full-width
    exponent, ``r = g^s · y^(q−e)``.  The short-exponent form must return
    the same boolean for every input, subgroup key or not."""
    e, s = signature
    if not (0 <= e < GROUP14_Q and 0 <= s < GROUP14_Q):
        return False
    if not 1 < public < GROUP14_P - 1:
        return False
    y_qe = pow(public, GROUP14_Q - e, GROUP14_P)
    r = pow(GROUP14_G, s, GROUP14_P) * y_qe % GROUP14_P
    return _hash_to_int(_encode_group_element(r), message) == e


class TestHkdfRfc5869:
    def test_case_1(self):
        ikm = b"\x0b" * 22
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        prk = hkdf_extract(salt, ikm)
        assert prk == bytes.fromhex(
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        )
        okm = hkdf_expand(prk, info, 42)
        assert okm == bytes.fromhex(
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_case_3_empty_salt_info(self):
        ikm = b"\x0b" * 22
        okm = hkdf(b"", ikm, b"", 42)
        assert okm == bytes.fromhex(
            "8da4e775a563c18f715f802a063c5a31"
            "b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8"
        )

    def test_expand_too_long_rejected(self):
        with pytest.raises(ValueError):
            hkdf_expand(b"\x00" * 32, b"", 255 * 32 + 1)

    @given(st.binary(max_size=64), st.binary(max_size=64), st.integers(1, 500))
    def test_deterministic(self, salt, ikm, length):
        assert hkdf(salt, ikm, b"x", length) == hkdf(salt, ikm, b"x", length)


class TestGroup14:
    def test_p_is_odd_2048_bit(self):
        assert GROUP14_P.bit_length() == 2048
        assert GROUP14_P % 2 == 1

    def test_g_generates_prime_order_subgroup(self):
        # g^q == 1 (g is a quadratic residue in a safe-prime group)
        assert pow(GROUP14_G, GROUP14_Q, GROUP14_P) == 1
        assert pow(GROUP14_G, 2, GROUP14_P) != 1


class TestDH:
    def test_key_agreement(self):
        a = DHPrivateKey(exponent=0x1234567890ABCDEF1234567890ABCDEF)
        b = DHPrivateKey(exponent=0xFEDCBA0987654321FEDCBA0987654321)
        assert a.shared(b.public) == b.shared(a.public)

    def test_shared_secret_is_256_bytes(self):
        a = DHPrivateKey()
        b = DHPrivateKey()
        assert len(a.shared(b.public)) == 256

    def test_rejects_degenerate_publics(self):
        a = DHPrivateKey()
        for bad in (0, 1, GROUP14_P - 1, GROUP14_P):
            with pytest.raises(ValueError):
                a.shared(bad)

    def test_rejects_small_subgroup_element(self):
        a = DHPrivateKey()
        # An element of order 2 (the only small subgroup in a safe prime
        # group is {1, p-1}); also test a non-residue.
        non_residue = GROUP14_P - 2  # -2 is not a QR when 2 is
        with pytest.raises(ValueError):
            a.shared(non_residue)

    def test_distinct_keys_distinct_secrets(self):
        a, b, c = DHPrivateKey(), DHPrivateKey(), DHPrivateKey()
        assert a.shared(b.public) != a.shared(c.public)

    def test_validation_messages(self):
        for bad in (-1, 0, 1, GROUP14_P - 1, GROUP14_P, GROUP14_P + 4):
            with pytest.raises(ValueError, match="^invalid DH public value$"):
                _validate_public(bad)
        for non_residue in (GROUP14_P - 4, GROUP14_P - 3, GROUP14_P - 2):
            with pytest.raises(
                ValueError, match="^DH public value not in the prime-order subgroup$"
            ):
                _validate_public(non_residue)
        for residue in (2, 3, 4):
            assert _validate_public(residue) is None


class TestFixedBase:
    """``g_pow`` against the builtin ``pow`` it replaced for every power of
    ``g``: keys, DH values, signing nonces and ``g^s`` in ``verify``."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2048).flatmap(lambda bits: st.integers(0, (1 << bits) - 1)))
    @example(0)
    @example(1)
    @example(15)
    @example(16)
    @example(GROUP14_Q - 1)
    @example(GROUP14_Q)
    @example((1 << 2048) - 1)
    def test_matches_builtin_pow(self, exponent):
        assert g_pow(exponent) == pow(GROUP14_G, exponent, GROUP14_P)

    def test_refuses_exponents_outside_the_table(self):
        for bad in (-1, 1 << 2048):
            with pytest.raises(ValueError, match="^exponent out of range$"):
                g_pow(bad)

    def test_spends_no_builtin_pow(self, monkeypatch):
        """Key generation and signing are powers of ``g`` only."""
        calls = []
        for module in (dh, schnorr):
            monkeypatch.setattr(
                module, "pow", lambda *a: calls.append(a) or pow(*a), raising=False
            )
        key = SigningKey.from_seed(b"alice")
        assert key.verify_key.public == pow(GROUP14_G, key.private, GROUP14_P)
        key.sign(b"m")
        assert calls == []


class TestJacobi:
    """The symbol that replaced ``v^q mod p`` (Euler's criterion)."""

    @pytest.mark.parametrize("p", [7, 11, 13, 23, 1019])
    def test_matches_brute_force_squares(self, p):
        """Small primes covering every class mod 8, so each reciprocity
        sign is pinned independently of group 14."""
        squares = {x * x % p for x in range(1, p)}
        for a in range(-p, 2 * p + 1):
            expected = 0 if a % p == 0 else 1 if a % p in squares else -1
            assert jacobi(a, p) == expected, (a, p)

    def test_composite_modulus(self):
        # (2|15) = 1 although 2 is no square mod 15; a shared factor gives 0.
        assert jacobi(2, 15) == 1
        assert jacobi(7, 15) == -1
        assert jacobi(6, 15) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, GROUP14_P - 2))
    @example(2)
    @example(3)
    @example(4)
    @example(GROUP14_P - 4)
    @example(GROUP14_P - 3)
    @example(GROUP14_P - 2)
    def test_is_the_subgroup_predicate(self, v):
        euler = pow(v, GROUP14_Q, GROUP14_P)
        assert euler in (1, GROUP14_P - 1)
        assert jacobi(v, GROUP14_P) == (1 if euler == 1 else -1)


class TestSchnorr:
    def test_sign_verify_round_trip(self):
        key = SigningKey.from_seed(b"alice")
        sig = key.sign(b"message")
        assert verify(key.verify_key.public, b"message", sig)

    def test_wrong_message_fails(self):
        key = SigningKey.from_seed(b"alice")
        sig = key.sign(b"message")
        assert not verify(key.verify_key.public, b"other", sig)

    def test_wrong_key_fails(self):
        alice = SigningKey.from_seed(b"alice")
        mallory = SigningKey.from_seed(b"mallory")
        sig = alice.sign(b"message")
        assert not verify(mallory.verify_key.public, b"message", sig)

    def test_tampered_signature_fails(self):
        key = SigningKey.from_seed(b"alice")
        e, s = key.sign(b"message")
        assert not verify(key.verify_key.public, b"message", (e, (s + 1) % GROUP14_Q))
        assert not verify(key.verify_key.public, b"message", ((e + 1) % GROUP14_Q, s))

    def test_deterministic_signatures(self):
        key = SigningKey.from_seed(b"alice")
        assert key.sign(b"m") == key.sign(b"m")

    def test_verify_key_raises_on_bad(self):
        key = SigningKey.from_seed(b"alice")
        with pytest.raises(SignatureError):
            key.verify_key.verify(b"m", (1, 2))

    def test_verify_key_encode_decode(self):
        key = SigningKey.from_seed(b"bob")
        encoded = key.verify_key.encode()
        assert VerifyKey.decode(encoded) == key.verify_key

    def test_out_of_range_signature_rejected(self):
        key = SigningKey.from_seed(b"alice")
        assert not verify(key.verify_key.public, b"m", (GROUP14_Q, 5))
        assert not verify(key.verify_key.public, b"m", (5, GROUP14_Q))

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=0, max_size=128))
    def test_round_trip_property(self, message):
        key = SigningKey.from_seed(b"prop")
        assert verify(key.verify_key.public, message, key.sign(message))

    _KEYS = [SigningKey.from_seed(seed) for seed in (b"alice", b"bob", b"carol")]
    _TAMPER = {
        "honest": lambda e, s: (e, s),
        "e_zero": lambda e, s: (0, s),
        "s_zero": lambda e, s: (e, 0),
        "e_wide": lambda e, s: (e + GROUP14_Q, s),
        "s_wide": lambda e, s: (e, s + GROUP14_Q),
        "e_negative": lambda e, s: (-e, s),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.sampled_from(_KEYS),
        message=st.binary(max_size=64),
        non_residue=st.booleans(),
        tamper=st.sampled_from(sorted(_TAMPER)),
        flip_e=st.none() | st.integers(0, 2047),
        flip_s=st.none() | st.integers(0, 2047),
    )
    # pinned, not left to the draw: alice's e is odd on b"a", even on b"b"
    @example(_KEYS[0], b"a", False, "honest", None, None)
    @example(_KEYS[0], b"a", True, "honest", None, None)
    @example(_KEYS[0], b"b", True, "honest", None, None)
    @example(_KEYS[0], b"a", True, "e_zero", None, None)
    def test_same_verdict_as_the_full_width_reference(
        self, key, message, non_residue, tamper, flip_e, flip_s
    ):
        """Residue keys ``g^x`` and non-residue keys ``p − g^x`` (under which
        an honest signature still verifies iff ``e`` is odd — the ``(y|p)``
        factor carries that), honest, zeroed, out-of-range and bit-flipped
        scalars: one verdict."""
        public = key.verify_key.public
        if non_residue:
            public = GROUP14_P - public
        e, s = self._TAMPER[tamper](*key.sign(message))
        if flip_e is not None:
            e ^= 1 << flip_e
        if flip_s is not None:
            s ^= 1 << flip_s
        expected = reference_verify(public, message, (e, s))
        assert verify(public, message, (e, s)) is expected
        if tamper == "honest" and flip_e is None and flip_s is None:
            assert expected is (not non_residue or e % 2 == 1)

    def test_wide_e_is_refused_before_any_modexp(self, monkeypatch):
        """No hash output reaches 2^256, so a wider ``e`` (still below the
        2047-bit q) is refused without buying a 2047-bit ``pow``."""
        calls = []

        def counting_pow(*args):
            calls.append(args)
            return pow(*args)

        monkeypatch.setattr(schnorr, "pow", counting_pow, raising=False)
        key = SigningKey.from_seed(b"alice")
        _e, s = key.sign(b"m")
        del calls[:]  # the signing nonce's own exponentiation
        assert (1 << 256) < GROUP14_Q
        assert verify(key.verify_key.public, b"m", (1 << 256, s)) is False
        assert calls == []

    @settings(max_examples=10, deadline=None)
    @given(seed=st.binary(min_size=1, max_size=16), message=st.binary(max_size=64))
    def test_honest_signatures_fit_the_e_bound(self, seed, message):
        key = SigningKey.from_seed(seed)
        e, s = key.sign(message)
        assert e < 1 << 256
        assert verify(key.verify_key.public, message, (e, s))
