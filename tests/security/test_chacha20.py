"""ChaCha20 against the RFC 7539 test vectors plus property tests.

``chacha20_xor`` is a lane-parallel kernel (all of a chunk's blocks at
once); ``chacha20_block`` is the scalar RFC 7539 §2.3 block function.
:func:`scalar_xor` below — the per-block, per-byte loop the kernel
replaced — is the oracle the kernel must equal bit for bit.
"""

import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.security import chacha20
from repro.security.chacha20 import ChaCha20, chacha20_block, chacha20_xor

CHUNK = 64 * chacha20._LANES  # bytes one kernel call covers
MAX_COUNTER = 2**32 - 1


def scalar_xor(key: bytes, counter: int, nonce: bytes, data: bytes) -> bytes:
    """The scalar oracle: one ``chacha20_block`` per 64 bytes, XOR per byte."""
    out = bytearray(len(data))
    for block_index in range((len(data) + 63) // 64):
        keystream = chacha20_block(key, counter + block_index, nonce)
        start = block_index * 64
        chunk = data[start : start + 64]
        out[start : start + len(chunk)] = bytes(
            a ^ b for a, b in zip(chunk, keystream)
        )
    return bytes(out)


def _pattern(size: int) -> bytes:
    return bytes((i * 131 + (i >> 8) * 7 + 3) & 0xFF for i in range(size))


class TestRfc7539Vectors:
    def test_block_function_vector(self):
        """RFC 7539 §2.3.2."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        block = chacha20_block(key, 1, nonce)
        expected = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e"
        )
        assert block == expected

    def test_encryption_vector(self):
        """RFC 7539 §2.4.2."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        ciphertext = chacha20_xor(key, 1, nonce, plaintext)
        expected = bytes.fromhex(
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b357"
            "1639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e"
            "52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42"
            "874d"
        )
        assert ciphertext == expected


class TestLaneKernel:
    """``chacha20_xor`` equals the scalar oracle, for every size and counter."""

    KEY = bytes(range(32))
    NONCE = bytes.fromhex("000000090000004a00000000")

    def test_multi_block_keystream_matches_block_function(self):
        """XOR of zeros is the keystream: block i is ``chacha20_block(counter + i)``."""
        nblocks = 37
        stream = chacha20_xor(self.KEY, 7, self.NONCE, bytes(64 * nblocks))
        for i in range(nblocks):
            assert stream[64 * i : 64 * i + 64] == chacha20_block(
                self.KEY, 7 + i, self.NONCE
            ), f"block {i}"

    @given(st.data())
    def test_equals_scalar_oracle(self, data):
        key = data.draw(st.binary(min_size=32, max_size=32))
        nonce = data.draw(st.binary(min_size=12, max_size=12))
        size = data.draw(st.integers(0, 3000))
        plaintext = data.draw(st.binary(min_size=size, max_size=size))
        nblocks = (size + 63) // 64
        counter = data.draw(st.integers(0, MAX_COUNTER - nblocks))
        assert chacha20_xor(key, counter, nonce, plaintext) == scalar_xor(
            key, counter, nonce, plaintext
        )

    @pytest.mark.parametrize(
        "size",
        [0, 1, 63, 64, 65, 127, 128, 1000, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17],
    )
    def test_sizes_straddling_every_internal_boundary(self, size):
        plaintext = _pattern(size)
        got = chacha20_xor(self.KEY, 1, self.NONCE, plaintext)
        assert isinstance(got, bytes)
        assert got == scalar_xor(self.KEY, 1, self.NONCE, plaintext)

    def test_one_mebibyte(self):
        """Sixteen chunks: compared block-sampled (the oracle takes ~1.5 s/MiB)
        plus a round trip of the whole."""
        plaintext = _pattern(1 << 20)
        got = chacha20_xor(self.KEY, 3, self.NONCE, plaintext)
        assert len(got) == 1 << 20
        for chunk_index in range(16):  # first and last block of every chunk
            for block in (chunk_index * 1024, chunk_index * 1024 + 1023):
                piece = plaintext[64 * block : 64 * block + 64]
                assert got[64 * block : 64 * block + 64] == scalar_xor(
                    self.KEY, 3 + block, self.NONCE, piece
                ), f"block {block}"
        assert chacha20_xor(self.KEY, 3, self.NONCE, got) == plaintext

    def test_counter_near_the_top(self):
        plaintext = _pattern(128)
        assert chacha20_xor(
            self.KEY, MAX_COUNTER - 1, self.NONCE, plaintext
        ) == scalar_xor(self.KEY, MAX_COUNTER - 1, self.NONCE, plaintext)

    @pytest.mark.parametrize(
        "wrap",
        [bytearray, memoryview, lambda b: memoryview(bytearray(b))[:],
         lambda b: array.array("B", b)],
        ids=["bytearray", "memoryview", "memoryview-of-bytearray", "array"],
    )
    def test_bytes_like_inputs(self, wrap):
        plaintext = _pattern(200)
        got = chacha20_xor(self.KEY, 1, self.NONCE, wrap(plaintext))
        assert type(got) is bytes
        assert got == scalar_xor(self.KEY, 1, self.NONCE, plaintext)

    def test_no_per_size_cache(self):
        """2 000 distinct lengths leave no module-level container larger."""

        def sizes():
            return {
                name: len(value)
                for name, value in vars(chacha20).items()
                if isinstance(value, (dict, list, set, tuple, bytes, bytearray))
            }

        def int_bits():
            return {
                name: value.bit_length()
                for name, value in vars(chacha20).items()
                if isinstance(value, int)
            }

        names = set(vars(chacha20))
        before, bits = sizes(), int_bits()
        plaintext = bytes(2000)
        for size in range(2000):
            chacha20_xor(self.KEY, 1, self.NONCE, plaintext[:size])
        assert set(vars(chacha20)) == names
        assert sizes() == before
        assert int_bits() == bits


class TestProperties:
    @given(st.binary(min_size=0, max_size=500), st.integers(0, 2**31))
    def test_xor_round_trip(self, data, counter):
        key = bytes(range(32))
        nonce = b"\x01" * 12
        assert chacha20_xor(key, counter, nonce, chacha20_xor(key, counter, nonce, data)) == data

    @given(st.binary(min_size=1, max_size=200))
    def test_different_keys_differ(self, data):
        nonce = b"\x00" * 12
        c1 = chacha20_xor(b"\x01" * 32, 0, nonce, data)
        c2 = chacha20_xor(b"\x02" * 32, 0, nonce, data)
        assert c1 != c2

    @given(st.binary(min_size=0, max_size=300), st.integers(0, 2**40))
    def test_stateful_wrapper_round_trip(self, data, seq):
        enc = ChaCha20(b"k" * 32)
        dec = ChaCha20(b"k" * 32)
        assert dec.process(seq, enc.process(seq, data)) == data

    def test_different_seq_gives_different_stream(self):
        c = ChaCha20(b"k" * 32)
        data = b"a" * 64
        assert c.process(0, data) != c.process(1, data)


class TestValidation:
    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            chacha20_block(b"short", 0, b"\x00" * 12)

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            chacha20_block(b"\x00" * 32, 0, b"\x00" * 8)

    def test_counter_out_of_range(self):
        with pytest.raises(ValueError):
            chacha20_block(b"\x00" * 32, 1 << 32, b"\x00" * 12)

    def test_bad_prefix(self):
        with pytest.raises(ValueError):
            ChaCha20(b"\x00" * 32, prefix=b"abc")

    # chacha20_xor checks everything once, up front, for every length
    # (an empty input used to skip the checks: they lived in the block
    # function, which it never reached).
    @pytest.mark.parametrize("size", [0, 1, 64, 200])
    def test_xor_bad_key_length(self, size):
        with pytest.raises(ValueError, match="key must be 32 bytes"):
            chacha20_xor(b"short", 0, b"\x00" * 12, bytes(size))

    @pytest.mark.parametrize("size", [0, 1, 64, 200])
    def test_xor_bad_nonce_length(self, size):
        with pytest.raises(ValueError, match="nonce must be 12 bytes"):
            chacha20_xor(b"\x00" * 32, 0, b"", bytes(size))

    @pytest.mark.parametrize("counter", [-1, 1 << 32])
    @pytest.mark.parametrize("size", [0, 1, 200])
    def test_xor_counter_out_of_range(self, counter, size):
        with pytest.raises(ValueError, match="counter out of range"):
            chacha20_xor(b"\x00" * 32, counter, b"\x00" * 12, bytes(size))

    def test_xor_counter_boundary_is_exact(self, monkeypatch):
        """``2**32 - 2`` leaves room for two blocks: 128 B pass, 129 B raise
        before any keystream is computed."""
        key, nonce = b"\x00" * 32, b"\x00" * 12
        assert len(chacha20_xor(key, MAX_COUNTER - 1, nonce, bytes(128))) == 128
        assert chacha20_xor(key, MAX_COUNTER, nonce, bytes(64)) == chacha20_block(
            key, MAX_COUNTER, nonce
        )
        calls = []
        monkeypatch.setattr(
            chacha20, "_keystream", lambda *a: calls.append(a) or 1 / 0
        )
        with pytest.raises(ValueError, match="counter out of range"):
            chacha20_xor(key, MAX_COUNTER - 1, nonce, bytes(129))
        with pytest.raises(ValueError, match="counter out of range"):
            chacha20_xor(key, MAX_COUNTER - 16, nonce, bytes(CHUNK + 1))
        assert calls == []
