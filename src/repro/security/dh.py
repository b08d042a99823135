"""Finite-field Diffie-Hellman over RFC 3526 MODP group 14 (2048-bit).

Used for the ephemeral key agreement in the TLS-like handshake.  The group
prime is a safe prime (p = 2q + 1 with q prime), so it doubles as the
Schnorr-signature group in :mod:`repro.security.schnorr`.
"""

from __future__ import annotations

import functools
import secrets

__all__ = [
    "GROUP14_P",
    "GROUP14_G",
    "GROUP14_Q",
    "DHPrivateKey",
    "g_pow",
    "jacobi",
    "shared_secret",
]

# RFC 3526, 2048-bit MODP Group (id 14).
GROUP14_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
GROUP14_G = 2
#: order of the prime-order subgroup (p is a safe prime)
GROUP14_Q = (GROUP14_P - 1) // 2


@functools.cache
def _g_digit_powers() -> tuple[int, ...]:
    """``g^(16^i) mod p`` for the 512 hex digit positions ``i`` of an
    exponent below 2^2048 (≈ 150 KB), four squarings each; built on first
    use, not at import (≈ 25 ms)."""
    powers = [GROUP14_G]
    while len(powers) < 512:
        value = powers[-1]
        for _ in range(4):
            value = value * value % GROUP14_P
        powers.append(value)
    return tuple(powers)


def g_pow(exponent: int) -> int:
    """``g^exponent mod p`` with no squaring, for ``0 <= exponent < 2^2048``.

    Fixed-base windowing (Yao's method, HAC Algorithm 14.109): with the
    exponent's hex digits ``d_i`` and the table ``G_i = g^(16^i)``,
    ``g^e`` is the product over ``d = 15 … 1`` of ``B_d``, the product of
    every ``G_i`` whose digit is at least ``d`` — one multiplication per
    non-zero digit plus fifteen, where the builtin ``pow`` pays a squaring
    per exponent bit: ≈ 75 products for a 256-bit exponent against ≈ 300.
    Neither form is constant-time.
    """
    if not 0 <= exponent < 1 << 2048:
        raise ValueError("exponent out of range")
    by_digit: list[list[int]] = [[] for _ in range(16)]
    for power, digit in zip(_g_digit_powers(), reversed(f"{exponent:x}")):
        by_digit[int(digit, 16)].append(power)
    result = running = 1
    for digit in range(15, 0, -1):
        for power in by_digit[digit]:
            running = running * power % GROUP14_P
        result = result * running % GROUP14_P
    return result


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a|n) for odd ``n`` > 0: 1, -1, or 0 when they share
    a factor.  For prime ``n`` it is the Legendre symbol, which by Euler's
    criterion equals ``a^((n-1)/2) mod n`` — so ``jacobi(v, p) == 1`` is
    membership in the order-q subgroup at the cost of a gcd instead of a
    full-width modexp.  Only public values are passed in: the loop's length
    depends on its input.
    """
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):  # (2|n) = -1 iff n ≡ ±3 (mod 8)
            sign = -sign
        if a & n & 3 == 3:  # reciprocity flips iff both ≡ 3 (mod 4)
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


class DHPrivateKey:
    """An ephemeral DH keypair.

    ``exponent_bits`` trades security margin for speed; 256 random bits is
    ample for a 2048-bit group (standard short-exponent practice).
    """

    def __init__(self, exponent: int | None = None, exponent_bits: int = 256):
        if exponent is None:
            exponent = secrets.randbits(exponent_bits) | (1 << (exponent_bits - 1))
        if not 1 < exponent < GROUP14_Q:
            raise ValueError("exponent out of range")
        self.x = exponent
        self.public = g_pow(self.x)

    def shared(self, peer_public: int) -> bytes:
        """The shared secret with a peer's public value, as bytes."""
        return shared_secret(self.x, peer_public)


def _validate_public(value: int) -> None:
    if not 1 < value < GROUP14_P - 1:
        raise ValueError("invalid DH public value")
    # Subgroup check: reject small-subgroup confinement attacks.
    if jacobi(value, GROUP14_P) != 1:
        raise ValueError("DH public value not in the prime-order subgroup")


def shared_secret(private_exponent: int, peer_public: int) -> bytes:
    """g^(xy) mod p, serialized big-endian (constant 256-byte length)."""
    _validate_public(peer_public)
    z = pow(peer_public, private_exponent, GROUP14_P)
    return z.to_bytes(256, "big")
