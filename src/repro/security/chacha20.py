"""ChaCha20 (RFC 7539) keystream kernel, kept only for a benchmark row.

No record uses it (records key a SHAKE-256 stream, :mod:`.record`);
``benchmarks/perf/layers.py`` times :func:`chacha20_xor` for
``security.chacha20.xor_MBps``, and the change retiring that row deletes
this module.  The kernel computes up to ``_LANES`` blocks at once: each
state word is one ``int`` holding a 64-bit lane per block (32 bits the
word, 32 headroom, so adds never carry across lanes), a quarter-round is a
few big-int operations looping in C, and strided ``array('Q')`` slices put
lanes into block order whatever the host's byte order.
:func:`chacha20_block` is the scalar §2.3 oracle the tests check it against.
"""

from __future__ import annotations

import struct
from array import array

__all__ = ["chacha20_block", "chacha20_xor"]

_MASK = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"

#: blocks per kernel call (64 KiB of keystream): throughput is flat from a
#: quarter of this up, so chunking bounds memory and costs nothing
_LANES = 1024
#: lane constants, built once: 1 in every lane, and the ramp 0.._LANES-1
_ONES = int.from_bytes(struct.pack("<Q", 1) * _LANES, "little")
_RAMP = int.from_bytes(struct.pack(f"<{_LANES}Q", *range(_LANES)), "little")


def _rotl(v: int, n: int) -> int:
    return ((v << n) & _MASK) | (v >> (32 - n))


def _quarter(state: list, a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl(state[b] ^ state[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte keystream block (RFC 7539 §2.3)."""
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    if not 0 <= counter <= _MASK:
        raise ValueError("counter out of range")
    init = list(_CONSTANTS)
    init.extend(struct.unpack("<8I", key))
    init.append(counter)
    init.extend(struct.unpack("<3I", nonce))

    state = init.copy()
    for _ in range(10):
        _quarter(state, 0, 4, 8, 12)
        _quarter(state, 1, 5, 9, 13)
        _quarter(state, 2, 6, 10, 14)
        _quarter(state, 3, 7, 11, 15)
        _quarter(state, 0, 5, 10, 15)
        _quarter(state, 1, 6, 11, 12)
        _quarter(state, 2, 7, 8, 13)
        _quarter(state, 3, 4, 9, 14)
    return struct.pack("<16I", *((s + i) & _MASK for s, i in zip(state, init)))


def _quarter_lanes(a: int, b: int, c: int, d: int, mask: int) -> tuple:
    """:func:`_quarter` on every lane at once; ``mask`` keeps 32 bits of each."""
    a = (a + b) & mask
    d ^= a
    d = ((d << 16) | (d >> 16)) & mask
    c = (c + d) & mask
    b ^= c
    b = ((b << 12) | (b >> 20)) & mask
    a = (a + b) & mask
    d ^= a
    d = ((d << 8) | (d >> 24)) & mask
    c = (c + d) & mask
    b ^= c
    b = ((b << 7) | (b >> 25)) & mask
    return a, b, c, d


def _keystream(fixed: tuple, counter: int, nonce: tuple, nblocks: int) -> array:
    """Blocks ``counter .. counter + nblocks - 1``, in order, as 8-byte units.

    ``fixed`` is state words 0-11 (constants and key), ``nonce`` words 13-15.
    """
    lanes = (1 << (64 * nblocks)) - 1
    ones = _ONES & lanes
    mask = ones * _MASK
    init = [word * ones for word in fixed]
    init.append(counter * ones + (_RAMP & lanes))
    init.extend(word * ones for word in nonce)
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = init
    for _ in range(10):
        x0, x4, x8, x12 = _quarter_lanes(x0, x4, x8, x12, mask)
        x1, x5, x9, x13 = _quarter_lanes(x1, x5, x9, x13, mask)
        x2, x6, x10, x14 = _quarter_lanes(x2, x6, x10, x14, mask)
        x3, x7, x11, x15 = _quarter_lanes(x3, x7, x11, x15, mask)
        x0, x5, x10, x15 = _quarter_lanes(x0, x5, x10, x15, mask)
        x1, x6, x11, x12 = _quarter_lanes(x1, x6, x11, x12, mask)
        x2, x7, x8, x13 = _quarter_lanes(x2, x7, x8, x13, mask)
        x3, x4, x9, x14 = _quarter_lanes(x3, x4, x9, x14, mask)
    state = (x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15)
    words = [(x + i) & mask for x, i in zip(state, init)]
    # Two words fill a lane: lane i of pair j is bytes 8j..8j+7 of block i.
    # The strided assignments move opaque 8-byte units, so the host's byte
    # order never enters (the ints are read and written little-endian).
    stream = array("Q", bytes(64 * nblocks))
    for j in range(8):
        pair = words[2 * j] | (words[2 * j + 1] << 32)
        stream[j::8] = array("Q", pair.to_bytes(8 * nblocks, "little"))
    return stream


def chacha20_xor(key: bytes, counter: int, nonce: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt bytes-like ``data`` (XOR with the keystream, RFC 7539 §2.4)."""
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    data = memoryview(data).cast("B")
    last = counter + max((len(data) + 63) // 64, 1) - 1
    if not 0 <= counter <= last <= _MASK:
        raise ValueError("counter out of range")
    fixed = _CONSTANTS + struct.unpack("<8I", key)
    nonce_words = struct.unpack("<3I", nonce)
    out = []
    for start in range(0, len(data), 64 * _LANES):
        chunk = data[start : start + 64 * _LANES]
        size = len(chunk)
        stream = _keystream(fixed, counter + start // 64, nonce_words, (size + 63) // 64)
        keystream = int.from_bytes(memoryview(stream).cast("B")[:size], "little")
        out.append((int.from_bytes(chunk, "little") ^ keystream).to_bytes(size, "little"))
    return b"".join(out)

