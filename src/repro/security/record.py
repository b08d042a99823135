"""Record layer: encrypt-then-MAC with sequence-number replay protection.

Each direction has its own 32-byte encryption and HMAC-SHA256 keys from the
handshake key schedule.  A record is::

    (plaintext XOR SHAKE-256(label || enc_key || seq8)) || mac16

with ``mac16 = HMAC-SHA256(mac_key, seq8 || ciphertext)[:16]`` and a 64-bit
sequence number per direction.  Both primitives run in C; the construction
is this project's own, not RFC 7539 (docs/PROTOCOLS.md §7).  TCP preserves
order, so a replayed or reordered record fails the MAC, which is checked
before any decryption.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

__all__ = ["RecordError", "RecordCipher", "SecureSession", "MAC_LEN"]

MAC_LEN = 16
_LABEL = b"repro-record keystream v1"
_SEQ = struct.Struct("!Q")


class RecordError(Exception):
    """MAC failure, replay, or malformed record."""


class RecordCipher:
    """One direction of a secure channel."""

    def __init__(self, enc_key: bytes, mac_key: bytes):
        if len(enc_key) != 32 or len(mac_key) != 32:
            raise ValueError("keys must be 32 bytes")
        #: label and key absorbed once; each record squeezes a copy
        self._xof = hashlib.shake_256(_LABEL + enc_key)
        #: keyed once; each record MACs on a copy
        self._hmac = hmac.new(mac_key, digestmod=hashlib.sha256)
        self.seq = 0

    def _keystream(self, seq8: bytes, size: int) -> bytes:
        xof = self._xof.copy()
        xof.update(seq8)
        return xof.digest(size)

    def _xor(self, seq8: bytes, data) -> bytes:
        size = len(data)
        stream = int.from_bytes(self._keystream(seq8, size), "little")
        return (int.from_bytes(data, "little") ^ stream).to_bytes(size, "little")

    def _mac(self, seq8: bytes, ciphertext) -> bytes:
        mac = self._hmac.copy()
        mac.update(seq8)
        mac.update(ciphertext)
        return mac.digest()[:MAC_LEN]

    def seal(self, plaintext: bytes) -> bytes:
        """Encrypt and authenticate one record."""
        seq8 = _SEQ.pack(self.seq)
        self.seq += 1
        ciphertext = self._xor(seq8, memoryview(plaintext).cast("B"))
        return ciphertext + self._mac(seq8, ciphertext)

    def open(self, record: bytes) -> bytes:
        """Verify and decrypt one record; raises :class:`RecordError`."""
        view = memoryview(record).cast("B")
        if len(view) < MAC_LEN:
            raise RecordError("record shorter than its MAC")
        ciphertext, mac = view[:-MAC_LEN], view[-MAC_LEN:]
        seq = self.seq
        seq8 = _SEQ.pack(seq)
        if not hmac.compare_digest(mac, self._mac(seq8, ciphertext)):
            raise RecordError(f"MAC failure on record {seq}")
        self.seq += 1
        return self._xor(seq8, ciphertext)


class SecureSession:
    """A full-duplex secure channel produced by a completed handshake."""

    def __init__(
        self,
        send_cipher: RecordCipher,
        recv_cipher: RecordCipher,
        peer_subject: str | None,
        role: str,
    ):
        self._send = send_cipher
        self._recv = recv_cipher
        #: authenticated identity of the peer (None if anonymous)
        self.peer_subject = peer_subject
        self.role = role

    def seal(self, plaintext: bytes) -> bytes:
        return self._send.seal(plaintext)

    def open(self, record: bytes) -> bytes:
        return self._recv.open(record)

    @property
    def overhead(self) -> int:
        """Per-record byte overhead."""
        return MAC_LEN
