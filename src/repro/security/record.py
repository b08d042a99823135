"""Record layer: encrypt-then-MAC with sequence-number replay protection.

Each direction has an independent ChaCha20 key and HMAC-SHA256 key derived
by the handshake key schedule.  Records are sealed as::

    ciphertext || mac16

where ``mac16 = HMAC-SHA256(mac_key, seq8 || ciphertext)[:16]`` and the
64-bit sequence number increments per record on each side.  The transport
(TCP) preserves order, so a mismatched or replayed record fails the MAC.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

from .chacha20 import ChaCha20

__all__ = ["RecordError", "RecordCipher", "SecureSession", "MAC_LEN"]

MAC_LEN = 16


class RecordError(Exception):
    """MAC failure, replay, or malformed record."""


class RecordCipher:
    """One direction of a secure channel."""

    def __init__(self, enc_key: bytes, mac_key: bytes):
        if len(enc_key) != 32 or len(mac_key) != 32:
            raise ValueError("keys must be 32 bytes")
        self._cipher = ChaCha20(enc_key)
        #: keyed once; each record MACs on a copy
        self._hmac = hmac.new(mac_key, digestmod=hashlib.sha256)
        self.seq = 0

    def _mac(self, seq: int, ciphertext) -> bytes:
        mac = self._hmac.copy()
        mac.update(struct.pack("!Q", seq))
        mac.update(ciphertext)
        return mac.digest()[:MAC_LEN]

    def seal(self, plaintext: bytes) -> bytes:
        """Encrypt and authenticate one record."""
        seq = self.seq
        self.seq += 1
        ciphertext = self._cipher.process(seq, plaintext)
        return ciphertext + self._mac(seq, ciphertext)

    def open(self, record: bytes) -> bytes:
        """Verify and decrypt one record; raises :class:`RecordError`."""
        if len(record) < MAC_LEN:
            raise RecordError("record shorter than its MAC")
        view = memoryview(record)
        ciphertext, mac = view[:-MAC_LEN], view[-MAC_LEN:]
        seq = self.seq
        if not hmac.compare_digest(mac, self._mac(seq, ciphertext)):
            raise RecordError(f"MAC failure on record {seq}")
        self.seq += 1
        return self._cipher.process(seq, ciphertext)


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
