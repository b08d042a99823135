"""Post-establishment verification.

After a brokered attempt produces a raw connection, both ends exchange
cookies derived from the negotiation nonce.  This confirms that (a) the
connection reached the intended peer (not a stale or colliding socket) and
(b) *both* directions work — a half-open spliced connect through a
standards-noncompliant NAT (one side established, the other reset) fails
here and triggers fall-back, matching the paper's observed behaviour (§6).
"""

from __future__ import annotations

import hashlib
from types import coroutine
from typing import Generator

__all__ = ["initiator_cookie", "responder_cookie", "verify_initiator", "verify_responder", "VerifyError", "COOKIE_LEN"]

COOKIE_LEN = 16


class VerifyError(Exception):
    """The peer did not present the expected cookie."""


def initiator_cookie(nonce: int) -> bytes:
    return hashlib.sha256(b"init" + nonce.to_bytes(8, "big")).digest()[:COOKIE_LEN]


def responder_cookie(nonce: int) -> bytes:
    return hashlib.sha256(b"resp" + nonce.to_bytes(8, "big")).digest()[:COOKIE_LEN]


@coroutine
def verify_initiator(stream, nonce: int) -> Generator:
    """Initiator half of the cookie exchange (send, then expect)."""
    yield from stream.send_all(initiator_cookie(nonce))
    got = yield from stream.recv_exactly(COOKIE_LEN)
    if got != responder_cookie(nonce):
        raise VerifyError("responder cookie mismatch")


@coroutine
def verify_responder(stream, nonce: int) -> Generator:
    """Responder half of the cookie exchange (expect, then send)."""
    got = yield from stream.recv_exactly(COOKIE_LEN)
    if got != initiator_cookie(nonce):
        raise VerifyError("initiator cookie mismatch")
    yield from stream.send_all(responder_cookie(nonce))
