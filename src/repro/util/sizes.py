"""The size chain of the layered stack, derived top-down in one place.

Routed messages are the connectivity method of last resort and the relay
is their bottleneck (paper §3.4): its cost is per *frame*, so the layers
stacked on a routed link must not multiply frames.  One application block
written once is therefore one frame at every layer below it — a full
frame of layer N is exactly one frame of layer N − 1 — and each layer's
maximum is the one above it plus that layer's own header::

    block (DEFAULT_BLOCK) + driver headers   <= LONE_DATA_PAYLOAD
    u32 prefix + mux DATA header + payload   <= SESSION_MAX_CHUNK
    piggybacked ACK + DATA header + chunk    <= RELAY_MAX_MSG
    routed header + message                  <= MAX_RELAY_FRAME

The cores import their constant from here under the name their protocol
has always used (``mux.core.LONE_DATA_PAYLOAD``,
``session_core.MAX_CHUNK``, ``relay_core.MAX_MSG``); ``docs/PROTOCOLS.md``
has the table.

The control frames' cadence is derived here too, because over a routed
link each CREDIT or standalone ACK is a round trip through the session,
the relay and both transports::

    DEFAULT_WINDOW / 2          >= 8 blocks      (one CREDIT per 8 blocks)
    DEFAULT_WINDOW              >= 2 x paper BDP (9 MB/s x 43 ms ~ 387 KB)
    SESSION_REPLAY_BOUND / 4    >= DEFAULT_WINDOW / 2

A reader grants CREDIT for each half window it consumes, so a lone bulk
channel sends at most one CREDIT per eight blocks, and a window of at
least twice the largest bandwidth-delay product of the paper's WAN links
(Delft–Sophia, §6) keeps one channel from being window-bound on them.  A
session sends an ACK on its own only after a quarter of the sender's
replay bound is delivered unacknowledged; at a quarter no smaller than
half a window, that backstop never fires before the CREDIT the ACK rides
on.
"""

from __future__ import annotations

from .framing import FRAME_HEADER

__all__ = ["DEFAULT_BLOCK", "BLOCK_SLACK", "LONE_DATA_PAYLOAD",
           "DEFAULT_WINDOW", "MUX_DATA_HEADER", "SESSION_MAX_CHUNK",
           "SESSION_REPLAY_BOUND", "SESSION_DATA_HEADER", "SESSION_ACK_SIZE",
           "RELAY_MAX_MSG", "ROUTED_HEADER_BOUND", "MAX_RELAY_FRAME",
           "MIN_TAIL", "cut", "pieces"]

#: what a block channel aggregates before it hands a block to its driver
DEFAULT_BLOCK = 65536
#: room for what drivers put in front of a block before a link sees it
#: (tcp_block's u32, compress's flag byte, a TLS record's nonce and tag)
BLOCK_SLACK = 1024
#: largest mux DATA payload: one block and its driver headers, whole —
#: the quantum of a channel that has the carrier to itself
LONE_DATA_PAYLOAD = DEFAULT_BLOCK + BLOCK_SLACK
#: default per-channel credit window: sixteen header-inclusive blocks, so a
#: block plus its driver header never straddles a fresh window and a half
#: window's CREDIT comes once per eight blocks
DEFAULT_WINDOW = 16 * LONE_DATA_PAYLOAD

#: u8 type, u32 channel, u32 payload length
MUX_DATA_HEADER = 9
#: largest session DATA payload: one full mux frame as its carrier sees it
SESSION_MAX_CHUNK = FRAME_HEADER + MUX_DATA_HEADER + LONE_DATA_PAYLOAD
#: default session replay bound: a quarter of it, the standalone-ACK
#: backstop, is no less than the half window a CREDIT is granted for
SESSION_REPLAY_BOUND = 4 << 20

#: u8 kind, u32 length
SESSION_DATA_HEADER = 5
#: u8 kind, u64 offset — the ACK a DATA frame may carry in front of it
SESSION_ACK_SIZE = 9
#: largest routed payload: one full session DATA frame and its ACK
RELAY_MAX_MSG = SESSION_ACK_SIZE + SESSION_DATA_HEADER + SESSION_MAX_CHUNK

#: kind, ownership flag, two node ids, channel, length, an OPEN's context
ROUTED_HEADER_BOUND = 1024
#: largest frame a relay connection carries
MAX_RELAY_FRAME = RELAY_MAX_MSG + ROUTED_HEADER_BOUND

#: no split leaves less than this behind: a tail pays for a frame of its
#: own at every layer below
MIN_TAIL = 1024


def cut(length: int, limit: int) -> int:
    """How many of ``length`` bytes go into a frame that holds at most
    ``limit``: all of them if they fit, else ``limit`` — less whatever it
    takes for the remainder not to be a runt below :data:`MIN_TAIL` (a
    limit too small to leave two decent pieces is used as it is)."""
    if length <= limit:
        return length
    if length - limit < MIN_TAIL and limit >= 2 * MIN_TAIL:
        return length - MIN_TAIL
    return limit


def pieces(length: int, limit: int):
    """``(start, end)`` of each frame's share of ``length`` bytes, in
    order, every share chosen by :func:`cut`."""
    start = 0
    while start < length:
        end = start + cut(length - start, limit)
        yield start, end
        start = end
