"""Causal trace context, propagated on the wire between nodes.

A :class:`TraceContext` is the Dapper-style identity triple
``(trace_id, span_id, parent_id)``.  The *trace_id* names one logical
end-to-end operation (a brokered connect, a routed transfer, an IPL
message); *span_id* names the current unit of work inside it, and
*parent_id* points at the span that caused it.  Every obs record
stamped with the same trace_id — no matter which node produced it —
belongs to the same causal tree, which :mod:`repro.obs.assemble`
reconstructs from per-node JSONL exports.

Two things make this module different from the usual tracing SDK:

* **Ids are deterministic.**  The chaos harness promises byte-identical
  reports for a ``(scenario, seed, plan)`` triple, so ids come from a
  seeded counter (mixed through a fixed 64-bit multiplier for spread),
  not from ``os.urandom`` or the clock.  :func:`seed_ids` resets the
  stream; the chaos runner calls it with the run seed.

* **The wire is authoritative, not an ambient context variable.**  The
  simulator runs nodes as cooperative generator processes in one OS
  thread, so ``contextvars`` cannot isolate per-node context across
  scheduler switches.  :func:`current`/:func:`use` exist for
  *synchronous stretches only* (a driver writing packets inside one
  ``yield from`` chain); anything that crosses a process or host
  boundary must carry the context explicitly in its frames via
  :meth:`TraceContext.encode`.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "TraceContext",
    "WIRE_SIZE",
    "seed_ids",
    "next_id",
    "current",
    "use",
    "set_current",
    "fmt_id",
    "is_id",
]

_CTX = struct.Struct("!QQQ")

#: Encoded size of a context on the wire (three big-endian u64s).
WIRE_SIZE = _CTX.size

# SplitMix64 increment: full-period odd multiplier giving well-spread
# ids from a plain counter without sacrificing determinism.
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

_seq = 0
_seed = 0


def seed_ids(seed: int = 0) -> None:
    """Reset the deterministic id stream (chaos runs call this)."""
    global _seq, _seed
    _seq = 0
    _seed = seed & _MASK


def next_id() -> int:
    """Allocate the next 64-bit id from the deterministic stream."""
    global _seq
    _seq += 1
    z = (_seed + _seq * _MIX) & _MASK
    # finalizer stage borrowed from splitmix64 for avalanche
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) or 1  # ids are never 0 (0 == "absent")


def fmt_id(value: int) -> str:
    """Render an id the way records carry it: 16 lowercase hex digits."""
    return f"{value & _MASK:016x}"


def is_id(value: object) -> bool:
    """Is *value* an id as :func:`fmt_id` renders one: a string of exactly
    16 characters, each one of ``0-9a-f``?  (``int(value, 16)`` is not the
    rule: it also takes a sign, blanks, ``0x`` and underscores.)"""
    return (
        isinstance(value, str)
        and len(value) == 16
        and not value.strip("0123456789abcdef")
    )


class TraceContext:
    """Identity of one unit of work inside a distributed trace."""

    __slots__ = ("trace_id", "span_id", "parent_id")

    #: wire size, mirrored on the class for callers that already import it
    WIRE_SIZE = WIRE_SIZE

    def __init__(self, trace_id: int, span_id: int, parent_id: int = 0):
        self.trace_id = trace_id & _MASK
        self.span_id = span_id & _MASK
        self.parent_id = parent_id & _MASK

    @classmethod
    def new(cls) -> "TraceContext":
        """A fresh root context (new trace, no parent)."""
        trace_id = next_id()
        return cls(trace_id, next_id(), 0)

    def child(self) -> "TraceContext":
        """A child context: same trace, new span parented on this one."""
        return TraceContext(self.trace_id, next_id(), self.span_id)

    def encode(self) -> bytes:
        """Wire form: 24 bytes, three big-endian u64s."""
        return _CTX.pack(self.trace_id, self.span_id, self.parent_id)

    @classmethod
    def decode(cls, data: bytes) -> "TraceContext":
        if len(data) != WIRE_SIZE:
            raise ValueError(
                f"trace context must be {WIRE_SIZE} bytes, got {len(data)}"
            )
        return cls(*_CTX.unpack(data))

    def ids(self) -> dict:
        """The record fields this context stamps onto obs records."""
        out = {"trace_id": fmt_id(self.trace_id), "span_id": fmt_id(self.span_id)}
        if self.parent_id:
            out["parent_id"] = fmt_id(self.parent_id)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.parent_id == other.parent_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.parent_id))

    def __repr__(self) -> str:
        return (
            f"TraceContext({fmt_id(self.trace_id)}, "
            f"{fmt_id(self.span_id)}, parent={fmt_id(self.parent_id)})"
        )


_current: Optional[TraceContext] = None


def current() -> Optional[TraceContext]:
    """The ambient context, if one is in scope.

    Only meaningful within a synchronous stretch of one simulated
    process — the scheduler does not swap it per process.  Wire-carried
    contexts are authoritative; treat this as a best-effort convenience
    for leaf instrumentation (packet tracers, drivers).
    """
    return _current


def set_current(ctx: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install *ctx* as the ambient context; returns the previous one."""
    global _current
    prev = _current
    _current = ctx
    return prev


@contextmanager
def use(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Scope the ambient context to a ``with`` block."""
    prev = set_current(ctx)
    try:
        yield ctx
    finally:
        set_current(prev)
