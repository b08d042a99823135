"""Point-to-point link model: delay, bandwidth, queueing, loss.

Each :class:`Link` joins two interfaces and carries traffic independently in
each direction through a :class:`Transmitter`:

* packets wait in a finite drop-tail queue (bytes-bounded);
* the head packet occupies the wire for ``size / bandwidth`` seconds
  (serialization delay);
* delivery happens one propagation ``delay`` later;
* Bernoulli loss with probability ``loss`` is applied per packet, after
  serialization (the packet consumed wire time, then vanished — like real
  corruption/drop in flight).

Determinism: each transmitter draws from its own ``random.Random`` seeded
from the link's seed, so runs are reproducible.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Optional

from .engine import Simulator
from .packet import Segment

__all__ = ["Link", "Transmitter", "LinkStats"]


class LinkStats:
    """Per-direction link counters."""

    __slots__ = (
        "tx_packets",
        "tx_bytes",
        "delivered_packets",
        "delivered_bytes",
        "drops_queue",
        "drops_loss",
        "drops_down",
    )

    def __init__(self):
        self.tx_packets = 0
        self.tx_bytes = 0
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.drops_queue = 0
        self.drops_loss = 0
        self.drops_down = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LinkStats {self.as_dict()}>"


class Transmitter:
    """One direction of a link."""

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        bandwidth: float,
        queue_bytes: int,
        loss: float,
        rng: random.Random,
        name: str = "",
        jitter: float = 0.0,
    ):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth}")
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {loss}")
        if jitter < 0:
            raise ValueError(f"negative jitter: {jitter}")
        self.sim = sim
        self.delay = delay
        self.bandwidth = bandwidth
        self.queue_bytes = queue_bytes
        self.loss = loss
        self.rng = rng
        self.name = name
        #: uniform extra propagation delay in [0, jitter): values larger
        #: than a packet's serialization time cause genuine reordering
        self.jitter = jitter
        self.deliver: Optional[Callable[[Segment], None]] = None
        #: fault-injection hook: while True, serialized packets vanish
        #: (a flapped/cut link) — see :meth:`Link.set_down`
        self.down = False
        #: (segment, on-wire size) pairs; the head one is on the wire
        self._queue: deque[tuple[Segment, int]] = deque()
        self._queued_bytes = 0
        self.stats = LinkStats()

    def transmit(self, segment: Segment) -> None:
        """Enqueue ``segment`` for transmission (drop-tail)."""
        size = segment.size
        if self._queued_bytes + size > self.queue_bytes:
            self.stats.drops_queue += 1
            return
        queue = self._queue
        if not queue:  # idle wire: this one goes on it at once
            self.sim.call_later(size / self.bandwidth, self._serialized)
        queue.append((segment, size))
        self._queued_bytes += size

    def _serialized(self) -> None:
        queue, stats = self._queue, self.stats
        segment, size = queue.popleft()
        self._queued_bytes -= size
        stats.tx_packets += 1
        stats.tx_bytes += size
        if self.down:
            stats.drops_down += 1
        elif self.loss and self.rng.random() < self.loss:
            stats.drops_loss += 1
        else:
            extra = self.rng.random() * self.jitter if self.jitter else 0.0
            self.sim.call_later(self.delay + extra, self._arrive, segment, size)
        if queue:
            self.sim.call_later(queue[0][1] / self.bandwidth, self._serialized)

    def _arrive(self, segment: Segment, size: int) -> None:
        stats = self.stats
        stats.delivered_packets += 1
        stats.delivered_bytes += size
        if self.deliver is not None:
            self.deliver(segment)

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently waiting (including the packet on the wire)."""
        return self._queued_bytes


class Link:
    """A bidirectional point-to-point link between two interfaces.

    Parameters
    ----------
    delay:
        One-way propagation delay in seconds (a→b direction).
    bandwidth:
        Serialization rate in bytes/second (per direction).
    queue_bytes:
        Drop-tail queue capacity in bytes (per direction).  Defaults to
        roughly one bandwidth-delay product, floored at 64 KiB, which gives
        realistic router buffering.
    loss:
        Per-packet Bernoulli loss probability.
    seed:
        Seed for the per-direction RNGs.
    delay_back:
        One-way propagation delay of the b→a direction.  Defaults to
        ``delay`` (a symmetric link).  Real WAN paths are often
        asymmetric; the RTT both fidelity tiers agree on is always the
        explicit sum :attr:`rtt` = ``delay_ab + delay_ba``, never
        ``2 * delay``.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        bandwidth: float,
        queue_bytes: Optional[int] = None,
        loss: float = 0.0,
        seed: int = 0,
        name: str = "link",
        jitter: float = 0.0,
        delay_back: Optional[float] = None,
    ):
        self.sim = sim
        self.name = name
        if delay_back is None:
            delay_back = delay
        if queue_bytes is None:
            queue_bytes = max(65536, int(bandwidth * max(delay, delay_back)))
        self.a_to_b = Transmitter(
            sim, delay, bandwidth, queue_bytes, loss,
            random.Random(f"{seed}:{name}:a"), name=f"{name}:a->b",
            jitter=jitter,
        )
        self.b_to_a = Transmitter(
            sim, delay_back, bandwidth, queue_bytes, loss,
            random.Random(f"{seed}:{name}:b"), name=f"{name}:b->a",
            jitter=jitter,
        )

    def connect(self, iface_a, iface_b) -> None:
        """Wire both directions to interfaces (see topology.Interface)."""
        iface_a.attach(self, self.a_to_b)
        iface_b.attach(self, self.b_to_a)
        self.a_to_b.deliver = iface_b.receive
        self.b_to_a.deliver = iface_a.receive

    def set_down(self, down: bool) -> None:
        """Cut (or restore) both directions of the link.

        While down, packets still occupy the wire for their serialization
        time and are then dropped — a clean model of a flapped WAN link.
        TCP retransmission recovers transparently once the link heals.
        """
        self.a_to_b.down = down
        self.b_to_a.down = down

    @property
    def down(self) -> bool:
        return self.a_to_b.down and self.b_to_a.down

    @property
    def delay_ab(self) -> float:
        """Propagation delay of the a→b direction."""
        return self.a_to_b.delay

    @property
    def delay_ba(self) -> float:
        """Propagation delay of the b→a direction."""
        return self.b_to_a.delay

    @property
    def rtt(self) -> float:
        """Round-trip propagation time: the *sum* of the two halves.

        Use this (never ``2 * delay``) wherever an RTT is derived from a
        topology, so asymmetric links give the same answer on the packet
        and flow fidelity tiers.
        """
        return self.a_to_b.delay + self.b_to_a.delay

    @property
    def delay(self) -> float:
        """The a→b delay — only meaningful on symmetric links.

        Asymmetric links must use :attr:`delay_ab` / :attr:`delay_ba`;
        this accessor raises when the halves differ rather than silently
        reporting half a wrong RTT.
        """
        if self.a_to_b.delay != self.b_to_a.delay:
            raise ValueError(
                f"link {self.name} is asymmetric "
                f"({self.a_to_b.delay}s / {self.b_to_a.delay}s); "
                "use delay_ab/delay_ba or rtt"
            )
        return self.a_to_b.delay

    @property
    def bandwidth(self) -> float:
        return self.a_to_b.bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Link {self.name} delay={self.delay}s "
            f"bw={self.bandwidth:.0f}B/s>"
        )
