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

A FIFO wire knows when a packet will finish serialising the moment it is
queued, so a transmission is one heap entry: its arrival.  The parameters
in force when the packet *departed* (its last byte left) decide its fate
at that arrival, which is why they change only through
:meth:`Transmitter.retune` — see docs/SIMNET.md, "The hot loop".

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
    """Per-direction link counters.

    A packet is counted in ``tx_*`` and, if it was dropped in flight, in
    ``drops_down`` / ``drops_loss`` when its arrival is due: one ``delay``
    after it departed.
    """

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


def _check(bandwidth: Optional[float], loss: Optional[float]) -> None:
    if bandwidth is not None and bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive: {bandwidth}")
    if loss is not None and not 0.0 <= loss < 1.0:
        raise ValueError(f"loss must be in [0, 1): {loss}")


class Transmitter:
    """One direction of a link.

    ``bandwidth``, ``loss``, ``down`` and ``queue_bytes`` are read-only:
    change them with :meth:`retune`.  ``delay`` is read when a packet is
    queued.
    """

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
        _check(bandwidth, loss)
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        if jitter < 0:
            raise ValueError(f"negative jitter: {jitter}")
        self.sim = sim
        self.delay = delay
        self._bandwidth = bandwidth
        self._queue_bytes = queue_bytes
        self._loss = loss
        self._down = False
        self.rng = rng
        self.name = name
        #: uniform extra propagation delay in [0, jitter): values larger
        #: than a packet's serialization time cause genuine reordering
        self.jitter = jitter
        self.deliver: Optional[Callable[[Segment], None]] = None
        #: ``[segment, size, depart]`` of each packet not yet known to have
        #: departed, in FIFO order; the same list is its arrival's heap
        #: arguments, and a bandwidth retune marks it stale by clearing
        #: ``segment``.  Departed packets leave lazily (:meth:`_settle`).
        self._queue: deque[list] = deque()
        self._queued_bytes = 0
        #: ``(time, down, loss)`` that each retune replaced, oldest first:
        #: a packet that departed before ``time`` decides on those values
        self._replaced: deque[tuple] = deque()
        self.stats = LinkStats()

    @property
    def bandwidth(self) -> float:
        return self._bandwidth

    @property
    def loss(self) -> float:
        return self._loss

    @property
    def down(self) -> bool:
        """Fault-injection state: while True, packets that depart vanish
        (a flapped/cut link) — see :meth:`Link.set_down`."""
        return self._down

    @property
    def queue_bytes(self) -> int:
        return self._queue_bytes

    def transmit(self, segment: Segment) -> None:
        """Enqueue ``segment`` for transmission (drop-tail)."""
        size = segment.size
        sim = self.sim
        now = sim.now
        queue = self._queue
        queued = self._queued_bytes
        while queue and queue[0][2] <= now:  # _settle, inlined
            queued -= queue.popleft()[1]
        if queued + size > self._queue_bytes:
            self._queued_bytes = queued
            self.stats.drops_queue += 1
            return
        self._queued_bytes = queued + size
        # the wire is free when the packet ahead departs, or now if idle;
        # both times are the expressions ``call_later`` computes (engine)
        start = queue[-1][2] if queue else now
        depart = start + ((start + size / self._bandwidth) - start)
        entry = [segment, size, depart]
        queue.append(entry)
        sim.call_exact(
            depart + ((depart + self.delay) - depart), self._arrive, entry
        )

    def _arrive(self, segment: Optional[Segment], size: int, depart: float) -> None:
        if segment is None:  # re-timed by a bandwidth retune
            return
        stats = self.stats
        stats.tx_packets += 1
        stats.tx_bytes += size
        if self._replaced:
            down, loss = self._in_force(depart)
        else:
            down, loss = self._down, self._loss
        if down:
            stats.drops_down += 1
            return
        if loss and self.rng.random() < loss:
            stats.drops_loss += 1
            return
        if self.jitter:
            flight = self.delay + self.rng.random() * self.jitter
            self.sim.call_exact(
                depart + ((depart + flight) - depart), self._deliver, (segment, size)
            )
            return
        # _deliver, inlined: a frame per hop on the hottest path
        stats.delivered_packets += 1
        stats.delivered_bytes += size
        if self.deliver is not None:
            self.deliver(segment)

    def _deliver(self, segment: Segment, size: int) -> None:
        stats = self.stats
        stats.delivered_packets += 1
        stats.delivered_bytes += size
        if self.deliver is not None:
            self.deliver(segment)

    def _in_force(self, depart: float) -> tuple:
        """``(down, loss)`` when a packet left at ``depart``.  Arrivals come
        in departure order, so a change no later than ``depart`` matters to
        no packet still to arrive."""
        replaced = self._replaced
        while replaced and replaced[0][0] <= depart:
            replaced.popleft()
        if replaced:
            return replaced[0][1:]
        return self._down, self._loss

    def _settle(self) -> None:
        queue, now = self._queue, self.sim.now
        while queue and queue[0][2] <= now:
            self._queued_bytes -= queue.popleft()[1]

    def retune(
        self,
        *,
        down: Optional[bool] = None,
        loss: Optional[float] = None,
        bandwidth: Optional[float] = None,
        queue_bytes: Optional[int] = None,
    ) -> None:
        """Change the link from now on; ``None`` keeps a parameter.

        A packet that departed before now still decides on the old
        ``down``/``loss``.  A new ``bandwidth`` leaves the packet on the
        wire alone and re-times the ones queued behind it; ``queue_bytes``
        bounds only later admissions.
        """
        _check(bandwidth, loss)
        now = self.sim.now
        if down is not None or loss is not None:
            self._replaced.append((now, self._down, self._loss))
            if down is not None:
                self._down = down
            if loss is not None:
                self._loss = loss
        if queue_bytes is not None:
            self._queue_bytes = queue_bytes
        if bandwidth is not None and bandwidth != self._bandwidth:
            self._bandwidth = bandwidth
            self._retime()

    def _retime(self) -> None:
        """Re-time every queued packet behind the one on the wire."""
        self._settle()
        queue = self._queue
        if len(queue) < 2:
            return
        start = queue[0][2]
        for i in range(1, len(queue)):
            stale = queue[i]
            segment, size = stale[0], stale[1]
            stale[0] = None
            depart = start + ((start + size / self._bandwidth) - start)
            queue[i] = entry = [segment, size, depart]
            self.sim.call_exact(
                depart + ((depart + self.delay) - depart), self._arrive, entry
            )
            start = depart

    @property
    def backlog_bytes(self) -> int:
        """Bytes that have not finished serialising (including the packet
        on the wire)."""
        self._settle()
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
        asymmetric; the RTT both simulation tiers agree on is always the
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
        self.a_to_b.retune(down=down)
        self.b_to_a.retune(down=down)

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
        and flow simulation tiers.
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

    def __repr__(self) -> str:
        delay = f"{self.delay_ab}s"
        if self.delay_ba != self.delay_ab:
            delay += f"/{self.delay_ba}s"
        return f"<Link {self.name} delay={delay} bw={self.bandwidth:.0f}B/s>"
