"""Fair scheduling of channel transmission over one shared link.

Whoever holds the endpoint's write turn (a writer or the TX pump)
repeatedly asks its scheduler which *ready* channel (has buffered data AND
positive credit) may send the next DATA frame.  Two policies ship:

* :class:`RoundRobinScheduler` — equal turns; no channel sends a second
  frame while another ready channel waits.  This is the default, and is
  what the chaos fairness invariant measures: one bulk transfer cannot
  starve service-link traffic (MPWide's fixed-pool scheduling shape).
* :class:`WeightedScheduler` — deficit round robin: each turn a channel
  accrues ``weight * quantum`` byte credit and may send while its
  deficit lasts, so a weight-3 channel gets ~3x the bytes of a weight-1
  channel under contention, while still never starving anyone.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["Scheduler", "RoundRobinScheduler", "WeightedScheduler",
           "make_scheduler"]


class Scheduler:
    """Base scheduler: tracks ready channels, picks the next to send."""

    def add(self, channel_id: int, weight: int = 1) -> None:
        raise NotImplementedError

    def remove(self, channel_id: int) -> None:
        raise NotImplementedError

    def set_ready(self, channel_id: int, ready: bool) -> None:
        raise NotImplementedError

    def pick(self) -> int:
        """The channel id that sends next; raises LookupError if none ready."""
        raise NotImplementedError

    def sent(self, channel_id: int, nbytes: int) -> None:
        """Account ``nbytes`` just sent on ``channel_id`` (hook for DRR)."""

    def any_ready(self) -> bool:
        """Some channel is marked ready: :meth:`pick` would name one."""
        raise NotImplementedError

    def lone(self) -> bool:
        """The channel :meth:`pick` just named is the only ready one: it
        delays nobody, so its turn may carry a whole write instead of one
        interleaving quantum.  False is always safe."""
        return False


class RoundRobinScheduler(Scheduler):
    """Strict round robin over ready channels (insertion order, rotated)."""

    def __init__(self):
        self._ready: "OrderedDict[int, None]" = OrderedDict()

    def add(self, channel_id: int, weight: int = 1) -> None:
        pass  # membership is implied by readiness

    def remove(self, channel_id: int) -> None:
        self._ready.pop(channel_id, None)

    def set_ready(self, channel_id: int, ready: bool) -> None:
        if ready:
            # keep the existing queue position for an already-ready channel
            self._ready.setdefault(channel_id, None)
        else:
            self._ready.pop(channel_id, None)

    def pick(self) -> int:
        if not self._ready:
            raise LookupError("no ready channel")
        cid, _ = self._ready.popitem(last=False)
        self._ready[cid] = None  # move to the back: it sends, others go first
        return cid

    def any_ready(self) -> bool:
        return bool(self._ready)

    def lone(self) -> bool:
        return len(self._ready) == 1


class WeightedScheduler(Scheduler):
    """Deficit round robin: bytes proportional to weight under contention."""

    def __init__(self, quantum: int = 16384):
        self.quantum = quantum
        self._weights: dict[int, int] = {}
        self._deficit: dict[int, int] = {}
        self._ready: "OrderedDict[int, None]" = OrderedDict()

    def add(self, channel_id: int, weight: int = 1) -> None:
        self._weights[channel_id] = max(1, int(weight))
        self._deficit.setdefault(channel_id, 0)

    def remove(self, channel_id: int) -> None:
        self._weights.pop(channel_id, None)
        self._deficit.pop(channel_id, None)
        self._ready.pop(channel_id, None)

    def set_ready(self, channel_id: int, ready: bool) -> None:
        if ready:
            self._weights.setdefault(channel_id, 1)
            self._deficit.setdefault(channel_id, 0)
            self._ready.setdefault(channel_id, None)
        else:
            self._ready.pop(channel_id, None)
            # an idle channel must not bank credit for later bursts
            self._deficit[channel_id] = 0

    def pick(self) -> int:
        if not self._ready:
            raise LookupError("no ready channel")
        # rotate until a channel with positive deficit comes up, topping
        # up deficits as channels pass the head — O(ready) per pick worst
        # case, constant amortized
        for _ in range(len(self._ready) + 1):
            cid = next(iter(self._ready))
            if self._deficit.get(cid, 0) > 0:
                return cid
            self._deficit[cid] = self._deficit.get(cid, 0) + (
                self._weights.get(cid, 1) * self.quantum
            )
            self._ready.move_to_end(cid)
        return next(iter(self._ready))

    def any_ready(self) -> bool:
        return bool(self._ready)

    def lone(self) -> bool:
        return len(self._ready) == 1

    def sent(self, channel_id: int, nbytes: int) -> None:
        if channel_id in self._deficit:
            self._deficit[channel_id] -= nbytes
            if self._deficit[channel_id] <= 0 and channel_id in self._ready:
                self._ready.move_to_end(channel_id)


def make_scheduler(name: str) -> Scheduler:
    """Scheduler from its wire name (``rr`` default, ``drr`` weighted)."""
    if name in ("", "rr", "round_robin"):
        return RoundRobinScheduler()
    if name in ("drr", "weighted"):
        return WeightedScheduler()
    raise ValueError(f"unknown mux scheduler {name!r}")
