"""TunePlanner: signals in, a knob plan out (paper §8 future work).

"Also, parameter adaptation, like selection of the optimal number of
parallel TCP streams or the dynamic enabling or disabling of compression
will then become possible."  This module is the *pure* half of the
closed-loop tuner: given one :class:`~repro.tune.signals.LinkSignals`
sample it derives target values for every knob the stack exposes —
parallel-stream count, compression mode, socket/replay buffer sizes and
the mux credit window.  The :class:`~repro.tune.loop.LinkTuner` loop
adds time: hysteresis, deadbands and reversible application.

It absorbs the one-shot formulas that previously lived in
``repro.core.autotune``:

* a single stream's throughput is capped at ``rcvbuf / RTT`` (§4.2), so
  filling a pipe of a given bandwidth-delay product needs
  ``ceil(BDP / rcvbuf)`` streams;
* :data:`HEADROOM` covers the congestion-avoidance sawtooth (the
  long-run average window sits around 3/4 of its peak);
* **new here**: a per-path *loss-derived* headroom
  (:func:`loss_headroom`) — on lossy paths each stream spends part of
  its life recovering, so extra streams keep the pipe full through
  recovery episodes.  The loss factor is applied *before* the
  ``max_streams`` clamp (the old formula clamped first, so a lossy
  near-capacity path could never earn its recovery streams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .signals import LinkSignals

__all__ = [
    "HEADROOM",
    "estimate_bdp",
    "loss_headroom",
    "recommend_streams",
    "TunerPolicy",
    "TunePlan",
    "TunePlanner",
]

#: sawtooth/recovery headroom: the long-run average congestion window sits
#: around 3/4 of its peak, so over-provision by the inverse
HEADROOM = 4.0 / 3.0

#: gain of the loss-derived headroom: extra provisioning grows with
#: sqrt(loss) (Mathis: per-stream throughput shrinks ~ 1/sqrt(loss))
LOSS_GAIN = 8.0

#: cap on the loss multiplier — beyond this, loss is a path problem more
#: streams cannot buy back
LOSS_HEADROOM_MAX = 2.0


def estimate_bdp(capacity: float, rtt: float) -> float:
    """Bandwidth-delay product in bytes."""
    if capacity <= 0 or rtt <= 0:
        raise ValueError("capacity and rtt must be positive")
    return capacity * rtt


def loss_headroom(loss_rate: float) -> float:
    """Extra stream provisioning for a lossy path, as a multiplier >= 1.

    ``1 + LOSS_GAIN * sqrt(loss)``, capped at :data:`LOSS_HEADROOM_MAX`:
    at the paper's Amsterdam–Rennes loss (0.25%) this is ~1.4x — the
    "only loss resilience argues for more streams" case — while a clean
    path pays nothing.
    """
    if loss_rate < 0 or loss_rate >= 1:
        raise ValueError(f"loss_rate must be in [0, 1): {loss_rate}")
    if loss_rate == 0:
        return 1.0
    return min(1.0 + LOSS_GAIN * math.sqrt(loss_rate), LOSS_HEADROOM_MAX)


def recommend_streams(
    capacity: float,
    rtt: float,
    rcvbuf: int = 65536,
    max_streams: int = 16,
    loss_rate: float = 0.0,
) -> int:
    """Number of parallel TCP streams to fill the given path.

    ``capacity`` in bytes/s, ``rtt`` in seconds, ``rcvbuf`` the per-stream
    OS socket buffer limit.  The loss-derived headroom is applied before
    the ``max_streams`` clamp, so a lossy path saturating the clamp is
    clamped once, at the end — not pre-clamped and then denied its
    recovery streams.
    """
    if rcvbuf <= 0:
        raise ValueError("rcvbuf must be positive")
    bdp = estimate_bdp(capacity, rtt)
    streams = math.ceil(bdp * HEADROOM * loss_headroom(loss_rate) / rcvbuf)
    return max(1, min(streams, max_streams))


@dataclass
class TunerPolicy:
    """A sender pacing policy: the classic rollout-gated config knob.

    It is the shape of "a config the gate pushes", and the tuner plans
    against the same stack, so it lives with the planner.
    """

    name: str
    pace: float   # seconds between chunks
    chunk: int    # bytes per chunk

    @property
    def rate(self) -> float:
        return self.chunk / self.pace


def _clamp(value: float, lo: int, hi: int) -> int:
    return max(lo, min(int(value), hi))


@dataclass
class TunePlan:
    """Target knob values derived from one signal sample.

    ``knobs()`` yields ``(name, value)`` for every knob with a target;
    ``None`` means "no opinion" (the loop leaves that knob alone).
    """

    streams: Optional[int] = None
    compress: Optional[str] = None        # "on" | "off" | "auto"
    rcvbuf: Optional[int] = None
    replay_buffer: Optional[int] = None
    mux_window: Optional[int] = None
    #: why (capacity estimate used, window-limited escalation, ...)
    attrs: dict = field(default_factory=dict)

    def knobs(self):
        for name in ("streams", "compress", "rcvbuf", "replay_buffer",
                     "mux_window"):
            value = getattr(self, name)
            if value is not None:
                yield name, value

    def as_dict(self) -> dict:
        return {name: value for name, value in self.knobs()}


class TunePlanner:
    """Derive a :class:`TunePlan` from measured link signals.

    * **streams** — the BDP rule over the capacity estimate, with loss
      headroom.  When the achieved goodput sits near the aggregate
      window bound (``streams * rcvbuf / rtt``) the path is
      *window-limited*: the true capacity is above what we can see, so
      the estimate is escalated (the closed-loop version of
      :class:`~repro.core.monitor.PathMonitor`'s multi-stream probe).
    * **compress** — follows the adaptive driver's measured preference
      when one exists, or the CPU-rate/payload-ratio crossover when
      those are known; otherwise stays ``auto`` (ε-greedy probing).
    * **rcvbuf** — grows only when the stream clamp saturates and the
      path is still capacity-starved (more streams cannot be added, so
      each must carry a bigger window).
    * **replay_buffer** — ~2 BDPs so a session can keep sending through
      one full unacknowledged round trip, bounded to sane sizes.
    * **mux_window** — ~1 BDP of credit per channel (with sawtooth
      headroom) so flow control never throttles below the path; grown
      further while credit stalls are observed.
    """

    def __init__(
        self,
        rcvbuf: int = 65536,
        max_streams: int = 16,
        max_rcvbuf: int = 1 << 22,
        window_limited_threshold: float = 0.75,
        escalation: float = 1.5,
        replay_factor: float = 2.0,
        min_replay: int = 1 << 16,
        max_replay: int = 1 << 22,
        min_mux_window: int = 1 << 14,
        max_mux_window: int = 1 << 20,
        compress_margin: float = 1.1,
    ):
        self.rcvbuf = rcvbuf
        self.max_streams = max_streams
        self.max_rcvbuf = max_rcvbuf
        self.window_limited_threshold = window_limited_threshold
        self.escalation = escalation
        self.replay_factor = replay_factor
        self.min_replay = min_replay
        self.max_replay = max_replay
        self.min_mux_window = min_mux_window
        self.max_mux_window = max_mux_window
        self.compress_margin = compress_margin

    # -- capacity ----------------------------------------------------------
    def capacity_estimate(self, signals: "LinkSignals") -> tuple[float, bool]:
        """Best capacity guess plus whether it was window-escalated."""
        capacity = max(signals.capacity or 0.0, signals.goodput or 0.0)
        if capacity <= 0 or signals.rtt <= 0:
            return capacity, False
        streams = max(signals.streams_active or 1, 1)
        window_bound = streams * self.rcvbuf / signals.rtt
        goodput = signals.goodput or 0.0
        if goodput >= self.window_limited_threshold * window_bound:
            # The windows, not the pipe, are the visible limit: the real
            # capacity is somewhere above — escalate so the stream count
            # grows and the next sample can see further.
            return max(capacity, goodput * self.escalation), True
        return capacity, False

    # -- the plan ----------------------------------------------------------
    def plan(self, signals: "LinkSignals") -> TunePlan:
        plan = TunePlan()
        if signals.rtt <= 0:
            return plan
        capacity, escalated = self.capacity_estimate(signals)
        if capacity <= 0:
            return plan
        loss = min(max(signals.loss_rate or 0.0, 0.0), 0.5)
        bdp = capacity * signals.rtt
        plan.streams = recommend_streams(
            capacity, signals.rtt, self.rcvbuf,
            max_streams=self.max_streams, loss_rate=loss,
        )
        # rcvbuf: only interesting once the stream clamp saturates and
        # the unclamped demand still exceeds what max_streams can carry.
        demand = bdp * HEADROOM * loss_headroom(loss)
        if plan.streams >= self.max_streams and demand > self.max_streams * self.rcvbuf:
            plan.rcvbuf = _clamp(
                1 << math.ceil(math.log2(demand / self.max_streams)),
                self.rcvbuf, self.max_rcvbuf,
            )
        else:
            plan.rcvbuf = self.rcvbuf
        plan.replay_buffer = _clamp(
            self.replay_factor * bdp, self.min_replay, self.max_replay
        )
        window = bdp * HEADROOM
        if (signals.credit_stall_rate or 0.0) > 0:
            window *= self.escalation
        plan.mux_window = _clamp(window, self.min_mux_window,
                                 self.max_mux_window)
        plan.compress = self._plan_compress(signals, capacity, plan.streams)
        plan.attrs = {
            "capacity_bps": capacity,
            "bdp_bytes": bdp,
            "loss_headroom": loss_headroom(loss),
            "window_escalated": escalated,
        }
        return plan

    def _plan_compress(
        self, signals: "LinkSignals", capacity: float, streams: int
    ) -> str:
        if signals.compress_preference in ("raw", "compress"):
            # The adaptive driver has measured both modes under
            # saturation: trust it.
            return "on" if signals.compress_preference == "compress" else "off"
        if signals.compress_rate is not None and signals.payload_ratio:
            wire = min(capacity, streams * (self.rcvbuf / signals.rtt))
            compressed = min(signals.compress_rate,
                             signals.payload_ratio * wire)
            return "on" if compressed > self.compress_margin * wire else "off"
        return "auto"
