"""Interval and series measurement helpers (ex ``repro.simnet.stats``).

These predate the metrics registry and remain the convenient tool for
benchmark-style measurement: a :class:`TransferMeter` brackets one
transfer, a :class:`SeriesRecorder` collects the points of one figure
series.  They live here so both backends share them (the old
``repro.simnet.stats`` home is gone).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

__all__ = ["TransferMeter", "SeriesRecorder", "mb_per_s"]


def mb_per_s(nbytes: int, seconds: float) -> float:
    """Throughput in MB/s (1 MB = 1e6 bytes, as the paper reports)."""
    if seconds <= 0:
        return float("inf")
    return nbytes / seconds / 1e6


def _as_clock(clock_or_sim: Union[Callable[[], float], object]) -> Callable[[], float]:
    if callable(clock_or_sim):
        return clock_or_sim
    return lambda: clock_or_sim.now


class TransferMeter:
    """Measures bytes moved between ``start()`` and ``stop()``.

    Accepts either a simulator (anything with a ``.now`` attribute) or a
    zero-argument clock callable, so it works over simulated and
    wall-clock time alike.
    """

    def __init__(self, sim):
        self.sim = sim
        self._clock = _as_clock(sim)
        self.t0: Optional[float] = None
        self.t1: Optional[float] = None
        self.nbytes = 0

    def start(self) -> None:
        self.t0 = self._clock()
        self.t1 = None
        self.nbytes = 0

    def add(self, nbytes: int) -> None:
        self.nbytes += nbytes

    def stop(self) -> None:
        self.t1 = self._clock()

    @property
    def seconds(self) -> float:
        if self.t0 is None:
            raise RuntimeError("meter never started")
        end = self.t1 if self.t1 is not None else self._clock()
        return end - self.t0

    @property
    def throughput(self) -> float:
        """MB/s over the measured interval."""
        return mb_per_s(self.nbytes, self.seconds)


class SeriesRecorder:
    """Collects (x, y) points for a figure series."""

    def __init__(self, name: str):
        self.name = name
        self.points: list[tuple[float, float]] = []

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    def ys(self) -> list[float]:
        return [y for _x, y in self.points]

    def xs(self) -> list[float]:
        return [x for x, _y in self.points]

    def peak(self) -> float:
        return max(self.ys()) if self.points else 0.0
