"""Noise harness: host-speed sampling, the estimator, process facts.

The sandbox this benchmark was sized on flips between a fast CPU state
and a slow one 20-30 % behind it, each lasting 5 to 30 s; the slow state
also wanders by the second.  A pure-Python loop, a ``socketpair``
ping-pong and every workload move together (README, "Noise").  So a
fixed probe made of those two runs every 50 ms *during* the
measurements, from a timer signal, and each wall-clock value is reported at the
reference host speed: scaled by how much slower than
:data:`REFERENCE_MS` the probes inside its own interval ran.
"""

from __future__ import annotations

import bisect
import resource
import signal
import socket
import statistics
import time

__all__ = [
    "HostSpeed",
    "REFERENCE_MS",
    "Sample",
    "Estimate",
    "spread_share",
    "peak_rss_mb",
]

#: the probe's duration at which a wall-clock value is reported unscaled:
#: about what it takes in the sizing sandbox's fast state
REFERENCE_MS = 1.2

_SPIN_ITERATIONS = 20_000
_PING_PONGS = 300
_PROBE_INTERVAL_S = 0.05
#: probes either side of an interval that count towards it: an interval
#: shorter than the probe period still gets some, and a longer one a
#: steadier mean (a state lasts seconds; this is +-0.3 s)
_NEIGHBOURS = 6


class HostSpeed:
    """Probes the host's speed every 50 ms, inside whatever is running.

    A probe is fixed interpreter work plus fixed syscall work (a Python
    loop, then a ``socketpair`` ping-pong): the two things every workload
    here is made of.  It runs in the ``SIGALRM`` handler, that is on the
    measuring thread between two bytecodes of the code being measured, so
    it sees the speed that code sees, and costs every workload the same
    ~3 %.
    """

    def __init__(self):
        self._ends: list[float] = []
        self.probes_ms: list[float] = []
        self._pair = socket.socketpair()

    def _probe(self, _signum=None, _frame=None) -> None:
        a, b = self._pair
        start = time.perf_counter()
        total = 0
        for i in range(_SPIN_ITERATIONS):
            total += i * i
        for _ in range(_PING_PONGS):
            a.send(b"x")
            b.recv(1)
            b.send(b"y")
            a.recv(1)
        end = time.perf_counter()
        self._ends.append(end)
        self.probes_ms.append((end - start) * 1e3)

    def __enter__(self) -> "HostSpeed":
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, _PROBE_INTERVAL_S, _PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for sock in self._pair:
            sock.close()

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the reference the host ran in
        ``[start, end]`` (``time.perf_counter`` seconds)."""
        if not self._ends:
            raise RuntimeError("the host-speed sampler was never started")
        low = max(bisect.bisect_left(self._ends, start) - _NEIGHBOURS, 0)
        high = bisect.bisect_right(self._ends, end) + _NEIGHBOURS
        window = self.probes_ms[low:high]
        # a probe that was itself preempted says nothing about speed; the
        # slow state is within 1.3x of the fast one and must pass
        ceiling = 2 * statistics.median(window)
        return statistics.fmean(min(p, ceiling) for p in window) / REFERENCE_MS

    def sample(self, value: float, start: float, end: float) -> "Sample":
        return Sample(value, self.slowdown(start, end))


class Sample:
    """One measured value and how slow the host was while it was taken."""

    __slots__ = ("value", "slowdown")

    def __init__(self, value: float, slowdown: float):
        self.value = value
        self.slowdown = slowdown

    def at_reference(self, better: str) -> float:
        """The value the reference host would have measured."""
        if better == "higher":
            return self.value * self.slowdown
        return self.value / self.slowdown


class Estimate:
    """Median of values at reference speed; quartiles and best beside it.

    Best-of-N was the first candidate and lost: on the sizing host the
    fast state shows up in some runs and not others, so the best round
    spread 11-13 % between runs where this median spread 1.5-5 %.
    """

    def __init__(self, scaled: list, raw: list, better: str):
        if not scaled:
            raise ValueError("no samples to estimate from")
        self.scaled = scaled
        self.raw = raw
        self.better = better
        self.value = statistics.median(scaled)

    @classmethod
    def of(cls, samples: list, better: str) -> "Estimate":
        return cls(
            [s.at_reference(better) for s in samples],
            [s.value for s in samples],
            better,
        )

    def converted(self, convert, better: str) -> "Estimate":
        """The same rounds in another unit (ms from s, MB/s from s per set)."""
        return Estimate(
            [convert(v) for v in self.scaled], [convert(v) for v in self.raw], better
        )

    @property
    def best(self) -> float:
        return (max if self.better == "higher" else min)(self.scaled)

    @property
    def iqr_share(self) -> float:
        return spread_share(self.scaled)

    def describe(self) -> str:
        return (
            f"n={len(self.raw)} best={self.best:.6g} "
            f"raw_median={statistics.median(self.raw):.6g} "
            f"iqr={100 * self.iqr_share:.1f}%"
        )


def spread_share(values: list) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB) in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
