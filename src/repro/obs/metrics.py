"""Process-wide metrics: counters, gauges and fixed-bucket histograms.

The registry is the measurable substrate the ROADMAP asks for: every
subsystem (simnet drivers, brokering, the relay, the IPL, the live
backend) reports into one :class:`MetricsRegistry`, keyed by
``(name, labels)``.  Instruments are plain Python objects with O(1)
update paths, so they stay on even in hot loops; time only enters
through an injectable *clock* so the same registry works under simulated
time (``lambda: sim.now``) and wall-clock time (the default) — the grid
monitoring slot of the paper's Figure 5 needs both.

Conventions (see ``docs/OBSERVABILITY.md``):

* counter names end in ``_total`` (monotonic) — ``driver.bytes_total``;
* gauges carry a point-in-time value plus the clock reading when it was
  last set — ``path.rtt_seconds``;
* histograms have *fixed* upper-bound buckets chosen at family creation
  (``DEFAULT_BYTE_BUCKETS`` / ``DEFAULT_SECONDS_BUCKETS``), so merging
  and exporting never requires rebinning.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Callable, Iterable, Optional

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
]

#: upper bounds for byte-size histograms (message / block sizes)
DEFAULT_BYTE_BUCKETS = (
    64,
    256,
    1024,
    4096,
    16384,
    65536,
    262144,
    1048576,
    4194304,
)

#: upper bounds for duration histograms (establishment, probes)
DEFAULT_SECONDS_BUCKETS = (
    0.001,
    0.005,
    0.025,
    0.1,
    0.25,
    1.0,
    5.0,
    30.0,
    120.0,
)


class MetricError(Exception):
    """Inconsistent metric usage (kind clash, bucket clash, ...)."""


def _label_key(labels: dict) -> tuple:
    """A label set as one flat ``(k1, v1, k2, v2, ...)`` tuple, in label-name
    order: keyword order makes no second instrument, keys sort as pairs would."""
    return sum(sorted(labels.items()), ())


def _key_labels(key: tuple) -> dict:
    return dict(zip(key[::2], key[1::2]))


class _Instrument:
    """What every instrument keeps of its identity: name and label key."""

    __slots__ = ("name", "_key")

    def __init__(self, name: str, key: tuple):
        self.name = name
        self._key = key
        self._reset()  # an instrument starts as reset() leaves it

    @property
    def labels(self) -> dict:
        """The label set as a fresh dict, rebuilt from the key on every read."""
        return _key_labels(self._key)


class Counter(_Instrument):
    """A monotonically increasing count (events, bytes, attempts)."""

    kind = "counter"
    __slots__ = ("value",)

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease")
        self.value += amount

    def _reset(self) -> None:
        self.value = 0

    def _snapshot(self) -> dict:
        return {"value": self.value}


class Gauge(_Instrument):
    """A point-in-time value; remembers the clock reading when set."""

    kind = "gauge"
    __slots__ = ("value", "updated_at", "_clock")

    def __init__(self, name: str, key: tuple, clock: Callable[[], float]):
        self._clock = clock
        super().__init__(name, key)

    def set(self, value: float) -> None:
        self.value = value
        self.updated_at = self._clock()

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def _reset(self) -> None:
        self.value = 0.0
        self.updated_at = None

    def _snapshot(self) -> dict:
        return {"value": self.value, "updated_at": self.updated_at}


class Histogram(_Instrument):
    """Fixed-bucket distribution; the last bucket is the +inf overflow."""

    kind = "histogram"
    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, name: str, key: tuple, buckets: tuple):
        self.buckets = buckets
        super().__init__(name, key)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_counts(self) -> list:
        """``[(upper_bound, count), ...]`` with ``"inf"`` for overflow."""
        bounds = list(self.buckets) + ["inf"]
        return list(zip(bounds, self.counts))

    def _reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def _snapshot(self) -> dict:
        # copy the bucket counts first and derive ``count`` from the
        # copy: a concurrent observe() may land between the two reads,
        # and buckets summing to count is an invariant telemetry checks
        counts = list(self.counts)
        bounds = list(self.buckets) + ["inf"]
        return {
            "count": sum(counts),
            "sum": self.sum,
            "buckets": [[b, c] for b, c in zip(bounds, counts)],
        }


class _Family:
    """All instruments sharing one metric name (same kind, same buckets)."""

    __slots__ = ("name", "kind", "buckets", "children")

    def __init__(self, name: str, kind: str, buckets: Optional[tuple]):
        self.name = name
        self.kind = kind
        self.buckets = buckets
        self.children: dict = {}


class MetricsRegistry:
    """The process-wide instrument store, keyed by ``(name, labels)``.

    Asking twice for the same name and label set returns the *same*
    instrument — that is what makes scattered instrumentation sites
    accumulate into one coherent view.  ``clock`` is any zero-argument
    callable returning a float; pass ``lambda: sim.now`` to timestamp
    gauges in simulated time.

    Structure mutation (family/instrument creation) and structure
    iteration (:meth:`snapshot`, :meth:`instruments`, :meth:`reset`,
    ...) are guarded by a lock, so a telemetry publisher may snapshot
    from one thread while the live backend registers instruments in
    another; asking for an instrument that already exists takes no lock.
    Updates on an *existing* instrument (``inc``/``observe``)
    stay lock-free: they are single attribute writes the snapshot path
    tolerates being torn against (a histogram snapshot may run one
    observation behind on ``sum`` — never corrupt).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or time.time
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- clock ---------------------------------------------------------------
    def now(self) -> float:
        return self._clock()

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Rebind the registry clock (e.g. to a new simulator's time)."""
        with self._lock:
            self._clock = clock
            for family in self._families.values():
                if family.kind == "gauge":
                    for gauge in family.children.values():
                        gauge._clock = clock

    # -- instrument access ---------------------------------------------------
    def _family(self, name: str, kind: str, buckets=None, default=None) -> _Family:
        """The family for ``name``, made on first ask; a hit takes no lock."""
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    made = default if buckets is None else buckets
                    family = self._families[name] = _Family(name, kind, made)
        if family.kind != kind:
            raise MetricError(
                f"metric {name!r} already registered as a {family.kind}"
            )
        if buckets is not None and buckets != family.buckets:
            raise MetricError(f"metric {name!r} already has different buckets")
        return family

    def _child(self, family: _Family, labels: dict, cls, *extra):
        """The family's one instrument for ``labels``, made on first ask as
        ``cls(name, key, *extra)``; a hit reads one dict and takes no lock."""
        key = _label_key(labels)
        child = family.children.get(key)
        if child is None:
            with self._lock:
                child = family.children.get(key)
                if child is None:
                    child = family.children[key] = cls(family.name, key, *extra)
        return child

    def counter(self, name: str, **labels) -> Counter:
        return self._child(self._family(name, "counter"), labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        family = self._family(name, "gauge")
        return self._child(family, labels, Gauge, self._clock)

    def histogram(
        self, name: str, buckets: Optional[Iterable[float]] = None, **labels
    ) -> Histogram:
        fixed = tuple(buckets) if buckets is not None else None
        family = self._family(name, "histogram", fixed, DEFAULT_BYTE_BUCKETS)
        return self._child(family, labels, Histogram, family.buckets)

    # -- inspection ----------------------------------------------------------
    def get(self, name: str, **labels):
        """The existing instrument for ``(name, labels)``, or None."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            return family.children.get(_label_key(labels))

    def instruments(self, name: Optional[str] = None) -> list:
        """Every instrument, or every instrument of one family."""
        with self._lock:
            if name is not None:
                family = self._families.get(name)
                return list(family.children.values()) if family else []
            return [
                child
                for family in self._families.values()
                for child in family.children.values()
            ]

    def names(self) -> list:
        with self._lock:
            return sorted(self._families)

    def snapshot(self) -> list:
        """A JSON-able dump: one record per instrument, sorted by key."""
        records = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                for key in sorted(family.children):
                    child = family.children[key]
                    record = {
                        "type": "metric",
                        "kind": family.kind,
                        "name": name,
                        "labels": _key_labels(key),
                    }
                    record.update(child._snapshot())
                    records.append(record)
        return records

    def reset(self) -> None:
        """Zero every instrument, keeping families and label sets."""
        with self._lock:
            for family in self._families.values():
                for child in family.children.values():
                    child._reset()

    def clear(self) -> None:
        """Forget every family and instrument."""
        with self._lock:
            self._families.clear()
