"""Streaming telemetry: periodic delta snapshots, sliding-window SLIs,
declarative SLO monitors.

The export layer (:mod:`repro.obs.export`) is *export-at-end*: nothing
can observe a run while it is happening, which blocks both closed-loop
autotuning and staged rollout (the paper's §8 "combine with grid
monitoring" future work).  This module is the live substrate:

* a :class:`TelemetryPublisher` periodically snapshots a
  :class:`~repro.obs.metrics.MetricsRegistry` and emits **delta
  records** — monotonic counter deltas, gauge samples, histogram bucket
  deltas — on a configurable interval, ticked by
  :meth:`TelemetryPublisher.run` on either runtime (a simulator process
  or an asyncio task);
* a :class:`TelemetryAggregator` merges any number of per-source
  streams into sliding windows, computes **SLIs** over them (throughput,
  establishment latency, resume counts, mux credit stalls, mesh
  convergence lag, proxy byte-conservation drift — see the ``sli_*``
  factories) and evaluates declarative :class:`SLO` monitors that emit
  ``slo.breach`` / ``slo.clear`` events into the trace;
* :func:`replay_deltas` folds a delta stream back into the final
  registry snapshot (exactly — the property the test suite pins), and
  :func:`telemetry_violations` is the chaos-invariant check that a
  captured stream is internally consistent.

Record shape (shares the JSONL schema with the other obs record types;
``python -m repro.obs.watch`` tails these)::

    {"type": "telemetry", "source": "alice", "seq": 3, "ts": 12.5,
     "interval": 0.5,
     "counters":   [[name, labels, delta], ...],
     "gauges":     [[name, labels, value, updated_at], ...],
     "histograms": [[name, labels, count_delta, count, sum,
                     [per-bucket deltas...], [bounds...]], ...]}

Counters and histogram bucket counts are **deltas** (ints, exact);
histogram ``count``/``sum`` and gauges are **absolute** (floating-point
sums do not delta exactly, so the absolute value rides along and replay
is reconstruction, not accumulation).  Zero-delta instruments are
omitted, so a steady-state record is a cheap heartbeat.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from . import event as obs_event
from .metrics import MetricsRegistry, _key_labels, _label_key

__all__ = [
    "TelemetryPublisher",
    "TelemetryLog",
    "TelemetryAggregator",
    "SLO",
    "replay_deltas",
    "telemetry_violations",
    "write_telemetry_jsonl",
    "read_telemetry_jsonl",
    "sli_counter_rate",
    "sli_counter_increase",
    "sli_gauge",
    "sli_histogram_mean",
    "sli_proxy_drift",
]

#: default publish interval (seconds, in the publisher's clock domain)
DEFAULT_INTERVAL = 0.5

#: default aggregator sliding-window span (seconds)
DEFAULT_WINDOW = 10.0


# ---------------------------------------------------------------------------
# publisher
# ---------------------------------------------------------------------------


class TelemetryPublisher:
    """Periodic delta snapshots of one registry, tagged with a source.

    ``select`` optionally narrows the stream to the instruments one
    *source* (a node, a relay, a proxy) owns: a callable
    ``select(name, labels) -> bool``.  Two publishers with disjoint
    selections stream disjoint instruments, which is what lets every
    node of a scenario publish "its" metrics out of the one process-wide
    registry.

    The publisher is backend-agnostic: :meth:`publish` computes and
    emits one record; :meth:`run` ticks it on whichever runtime
    (:mod:`repro.core.runtime`) it is handed.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        source: str,
        interval: float = DEFAULT_INTERVAL,
        clock: Optional[Callable[[], float]] = None,
        select: Optional[Callable[[str, dict], bool]] = None,
    ):
        if interval <= 0:
            raise ValueError(f"telemetry interval must be positive: {interval}")
        self.registry = registry
        self.source = source
        self.interval = interval
        self._clock = clock or registry.now
        self._select = select
        self._sinks: list[Callable[[dict], None]] = []
        self._prev: dict[tuple, dict] = {}
        self.seq = 0
        self._running = False

    def add_sink(self, sink: Callable[[dict], None]) -> "TelemetryPublisher":
        """Register a record consumer (aggregator ingest, log append)."""
        self._sinks.append(sink)
        return self

    # -- one tick ----------------------------------------------------------
    def publish(self) -> dict:
        """Snapshot, compute the delta record, emit it to every sink."""
        self.seq += 1
        record = {
            "type": "telemetry",
            "source": self.source,
            "seq": self.seq,
            "ts": self._clock(),
            "interval": self.interval,
            "counters": [],
            "gauges": [],
            "histograms": [],
        }
        for snap in self.registry.snapshot():
            name, labels = snap["name"], snap["labels"]
            if self._select is not None and not self._select(name, labels):
                continue
            key = (name, _label_key(labels))
            prev = self._prev.get(key)
            if snap["kind"] == "counter":
                last = prev["value"] if prev else 0
                delta = snap["value"] - last
                if delta < 0:
                    # the registry was reset under us: re-baseline
                    delta = snap["value"]
                    record["rebased"] = True
                if delta:
                    record["counters"].append([name, labels, delta])
            elif snap["kind"] == "gauge":
                changed = prev is None or (
                    prev["value"] != snap["value"]
                    or prev["updated_at"] != snap["updated_at"]
                )
                if changed and snap["updated_at"] is not None:
                    record["gauges"].append(
                        [name, labels, snap["value"], snap["updated_at"]]
                    )
            else:  # histogram
                counts = [c for _b, c in snap["buckets"]]
                last = [c for _b, c in prev["buckets"]] if prev else [0] * len(counts)
                deltas = [c - p for c, p in zip(counts, last)]
                count_delta = snap["count"] - (prev["count"] if prev else 0)
                if count_delta < 0 or any(d < 0 for d in deltas):
                    deltas = counts
                    count_delta = snap["count"]
                    record["rebased"] = True
                if count_delta:
                    bounds = [b for b, _c in snap["buckets"][:-1]]
                    record["histograms"].append(
                        [
                            name,
                            labels,
                            count_delta,
                            snap["count"],
                            snap["sum"],
                            deltas,
                            bounds,
                        ]
                    )
            self._prev[key] = snap
        for sink in self._sinks:
            sink(record)
        return record

    # -- drivers -----------------------------------------------------------
    async def run(self, runtime):
        """Publish every ``interval`` on ``runtime`` until :meth:`stop`;
        the tick pending at the stop ends the task without publishing."""
        self._running = True
        while True:
            await runtime.sleep(self.interval)
            if not self._running:
                return
            self.publish()

    def stop(self, flush: bool = True) -> None:
        """Stop the driver; ``flush`` emits one final delta record."""
        was_running = self._running
        self._running = False
        if flush and was_running:
            self.publish()


class TelemetryLog:
    """A retaining sink: every record, in arrival order, exportable."""

    def __init__(self):
        self.records: list[dict] = []

    def __call__(self, record: dict) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def for_source(self, source: str) -> list[dict]:
        return [r for r in self.records if r["source"] == source]

    def sources(self) -> list[str]:
        return sorted({r["source"] for r in self.records})

    def write_jsonl(self, path: str) -> int:
        return write_telemetry_jsonl(path, self.records)


def write_telemetry_jsonl(path: str, records: Iterable[dict]) -> int:
    """Write a telemetry stream as JSON lines (meta header first)."""
    from .export import SCHEMA_VERSION

    n = 1
    with open(path, "w", encoding="utf-8") as out:
        out.write(
            json.dumps(
                {"type": "meta", "schema": SCHEMA_VERSION, "stream": "telemetry"},
                sort_keys=True,
            )
            + "\n"
        )
        for record in records:
            out.write(json.dumps(record, sort_keys=True) + "\n")
            n += 1
    return n


def read_telemetry_jsonl(path: str) -> list[dict]:
    """Parse a JSONL file, keeping only the telemetry records."""
    from .export import iter_jsonl

    return [r for r in iter_jsonl(path) if r.get("type") == "telemetry"]


# ---------------------------------------------------------------------------
# replay + consistency checks
# ---------------------------------------------------------------------------


def replay_deltas(records: Iterable[dict], source: Optional[str] = None) -> list:
    """Fold one source's delta stream back into registry-snapshot records.

    Returns the same shape as :meth:`MetricsRegistry.snapshot` (sorted
    ``metric`` records), so a captured stream and the registry it came
    from can be compared for exact equality.  ``source`` filters a
    multi-source stream; replaying *overlapping* sources (two publishers
    selecting the same instrument) would double-count — stream per
    source, or select disjointly.
    """
    counters: dict[tuple, int] = {}
    gauges: dict[tuple, tuple] = {}
    hists: dict[tuple, dict] = {}
    for record in records:
        if record.get("type") != "telemetry":
            continue
        if source is not None and record["source"] != source:
            continue
        for name, labels, delta in record["counters"]:
            key = (name, _label_key(labels))
            counters[key] = counters.get(key, 0) + delta
        for name, labels, value, updated_at in record["gauges"]:
            key = (name, _label_key(labels))
            gauges[key] = (value, updated_at)
        for name, labels, count_delta, count, total, deltas, bounds in record[
            "histograms"
        ]:
            key = (name, _label_key(labels))
            h = hists.setdefault(
                key, {"counts": [0] * len(deltas), "bounds": bounds}
            )
            h["counts"] = [c + d for c, d in zip(h["counts"], deltas)]
            h["count"] = count
            h["sum"] = total
    out = []
    for (name, label_key), value in counters.items():
        out.append(
            {
                "type": "metric",
                "kind": "counter",
                "name": name,
                "labels": _key_labels(label_key),
                "value": value,
            }
        )
    for (name, label_key), (value, updated_at) in gauges.items():
        out.append(
            {
                "type": "metric",
                "kind": "gauge",
                "name": name,
                "labels": _key_labels(label_key),
                "value": value,
                "updated_at": updated_at,
            }
        )
    for (name, label_key), h in hists.items():
        bounds = list(h["bounds"]) + ["inf"]
        out.append(
            {
                "type": "metric",
                "kind": "histogram",
                "name": name,
                "labels": _key_labels(label_key),
                "count": h["count"],
                "sum": h["sum"],
                "buckets": [[b, c] for b, c in zip(bounds, h["counts"])],
            }
        )
    out.sort(key=lambda r: (r["name"], _label_key(r["labels"])))
    return out


def telemetry_violations(records: Iterable[dict]) -> list[str]:
    """Consistency checks over a captured stream (chaos invariant).

    * per-source ``seq`` is strictly increasing and gap-free;
    * counter deltas are never negative (counters never regress);
    * histogram bucket deltas sum to the count delta, and the absolute
      ``count`` matches the accumulated bucket counts.
    """
    out: list[str] = []
    seq_seen: dict[str, int] = {}
    hist_counts: dict[tuple, int] = {}
    for record in records:
        if record.get("type") != "telemetry":
            continue
        source = record["source"]
        last = seq_seen.get(source, 0)
        if record["seq"] != last + 1:
            out.append(
                f"telemetry[{source}]: seq {record['seq']} follows {last} "
                "(gap or regression)"
            )
        seq_seen[source] = record["seq"]
        for name, labels, delta in record["counters"]:
            if delta < 0:
                out.append(
                    f"telemetry[{source}]: counter {name}{labels} "
                    f"regressed by {-delta}"
                )
        for name, labels, count_delta, count, _sum, deltas, _bounds in record[
            "histograms"
        ]:
            if sum(deltas) != count_delta:
                out.append(
                    f"telemetry[{source}]: histogram {name}{labels} bucket "
                    f"deltas sum to {sum(deltas)}, count delta is {count_delta}"
                )
            key = (source, name, _label_key(labels))
            hist_counts[key] = hist_counts.get(key, 0) + count_delta
            if hist_counts[key] != count:
                out.append(
                    f"telemetry[{source}]: histogram {name}{labels} absolute "
                    f"count {count} != accumulated deltas {hist_counts[key]}"
                )
    return out


# ---------------------------------------------------------------------------
# SLIs
# ---------------------------------------------------------------------------


def _window_span(records: list[dict]) -> float:
    """Seconds of activity a window of records covers."""
    if not records:
        return 0.0
    return records[-1]["ts"] - records[0]["ts"] + records[0]["interval"]


def _match(labels: dict, want: dict) -> bool:
    return all(labels.get(k) == v for k, v in want.items())


def sli_counter_rate(name: str, **labels) -> Callable[[list], Optional[float]]:
    """Per-second rate of a counter over the window (e.g. throughput).

    Returns ``None`` (no signal) until the counter has appeared in the
    window at least once: zero-delta instruments are omitted from the
    records, so an empty window cannot distinguish "idle by design"
    from "not yet reporting" — judging it as a zero rate would breach
    every throughput SLO during startup.  A *slowed* source still emits
    entries and is judged; a fully silent one is a staleness problem
    (``seq``/``last_ts``), not a rate of zero.
    """

    def sli(records: list[dict]) -> Optional[float]:
        span = _window_span(records)
        if span <= 0:
            return None
        total = 0
        matched = False
        for record in records:
            for cname, clabels, delta in record["counters"]:
                if cname == name and _match(clabels, labels):
                    total += delta
                    matched = True
        return total / span if matched else None

    return sli


def sli_counter_increase(name: str, **labels) -> Callable[[list], Optional[float]]:
    """Total increase of a counter over the window (e.g. session resumes)."""

    def sli(records: list[dict]) -> Optional[float]:
        if not records:
            return None
        total = 0
        for record in records:
            for cname, clabels, delta in record["counters"]:
                if cname == name and _match(clabels, labels):
                    total += delta
        return float(total)

    return sli


def sli_gauge(name: str, **labels) -> Callable[[list], Optional[float]]:
    """Latest sampled value of a gauge (e.g. mesh convergence lag)."""

    def sli(records: list[dict]) -> Optional[float]:
        latest: Optional[tuple] = None
        for record in records:
            for gname, glabels, value, updated_at in record["gauges"]:
                if gname == name and _match(glabels, labels):
                    if latest is None or updated_at >= latest[0]:
                        latest = (updated_at, value)
        return latest[1] if latest is not None else None

    return sli


def sli_histogram_mean(name: str, **labels) -> Callable[[list], Optional[float]]:
    """Mean of a histogram's observations within the window.

    Histogram records carry absolute ``count``/``sum``, so the window
    mean is the difference between the last and first matching records.
    The first record's own observations count only when it is the
    stream's opening record (``count == count_delta``, base exactly
    zero); otherwise the base is that record's absolutes and its delta
    falls off the left edge — exact either way, never smeared.
    """

    def sli(records: list[dict]) -> Optional[float]:
        base: Optional[tuple] = None
        last: Optional[tuple] = None
        for record in records:
            for entry in record["histograms"]:
                hname, hlabels, count_delta, count, total = entry[:5]
                if hname == name and _match(hlabels, labels):
                    if base is None:
                        if count == count_delta:
                            base = (0, 0.0)
                        else:
                            base = (count, total)
                    last = (count, total)
        if base is None or last is None:
            return None
        n = last[0] - base[0]
        if n <= 0:
            return None
        return (last[1] - base[1]) / n

    return sli


def sli_proxy_drift(site: Optional[str] = None) -> Callable[[list], Optional[float]]:
    """Proxy byte-conservation drift over the window.

    ``bytes_in - (forwarded + dropped + lost)`` accumulated across the
    window's deltas: persistent positive drift means the proxy is eating
    bytes it never accounts for (in-flight bytes make small transients
    normal — threshold with slack).
    """
    labels = {"proxy": site} if site is not None else {}
    rate_in = sli_counter_increase("proxy.bytes_in_total", **labels)
    outs = [
        sli_counter_increase("proxy.bytes_forwarded_total", **labels),
        sli_counter_increase("proxy.bytes_dropped_total", **labels),
        sli_counter_increase("proxy.bytes_lost_total", **labels),
    ]

    def sli(records: list[dict]) -> Optional[float]:
        came_in = rate_in(records)
        if came_in is None:
            return None
        gone = sum(f(records) or 0.0 for f in outs)
        return came_in - gone

    return sli


# ---------------------------------------------------------------------------
# SLOs + aggregator
# ---------------------------------------------------------------------------

_OPS = {
    ">=": lambda value, threshold: value >= threshold,
    "<=": lambda value, threshold: value <= threshold,
}


@dataclass
class SLO:
    """A declarative objective: an SLI must satisfy ``op threshold``.

    ``for_seconds`` is the sustain requirement: the SLI must sit on the
    wrong side of the threshold for at least that long (of telemetry
    time) before a breach fires — a single bad window sample is noise,
    not an incident.
    """

    name: str
    sli: Callable[[list], Optional[float]]
    threshold: float
    op: str = ">="
    for_seconds: float = 0.0

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown SLO op {self.op!r} (>=|<=)")

    def healthy(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)


@dataclass
class Breach:
    """One sustained SLO violation on one source."""

    source: str
    slo: str
    started: float
    detected: float
    value: float
    threshold: float
    cleared: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "source": self.source,
            "slo": self.slo,
            "started": self.started,
            "detected": self.detected,
            "value": self.value,
            "threshold": self.threshold,
            "cleared": self.cleared,
        }


@dataclass
class _SourceState:
    records: list = field(default_factory=list)
    pending: dict = field(default_factory=dict)   # slo name -> first bad ts
    active: dict = field(default_factory=dict)    # slo name -> Breach


class TelemetryAggregator:
    """Merges per-source telemetry streams into sliding-window health.

    Feed it as a publisher sink (``publisher.add_sink(agg.ingest)``) or
    replay a captured JSONL through :meth:`ingest`.  Each ingest evicts
    records older than ``window`` seconds for that source and evaluates
    every registered :class:`SLO` against the refreshed window; sustained
    violations become :class:`Breach` entries and ``slo.breach`` trace
    events (``slo.clear`` when the SLI recovers).

    :meth:`retire` marks a source as *expected to go quiet* (its stream
    ended cleanly) so end-of-stream decay does not read as an outage.
    """

    def __init__(self, window: float = DEFAULT_WINDOW):
        if window <= 0:
            raise ValueError(f"telemetry window must be positive: {window}")
        self.window = window
        self.slos: list[SLO] = []
        self.breaches: list[Breach] = []
        self._sources: dict[str, _SourceState] = {}
        self._retired: set[str] = set()

    # -- configuration -----------------------------------------------------
    def add_slo(self, slo: SLO) -> "TelemetryAggregator":
        self.slos.append(slo)
        return self

    def retire(self, source: str) -> None:
        """Stop SLO evaluation for a source that finished cleanly."""
        self._retired.add(source)
        state = self._sources.get(source)
        if state is not None:
            state.pending.clear()

    # -- ingest ------------------------------------------------------------
    def ingest(self, record: dict) -> None:
        if record.get("type") != "telemetry":
            raise ValueError(f"not a telemetry record: {record.get('type')!r}")
        source = record["source"]
        state = self._sources.setdefault(source, _SourceState())
        state.records.append(record)
        horizon = record["ts"] - self.window
        while state.records and state.records[0]["ts"] < horizon:
            state.records.pop(0)
        if source not in self._retired:
            self._evaluate(source, state, record["ts"])

    def _evaluate(self, source: str, state: _SourceState, now: float) -> None:
        for slo in self.slos:
            value = slo.sli(state.records)
            if value is None:
                state.pending.pop(slo.name, None)
                continue
            if slo.healthy(value):
                state.pending.pop(slo.name, None)
                breach = state.active.pop(slo.name, None)
                if breach is not None:
                    breach.cleared = now
                    obs_event(
                        "slo.clear", source=source, slo=slo.name,
                        value=value, threshold=slo.threshold,
                    )
                continue
            if slo.name in state.active:
                continue
            started = state.pending.setdefault(slo.name, now)
            if now - started >= slo.for_seconds:
                breach = Breach(
                    source=source, slo=slo.name, started=started,
                    detected=now, value=value, threshold=slo.threshold,
                )
                state.active[slo.name] = breach
                self.breaches.append(breach)
                obs_event(
                    "slo.breach", source=source, slo=slo.name,
                    value=value, threshold=slo.threshold,
                )

    # -- inspection --------------------------------------------------------
    def sources(self) -> list[str]:
        return sorted(self._sources)

    def window_records(self, source: str) -> list[dict]:
        state = self._sources.get(source)
        return list(state.records) if state is not None else []

    def sli(self, source: str, sli: Callable[[list], Optional[float]]):
        """Evaluate an SLI function against a source's current window."""
        return sli(self.window_records(source))

    def active_breaches(self, source: Optional[str] = None) -> list[Breach]:
        out = []
        for name, state in sorted(self._sources.items()):
            if source is not None and name != source:
                continue
            out.extend(state.active.values())
        return out

    def breaches_since(
        self, ts: float, sources: Optional[Iterable[str]] = None
    ) -> list[Breach]:
        """Breaches whose bad stretch *started* at or after ``ts``."""
        wanted = set(sources) if sources is not None else None
        return [
            b
            for b in self.breaches
            if b.started >= ts and (wanted is None or b.source in wanted)
        ]

    def health(self, source: str) -> dict:
        """One source's rolling health (the watch CLI's row material)."""
        records = self.window_records(source)
        state = self._sources.get(source)
        last = records[-1] if records else None
        rates: dict[str, float] = {}
        span = _window_span(records)
        if span > 0:
            totals: dict[str, int] = {}
            for record in records:
                for name, _labels, delta in record["counters"]:
                    totals[name] = totals.get(name, 0) + delta
            rates = {name: total / span for name, total in totals.items()}
        return {
            "source": source,
            "seq": last["seq"] if last else 0,
            "last_ts": last["ts"] if last else None,
            "records": len(records),
            "rates": rates,
            "retired": source in self._retired,
            "breaches": [
                b.as_dict() for b in (state.active.values() if state else ())
            ],
        }
