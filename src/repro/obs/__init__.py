"""Unified observability: metrics + structured tracing for every backend.

The paper's §8 future work combines the communication mechanisms with
grid monitoring so method selection and parameter adaptation can be
automated; this package is the substrate that makes the stack *visible*
enough for that.  One process-wide :class:`MetricsRegistry` accumulates
counters, gauges and fixed-bucket histograms from the simulated drivers,
the brokering layer, the relay, the IPL ports and the asyncio live
backend alike; an optional :class:`TraceRecorder` captures structured
spans and events (establishment attempts, decision-tree fallbacks,
driver-stack assembly, relay hops, per-message send/receive).

Typical use::

    from repro import obs

    obs.enable_tracing()                  # wall clock; scenarios rebind
    ...run a scenario or a live transfer...
    obs.export_jsonl("run.jsonl")         # metrics + trace, one file
    # then: python -m repro.obs.report run.jsonl

Everything is always-on but cheap: metric updates are O(1) attribute
arithmetic, and :func:`span`/:func:`event` collapse to no-ops while
tracing is disabled.  See ``docs/OBSERVABILITY.md`` for the metric
naming scheme and the trace-event schema.
"""

from __future__ import annotations

from typing import Callable, Optional

from .context import (
    TraceContext,
    current,
    fmt_id,
    is_id,
    next_id,
    seed_ids,
    set_current,
    use,
)
from .export import (
    SCHEMA_VERSION,
    SchemaError,
    export_jsonl,
    iter_jsonl,
    read_jsonl,
    validate_jsonl,
    validate_record,
)
from .flight import FlightRecorder
from .meters import SeriesRecorder, TransferMeter, mb_per_s
from .metrics import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from .trace import (
    Span,
    TraceRecorder,
    disable_tracing,
    enable_tracing,
    event,
    record_span,
    set_tracer,
    span,
    tracer,
)
from .telemetry import (  # noqa: E402  (needs .trace imported first)
    SLO,
    TelemetryAggregator,
    TelemetryLog,
    TelemetryPublisher,
    read_telemetry_jsonl,
    replay_deltas,
    sli_counter_increase,
    sli_counter_rate,
    sli_gauge,
    sli_histogram_mean,
    sli_proxy_drift,
    telemetry_violations,
    write_telemetry_jsonl,
)

__all__ = [
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
    "get_registry",
    "set_registry",
    "metrics",
    # tracing
    "TraceRecorder",
    "Span",
    "enable_tracing",
    "disable_tracing",
    "set_tracer",
    "tracer",
    "span",
    "event",
    "record_span",
    # causal context
    "TraceContext",
    "current",
    "use",
    "set_current",
    "seed_ids",
    "next_id",
    "fmt_id",
    "is_id",
    # flight recorder
    "FlightRecorder",
    # clocks
    "use_sim_clock",
    # export / report
    "export_jsonl",
    "read_jsonl",
    "iter_jsonl",
    "validate_record",
    "validate_jsonl",
    "SchemaError",
    "SCHEMA_VERSION",
    # measurement helpers
    "TransferMeter",
    "SeriesRecorder",
    "mb_per_s",
    # streaming telemetry
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

_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry all instrumentation reports to."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install a fresh registry (tests); returns the previous one."""
    global _registry
    previous, _registry = _registry, registry
    return previous


def metrics() -> MetricsRegistry:
    """Alias for :func:`get_registry` (reads better at call sites)."""
    return _registry


def use_sim_clock(sim) -> None:
    """Bind the registry (and active recorder) to ``sim.now``.

    :class:`~repro.core.scenarios.GridScenario` calls this on
    construction, so metrics and traces from simulated runs carry
    simulated timestamps without any per-site wiring.  Live (asyncio)
    runs never call it and stay on the wall clock.
    """
    clock: Callable[[], float] = lambda: sim.now
    _registry.set_clock(clock)
    recorder: Optional[TraceRecorder] = tracer()
    if recorder is not None:
        recorder.set_clock(clock)
