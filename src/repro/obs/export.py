"""JSON-lines export and schema validation for observability data.

One line per record.  Record types sharing the file (schema v2):

* ``{"type": "meta", "schema": 2, ...}`` — the header; optionally
  carries ``node`` (which node this export belongs to) and drop
  counters.
* ``{"type": "metric", "kind": "counter"|"gauge"|"histogram", "name",
  "labels", ...}`` — counters/gauges carry ``value``; histograms carry
  ``count``, ``sum`` and ``buckets`` (``[[upper_bound, count], ...]``
  with ``"inf"`` as the overflow bound).
* ``{"type": "trace", "kind": "span"|"event"|"packet", "name", "ts",
  "attrs"}`` — spans additionally carry ``duration``; packet records
  are :mod:`repro.simnet.trace` entries lowered into the obs schema.
* ``{"type": "flight", "name", "ts", "node"}`` — flight-recorder ring
  entries (:mod:`repro.obs.flight`), optionally with ``attrs``.
* ``{"type": "telemetry", "source", "seq", "ts", "interval",
  "counters", "gauges", "histograms"}`` — streaming delta snapshots
  (:mod:`repro.obs.telemetry`): counter/bucket entries are deltas since
  the previous record, gauges and histogram ``count``/``sum`` are
  absolute.  Additive in v2 — readers that predate it skip unknown
  record types.

Trace and flight records may carry the causal-identity fields
``trace_id``/``span_id``/``parent_id`` (16 lowercase hex digits) and a
``node`` tag; :mod:`repro.obs.assemble` stitches multiple exports into
span trees on those.  Schema v1 records (no identity fields) remain
valid — the fields are optional.

:func:`validate_record` pins that shape; the smoke test validates whole
exports with :func:`validate_jsonl`, and ``python -m repro.obs.report``
summarizes them.
"""

from __future__ import annotations

import json
from typing import IO, Optional, Union

from .context import is_id
from .flight import FlightRecorder
from .metrics import MetricsRegistry
from .trace import TraceRecorder

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "export_jsonl",
    "read_jsonl",
    "iter_jsonl",
    "validate_record",
    "validate_jsonl",
]

SCHEMA_VERSION = 2

_NUMBER = (int, float)
_ID_FIELDS = ("trace_id", "span_id", "parent_id")


class SchemaError(Exception):
    """An exported record does not match the observability schema."""


def _records(
    registry: Optional[MetricsRegistry],
    recorder: Optional[TraceRecorder],
    node: Optional[str],
    flight: Optional[FlightRecorder],
):
    header = {"type": "meta", "schema": SCHEMA_VERSION}
    if node is not None:
        header["node"] = node
    if recorder is not None and recorder.dropped:
        header["dropped_trace_records"] = recorder.dropped
    if flight is not None and flight.dropped:
        header["dropped_flight_records"] = flight.dropped
    yield header
    if registry is not None:
        yield from registry.snapshot()
    if recorder is not None:
        if node is None:
            yield from recorder.records
        else:
            for record in recorder.records:
                if record.get("node") == node:
                    yield record
    if flight is not None:
        yield from flight.records()


def export_jsonl(
    path_or_file: Union[str, IO],
    registry: Optional[MetricsRegistry] = None,
    recorder: Optional[TraceRecorder] = None,
    *,
    node: Optional[str] = None,
    flight: Optional[FlightRecorder] = None,
) -> int:
    """Write metrics and trace records as JSON lines; returns line count.

    With no explicit ``registry``/``recorder``, exports the process-wide
    registry and the active trace recorder (if tracing is enabled).

    ``node`` narrows the export to one node's view: the meta header is
    tagged with it and only trace records stamped with that node are
    written (metrics registries are process-wide, so pass
    ``registry=None`` for strictly per-node files).  ``flight`` appends
    a flight recorder's ring contents.
    """
    from . import get_registry
    from .trace import tracer

    if registry is None and node is None:
        registry = get_registry()
    if recorder is None:
        recorder = tracer()

    def write(out: IO) -> int:
        n = 0
        for record in _records(registry, recorder, node, flight):
            out.write(json.dumps(record, sort_keys=True) + "\n")
            n += 1
        return n

    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as out:
            return write(out)
    return write(path_or_file)


def iter_jsonl(path: str):
    """Lazily parse a JSON-lines file, one record at a time.

    Unlike :func:`read_jsonl` this never materializes the file: large
    chaos exports stream straight into :func:`repro.obs.assemble.assemble`
    with O(1) records held per file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"line {lineno}: not JSON: {exc}") from exc


def read_jsonl(path: str) -> list:
    """Parse a JSON-lines file into a list of records (no validation)."""
    return list(iter_jsonl(path))


def _require(record: dict, key: str, types) -> object:
    if key not in record:
        raise SchemaError(f"record missing {key!r}: {record!r}")
    value = record[key]
    if not isinstance(value, types):
        raise SchemaError(f"{key!r} has wrong type in {record!r}")
    return value


def _check_identity(record: dict) -> None:
    for field in _ID_FIELDS:
        if field in record and not is_id(record[field]):
            raise SchemaError(
                f"{field!r} must be 16 lowercase hex digits in {record!r}"
            )
    if "parent_id" in record and "span_id" not in record:
        raise SchemaError(f"parent_id without span_id in {record!r}")
    if "span_id" in record and "trace_id" not in record:
        raise SchemaError(f"span_id without trace_id in {record!r}")
    if "node" in record and not isinstance(record["node"], str):
        raise SchemaError(f"'node' has wrong type in {record!r}")


def validate_record(record: object) -> str:
    """Validate one record; returns its ``type``/``kind`` tag."""
    if not isinstance(record, dict):
        raise SchemaError(f"record is not an object: {record!r}")
    rtype = _require(record, "type", str)
    if rtype == "meta":
        _require(record, "schema", int)
        if "node" in record and not isinstance(record["node"], str):
            raise SchemaError(f"'node' has wrong type in {record!r}")
        return "meta"
    if rtype == "metric":
        kind = _require(record, "kind", str)
        _require(record, "name", str)
        labels = _require(record, "labels", dict)
        for key, value in labels.items():
            if not isinstance(key, str) or not isinstance(value, (str,) + _NUMBER):
                raise SchemaError(f"bad label {key!r}={value!r} in {record!r}")
        if kind in ("counter", "gauge"):
            _require(record, "value", _NUMBER)
        elif kind == "histogram":
            _require(record, "count", int)
            _require(record, "sum", _NUMBER)
            buckets = _require(record, "buckets", list)
            for pair in buckets:
                ok = (
                    isinstance(pair, list)
                    and len(pair) == 2
                    and isinstance(pair[0], _NUMBER + (str,))
                    and isinstance(pair[1], int)
                )
                if not ok:
                    raise SchemaError(f"bad histogram bucket {pair!r} in {record!r}")
        else:
            raise SchemaError(f"unknown metric kind {kind!r}")
        return f"metric/{kind}"
    if rtype == "trace":
        kind = _require(record, "kind", str)
        if kind not in ("span", "event", "packet"):
            raise SchemaError(f"unknown trace kind {kind!r}")
        _require(record, "name", str)
        _require(record, "ts", _NUMBER)
        _require(record, "attrs", dict)
        if kind == "span":
            _require(record, "duration", _NUMBER)
        _check_identity(record)
        return f"trace/{kind}"
    if rtype == "telemetry":
        _require(record, "source", str)
        seq = _require(record, "seq", int)
        if seq < 1:
            raise SchemaError(f"'seq' must be >= 1 in {record!r}")
        _require(record, "ts", _NUMBER)
        interval = _require(record, "interval", _NUMBER)
        if interval <= 0:
            raise SchemaError(f"'interval' must be positive in {record!r}")
        for entry in _require(record, "counters", list):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise SchemaError(f"bad counter entry in {record!r}")
            name, labels, delta = entry
            if not isinstance(name, str) or not isinstance(labels, dict):
                raise SchemaError(f"bad counter entry in {record!r}")
            if not isinstance(delta, int) or delta < 0:
                raise SchemaError(
                    f"counter delta must be a non-negative int in {record!r}"
                )
        for entry in _require(record, "gauges", list):
            if not (isinstance(entry, list) and len(entry) == 4):
                raise SchemaError(f"bad gauge entry in {record!r}")
            name, labels, value, updated_at = entry
            if not isinstance(name, str) or not isinstance(labels, dict):
                raise SchemaError(f"bad gauge entry in {record!r}")
            if not isinstance(value, _NUMBER) or not isinstance(
                updated_at, _NUMBER
            ):
                raise SchemaError(f"bad gauge sample in {record!r}")
        for entry in _require(record, "histograms", list):
            if not (isinstance(entry, list) and len(entry) == 7):
                raise SchemaError(f"bad histogram entry in {record!r}")
            name, labels, count_delta, count, total, deltas, bounds = entry
            ok = (
                isinstance(name, str)
                and isinstance(labels, dict)
                and isinstance(count_delta, int)
                and isinstance(count, int)
                and isinstance(total, _NUMBER)
                and isinstance(deltas, list)
                and all(isinstance(d, int) for d in deltas)
                and isinstance(bounds, list)
                and len(deltas) == len(bounds) + 1
            )
            if not ok:
                raise SchemaError(f"bad histogram entry in {record!r}")
        return "telemetry"
    if rtype == "flight":
        _require(record, "name", str)
        _require(record, "ts", _NUMBER)
        _require(record, "node", str)
        if "attrs" in record and not isinstance(record["attrs"], dict):
            raise SchemaError(f"'attrs' has wrong type in {record!r}")
        _check_identity(record)
        return "flight"
    raise SchemaError(f"unknown record type {rtype!r}")


def validate_jsonl(path: str) -> dict:
    """Validate every line of an export; returns ``{tag: count}``."""
    counts: dict[str, int] = {}
    for record in read_jsonl(path):
        tag = validate_record(record)
        counts[tag] = counts.get(tag, 0) + 1
    return counts
