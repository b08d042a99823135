"""Summarize observability JSON-lines exports.

Usage::

    python -m repro.obs.report out.jsonl [more.jsonl ...] [--format json]

Prints counters and gauges, histogram statistics, span summaries grouped
by name (count, outcomes, total duration), event counts and — for
telemetry captures — per-source stream summaries.  Multiple files are
merged into one summary (e.g. a run's ``run.jsonl`` plus its telemetry
capture).  ``--format json`` emits the same summary as one JSON object
for tooling.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .export import SchemaError, read_jsonl, validate_record

__all__ = ["summarize", "render", "main"]


def _labels_str(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def summarize(records: list) -> dict:
    """Reduce validated records to a JSON-able summary structure."""
    summary: dict = {
        "schema": None,
        "metrics": [],
        "spans": {},
        "events": {},
        "telemetry": {},
        "records": len(records),
    }
    for record in records:
        tag = validate_record(record)
        if tag == "meta":
            summary["schema"] = record.get("schema")
        elif tag.startswith("metric/"):
            entry = {
                "kind": record["kind"],
                "name": record["name"],
                "labels": record["labels"],
            }
            if record["kind"] == "histogram":
                entry["count"] = record["count"]
                entry["sum"] = record["sum"]
                entry["mean"] = record["sum"] / record["count"] if record["count"] else 0.0
                entry["buckets"] = record["buckets"]
            else:
                entry["value"] = record["value"]
            summary["metrics"].append(entry)
        elif tag == "trace/span":
            name = record["name"]
            group = summary["spans"].setdefault(
                name, {"count": 0, "total_duration": 0.0, "outcomes": {}}
            )
            group["count"] += 1
            group["total_duration"] += record["duration"]
            outcome = str(record["attrs"].get("outcome", "?"))
            group["outcomes"][outcome] = group["outcomes"].get(outcome, 0) + 1
        elif tag == "trace/event":
            name = record["name"]
            summary["events"][name] = summary["events"].get(name, 0) + 1
        elif tag == "telemetry":
            stream = summary["telemetry"].setdefault(
                record["source"],
                {"records": 0, "last_seq": 0, "last_ts": None, "counters": {}},
            )
            stream["records"] += 1
            stream["last_seq"] = max(stream["last_seq"], record["seq"])
            stream["last_ts"] = record["ts"]
            for name, _labels, delta in record["counters"]:
                stream["counters"][name] = stream["counters"].get(name, 0) + delta
    return summary


def render(summary: dict) -> str:
    """Human-readable rendering of :func:`summarize` output."""
    lines = [f"observability export: {summary['records']} records "
             f"(schema v{summary['schema']})"]
    metrics = summary["metrics"]
    if metrics:
        lines.append("")
        lines.append(f"== metrics ({len(metrics)}) ==")
        for m in metrics:
            key = f"{m['name']}{_labels_str(m['labels'])}"
            if m["kind"] == "histogram":
                lines.append(
                    f"  histogram {key:58s} count={m['count']:<8d} "
                    f"sum={m['sum']:<14.6g} mean={m['mean']:.6g}"
                )
            else:
                lines.append(f"  {m['kind']:9s} {key:58s} {m['value']:.6g}")
    if summary["spans"]:
        lines.append("")
        lines.append(f"== spans ({sum(g['count'] for g in summary['spans'].values())}) ==")
        for name in sorted(summary["spans"]):
            group = summary["spans"][name]
            outcomes = ", ".join(
                f"{count} {outcome}"
                for outcome, count in sorted(group["outcomes"].items())
            )
            lines.append(
                f"  {name:40s} {group['count']:6d} spans  "
                f"total {group['total_duration']:.6g}s  ({outcomes})"
            )
    if summary["events"]:
        lines.append("")
        lines.append(f"== events ({sum(summary['events'].values())}) ==")
        for name in sorted(summary["events"]):
            lines.append(f"  {name:40s} {summary['events'][name]:6d}")
    if summary["telemetry"]:
        total = sum(s["records"] for s in summary["telemetry"].values())
        lines.append("")
        lines.append(f"== telemetry ({total} records) ==")
        for source in sorted(summary["telemetry"]):
            stream = summary["telemetry"][source]
            totals = ", ".join(
                f"{name}+{delta}"
                for name, delta in sorted(stream["counters"].items())
            )
            last_ts = stream["last_ts"]
            ts = f"{last_ts:.3f}" if last_ts is not None else "-"
            lines.append(
                f"  {source:20s} {stream['records']:5d} records  "
                f"seq={stream['last_seq']:<6d} last_ts={ts:10s} {totals}"
            )
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize one or more repro.obs JSON-lines exports.",
    )
    parser.add_argument(
        "paths", nargs="+", metavar="path",
        help="JSON-lines file(s) written by export_jsonl / the telemetry "
        "plane; multiple files are merged into one summary",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    args = parser.parse_args(argv)
    try:
        records = []
        for path in args.paths:
            records.extend(read_jsonl(path))
        summary = summarize(records)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: invalid export: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        print(render(summary))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
