"""Trace recorder, span semantics, JSONL export and the report CLI."""

import io
import json

import pytest

from repro import obs
from repro.obs import (
    SchemaError,
    TraceRecorder,
    export_jsonl,
    read_jsonl,
    validate_jsonl,
    validate_record,
)
from repro.obs import report


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestSpans:
    def test_span_duration_and_ok_outcome(self):
        clock = FakeClock(10.0)
        rec = TraceRecorder(clock=clock)
        with rec.span("work", task="t1"):
            clock.now = 12.5
        (record,) = rec.spans("work")
        assert record["ts"] == 10.0
        assert record["duration"] == 2.5
        assert record["attrs"] == {"task": "t1", "outcome": "ok"}

    def test_span_error_outcome_names_exception(self):
        rec = TraceRecorder(clock=FakeClock())
        with pytest.raises(ValueError):
            with rec.span("work"):
                raise ValueError("boom")
        (record,) = rec.spans("work")
        assert record["attrs"]["outcome"] == "error"
        assert record["attrs"]["error"] == "ValueError"

    def test_explicit_outcome_wins(self):
        rec = TraceRecorder(clock=FakeClock())
        with rec.span("work") as sp:
            sp.set(outcome="nak", method="upgrade")
        (record,) = rec.spans("work")
        assert record["attrs"]["outcome"] == "nak"
        assert record["attrs"]["method"] == "upgrade"

    def test_module_helpers_are_noops_when_disabled(self, fresh_obs):
        assert obs.tracer() is None
        with obs.span("ignored") as sp:
            sp.set(x=1)
        obs.event("ignored")
        # enabling afterwards starts from a clean recorder
        rec = obs.enable_tracing(clock=FakeClock())
        obs.event("seen", n=1)
        assert rec.events("ignored") == []
        (record,) = rec.events("seen")
        assert record["attrs"] == {"n": 1}

    def test_limit_counts_dropped_records(self):
        rec = TraceRecorder(clock=FakeClock(), limit=2)
        for i in range(5):
            rec.event("e", i=i)
        assert len(rec.records) == 2
        assert rec.dropped == 3
        rec.clear()
        assert rec.records == [] and rec.dropped == 0


class TestExport:
    def test_roundtrip_and_validation(self, fresh_obs, tmp_path):
        reg = fresh_obs
        reg.counter("c.total", k="v").inc(2)
        reg.histogram("h", buckets=(10,)).observe(3)
        rec = obs.enable_tracing(clock=FakeClock(1.0))
        with rec.span("s"):
            pass
        rec.event("e")
        path = str(tmp_path / "out.jsonl")
        lines = export_jsonl(path)
        assert lines == 5  # meta + 2 metrics + span + event
        counts = validate_jsonl(path)
        assert counts == {
            "meta": 1, "metric/counter": 1, "metric/histogram": 1,
            "trace/span": 1, "trace/event": 1,
        }
        records = read_jsonl(path)
        assert records[0]["schema"] == obs.SCHEMA_VERSION

    def test_export_to_file_object(self, fresh_obs):
        fresh_obs.gauge("g").set(1.0)
        buf = io.StringIO()
        export_jsonl(buf)
        for line in buf.getvalue().splitlines():
            validate_record(json.loads(line))

    def test_dropped_records_surface_in_header(self, fresh_obs, tmp_path):
        rec = obs.enable_tracing(clock=FakeClock(), limit=1)
        rec.event("a")
        rec.event("b")
        path = str(tmp_path / "out.jsonl")
        export_jsonl(path)
        assert read_jsonl(path)[0]["dropped_trace_records"] == 1

    def test_validate_rejects_malformed_records(self, tmp_path):
        with pytest.raises(SchemaError):
            validate_record({"type": "metric", "kind": "counter"})
        with pytest.raises(SchemaError):
            validate_record({"type": "trace", "kind": "span", "name": "s",
                             "ts": 0.0, "attrs": {}})  # missing duration
        with pytest.raises(SchemaError):
            validate_record({"type": "wat"})
        with pytest.raises(SchemaError):
            validate_record("not a dict")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        with pytest.raises(SchemaError):
            validate_jsonl(str(bad))


class TestReport:
    def _export(self, tmp_path):
        reg = obs.MetricsRegistry(clock=lambda: 0.0)
        reg.counter("c.total").inc(4)
        rec = TraceRecorder(clock=FakeClock())
        with rec.span("phase") as sp:
            sp.set(outcome="nak")
        with rec.span("phase"):
            pass
        rec.event("tick")
        path = str(tmp_path / "out.jsonl")
        export_jsonl(path, registry=reg, recorder=rec)
        return path

    def test_summarize_groups_spans_by_outcome(self, tmp_path):
        summary = report.summarize(read_jsonl(self._export(tmp_path)))
        assert summary["schema"] == obs.SCHEMA_VERSION
        assert summary["spans"]["phase"]["count"] == 2
        assert summary["spans"]["phase"]["outcomes"] == {"nak": 1, "ok": 1}
        assert summary["events"] == {"tick": 1}
        text = report.render(summary)
        assert "c.total" in text and "phase" in text and "1 nak" in text

    def test_main_text_and_json(self, tmp_path, capsys):
        path = self._export(tmp_path)
        assert report.main([path]) == 0
        assert "observability export" in capsys.readouterr().out
        assert report.main([path, "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["records"] == 5

    def test_main_error_exits(self, tmp_path, capsys):
        assert report.main([str(tmp_path / "missing.jsonl")]) == 2
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n")
        assert report.main([str(bad)]) == 1
        capsys.readouterr()

