"""The watch CLI (rolling health) and report CLI telemetry sections."""

import json

import pytest

from repro.obs import report, watch
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    TelemetryAggregator,
    TelemetryLog,
    TelemetryPublisher,
)


class _Clock:
    def __init__(self, start=0.0):
        self.t = start

    def __call__(self):
        return self.t


@pytest.fixture
def capture(tmp_path):
    """A two-source telemetry JSONL: `fast` keeps going, `slow` stalls."""
    reg = MetricsRegistry()
    clock = _Clock()
    log = TelemetryLog()
    pubs = {}
    for node in ("fast", "slow"):
        pub = TelemetryPublisher(
            reg, node, clock=clock, interval=0.5,
            select=lambda n, labels, _id=node: labels.get("node") == _id,
        )
        pub.add_sink(log)
        pubs[node] = pub
    for step in range(1, 9):
        clock.t = step * 0.5
        reg.counter("tx", node="fast").inc(1000)
        pubs["fast"].publish()
        if step <= 3:  # slow's stream stops advancing at t=1.5
            reg.counter("tx", node="slow").inc(10)
            pubs["slow"].publish()
    path = tmp_path / "telemetry.jsonl"
    log.write_jsonl(str(path))
    return str(path)


class TestIngest:
    def test_skips_noise_and_clips(self):
        agg = TelemetryAggregator(window=10.0)
        lines = [
            '{"type": "meta", "schema": 2}',
            "not json at all",
            "",
            json.dumps({"type": "telemetry", "source": "a", "seq": 1,
                        "ts": 0.5, "interval": 0.5, "counters": [],
                        "gauges": [], "histograms": []}),
            json.dumps({"type": "telemetry", "source": "a", "seq": 2,
                        "ts": 9.0, "interval": 0.5, "counters": [],
                        "gauges": [], "histograms": []}),
        ]
        assert watch.ingest_lines(lines, agg, clip=1.0) == 1
        assert agg.health("a")["seq"] == 1


class TestRenderHealth:
    def test_empty_aggregator(self):
        assert "no records" in watch.render_health(TelemetryAggregator())

    def test_flags_the_stalled_source(self, capture):
        agg = TelemetryAggregator(window=2.0)
        with open(capture, encoding="utf-8") as fh:
            watch.ingest_lines(fh, agg)
        table = watch.render_health(agg)
        slow_row = next(l for l in table.splitlines() if "slow" in l)
        fast_row = next(l for l in table.splitlines() if "fast" in l)
        assert "[STALE]" in slow_row  # last heard t=1.5, newest is t=4.0
        assert "[STALE]" not in fast_row
        assert "tx=2,000.0/s" in fast_row
        assert "sources=2" in table

    def test_retired_beats_stale(self, capture):
        agg = TelemetryAggregator(window=2.0)
        with open(capture, encoding="utf-8") as fh:
            watch.ingest_lines(fh, agg)
        agg.retire("slow")
        table = watch.render_health(agg)
        slow_row = next(l for l in table.splitlines() if "slow" in l)
        assert "[retired]" in slow_row and "[STALE]" not in slow_row


class TestWatchMain:
    def test_table_output(self, capture, capsys):
        assert watch.main([capture, "--window", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "telemetry @ t=4.000" in out
        assert "fast" in out and "slow" in out

    def test_at_travels_back_in_time(self, capture, capsys):
        assert watch.main([capture, "--window", "2.0", "--at", "1.5"]) == 0
        out = capsys.readouterr().out
        # at t=1.5 both streams were live: nothing is stale yet
        assert "STALE" not in out
        assert "telemetry @ t=1.500" in out

    def test_json_output(self, capture, capsys):
        assert watch.main([capture, "--json"]) == 0
        health = json.loads(capsys.readouterr().out)
        assert set(health) == {"fast", "slow"}
        assert health["slow"]["seq"] == 3

    def test_missing_file(self, tmp_path, capsys):
        assert watch.main([str(tmp_path / "nope.jsonl")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestReportTelemetry:
    def test_telemetry_section_renders(self, capture, capsys):
        assert report.main([capture]) == 0
        out = capsys.readouterr().out
        assert "== telemetry (11 records) ==" in out
        assert "tx+8000" in out  # fast's total delta
        assert "tx+30" in out

    def test_multiple_files_merge(self, capture, tmp_path, capsys):
        other = tmp_path / "more.jsonl"
        record = {"type": "telemetry", "source": "extra", "seq": 1,
                  "ts": 0.5, "interval": 0.5,
                  "counters": [["rx", {}, 7]], "gauges": [],
                  "histograms": []}
        other.write_text(
            '{"type": "meta", "schema": 2, "exported_at": 0, "records": 1}\n'
            + json.dumps(record) + "\n"
        )
        assert report.main([capture, str(other), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary["telemetry"]) == {"fast", "slow", "extra"}
        assert summary["telemetry"]["extra"]["counters"] == {"rx": 7}

    def test_json_flag_is_a_deprecated_alias(self, capture, capsys):
        assert report.main([capture, "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["telemetry"]["fast"]["last_seq"] == 8
