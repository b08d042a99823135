"""Streaming telemetry: delta semantics, windows, SLOs, replay exactness.

The contract under test, in rough dependency order:

* publisher delta records are exact — counters never regress, histogram
  bucket deltas sum to the count delta, zero-delta instruments are
  omitted, a registry reset mid-stream rebases instead of going
  negative;
* :func:`replay_deltas` folds any captured stream back into the *exact*
  final registry snapshot (the hypothesis property);
* the aggregator's sliding window evicts correctly and its SLO monitors
  fire (with sustain) and clear, honouring :meth:`retire` and
  ``breaches_since``;
* all of it stays consistent when producers hammer the registry from
  threads while a publisher snapshots concurrently.
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.export import SchemaError, validate_jsonl, validate_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
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
)


class _Clock:
    def __init__(self, start=0.0):
        self.t = start

    def __call__(self):
        return self.t


def _publisher(registry, clock, **kw):
    log = TelemetryLog()
    pub = TelemetryPublisher(registry, "src", clock=clock, **kw)
    pub.add_sink(log)
    return pub, log


class TestDeltaSemantics:
    def test_counter_deltas_are_exact_and_positive(self):
        reg = MetricsRegistry()
        clock = _Clock()
        pub, log = _publisher(reg, clock)
        c = reg.counter("tx.bytes_total", node="a")
        c.inc(100)
        clock.t = 0.5
        pub.publish()
        c.inc(250)
        clock.t = 1.0
        pub.publish()
        deltas = [r["counters"] for r in log.records]
        assert deltas[0] == [["tx.bytes_total", {"node": "a"}, 100]]
        assert deltas[1] == [["tx.bytes_total", {"node": "a"}, 250]]
        assert telemetry_violations(log.records) == []

    def test_zero_delta_instruments_are_omitted(self):
        reg = MetricsRegistry()
        pub, log = _publisher(reg, _Clock())
        reg.counter("c").inc(5)
        reg.histogram("h", buckets=(1, 10)).observe(3)
        pub.publish()
        pub.publish()  # nothing moved: a pure heartbeat
        beat = log.records[1]
        assert beat["counters"] == []
        assert beat["histograms"] == []
        assert beat["gauges"] == []
        assert beat["seq"] == 2

    def test_seq_is_gap_free_per_source(self):
        reg = MetricsRegistry()
        pub, log = _publisher(reg, _Clock())
        for _ in range(4):
            pub.publish()
        assert [r["seq"] for r in log.records] == [1, 2, 3, 4]
        broken = [dict(r) for r in log.records]
        broken[2]["seq"] = 7
        assert any("gap" in v for v in telemetry_violations(broken))

    def test_histogram_bucket_deltas_sum_to_count_delta(self):
        reg = MetricsRegistry()
        pub, log = _publisher(reg, _Clock())
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        pub.publish()
        h.observe(5.0)
        pub.publish()
        entries = [r["histograms"] for r in log.records]
        name, labels, count_delta, count, total, deltas, bounds = entries[0][0]
        assert count_delta == 2 and count == 2
        assert sum(deltas) == count_delta
        assert len(deltas) == len(bounds) + 1  # overflow bucket rides along
        _, _, count_delta2, count2, _, deltas2, _ = entries[1][0]
        assert count_delta2 == 1 and count2 == 3
        assert deltas2 == [0, 0, 1]  # the 5.0 landed past the last bound
        assert telemetry_violations(log.records) == []

    def test_gauge_samples_are_absolute_and_deduped(self):
        reg = MetricsRegistry()
        clock = _Clock()
        reg.set_clock(clock)
        pub, log = _publisher(reg, clock)
        g = reg.gauge("depth", node="a")
        g.set(3)
        pub.publish()
        pub.publish()  # unchanged: omitted
        clock.t = 2.0
        g.set(1)
        pub.publish()
        samples = [r["gauges"] for r in log.records]
        assert samples[0] == [["depth", {"node": "a"}, 3, 0.0]]
        assert samples[1] == []
        assert samples[2] == [["depth", {"node": "a"}, 1, 2.0]]

    def test_registry_reset_rebases_instead_of_regressing(self):
        reg = MetricsRegistry()
        pub, log = _publisher(reg, _Clock())
        reg.counter("c").inc(10)
        pub.publish()
        reg.reset()
        reg.counter("c").inc(4)
        pub.publish()
        assert log.records[1].get("rebased") is True
        assert log.records[1]["counters"] == [["c", {}, 4]]
        assert telemetry_violations(log.records) == []

    def test_select_narrows_the_stream(self):
        reg = MetricsRegistry()
        reg.counter("x", node="a").inc(1)
        reg.counter("x", node="b").inc(1)
        pub, log = _publisher(
            reg, _Clock(), select=lambda name, labels: labels.get("node") == "a"
        )
        pub.publish()
        assert log.records[0]["counters"] == [["x", {"node": "a"}, 1]]

    def test_stop_flush_emits_one_final_record(self):
        reg = MetricsRegistry()
        pub, log = _publisher(reg, _Clock())
        pub._running = True
        reg.counter("c").inc(1)
        pub.stop(flush=True)
        assert len(log.records) == 1
        pub.stop(flush=True)  # idempotent: already stopped
        assert len(log.records) == 1


# -- replay exactness ---------------------------------------------------------

_NAMES = ("a.total", "b.total")
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("inc"), st.sampled_from(_NAMES), st.integers(1, 1000)
        ),
        st.tuples(
            st.just("gauge"), st.just("g"), st.integers(-50, 50)
        ),
        st.tuples(
            st.just("observe"),
            st.just("h"),
            st.floats(0.001, 100.0, allow_nan=False),
        ),
        st.tuples(st.just("publish"), st.just(""), st.just(0)),
    ),
    max_size=60,
)


class TestReplay:
    @settings(max_examples=60)
    @given(ops=_OPS)
    def test_replaying_deltas_reconstructs_the_final_snapshot(self, ops):
        reg = MetricsRegistry()
        clock = _Clock()
        reg.set_clock(clock)
        pub, log = _publisher(reg, clock)
        pub._running = True
        for kind, name, value in ops:
            clock.t += 0.25
            if kind == "inc":
                reg.counter(name, node="n").inc(value)
            elif kind == "gauge":
                reg.gauge(name).set(value)
            elif kind == "observe":
                reg.histogram(name, buckets=(0.1, 1.0, 10.0)).observe(value)
            else:
                pub.publish()
        pub.stop(flush=True)
        assert telemetry_violations(log.records) == []
        assert replay_deltas(log.records) == reg.snapshot()

    def test_multi_source_replay_filters_by_source(self):
        reg = MetricsRegistry()
        reg.counter("x", node="a").inc(7)
        reg.counter("x", node="b").inc(9)
        log = TelemetryLog()
        for node in ("a", "b"):
            pub = TelemetryPublisher(
                reg, node, clock=_Clock(1.0),
                select=lambda n, labels, _id=node: labels.get("node") == _id,
            )
            pub.add_sink(log)
            pub.publish()
        merged = replay_deltas(log.records)
        assert merged == reg.snapshot()
        only_a = replay_deltas(log.records, source="a")
        assert only_a == [r for r in reg.snapshot() if r["labels"]["node"] == "a"]


# -- thread-safety hammer -----------------------------------------------------


class TestConcurrency:
    def test_snapshot_under_concurrent_updates_stays_consistent(self):
        reg = MetricsRegistry()
        clock = _Clock()
        pub, log = _publisher(reg, clock)
        pub._running = True
        per_thread = 5_000

        def hammer(i):
            c = reg.counter("hammer.total", worker=str(i))
            h = reg.histogram("hammer.lat", buckets=(1, 10, 100))
            for n in range(per_thread):
                c.inc(1)
                h.observe(n % 200)

        def churn_structure():
            # create brand-new instruments while snapshots iterate
            # (bounded, or the registry growth makes publishes quadratic)
            for n in range(500):
                reg.counter("churn.total", n=str(n)).inc(1)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(4)
        ] + [threading.Thread(target=churn_structure)]
        for t in threads:
            t.start()
        try:
            while any(t.is_alive() for t in threads):
                clock.t += 0.1
                pub.publish()
        finally:
            for t in threads:
                t.join()
        pub.stop(flush=True)
        # every mid-churn snapshot was internally consistent
        assert telemetry_violations(log.records) == []
        # and the stream still reconstructs the final state exactly
        assert replay_deltas(log.records) == reg.snapshot()
        total = sum(
            delta
            for r in log.records
            for name, _l, delta in r["counters"]
            if name == "hammer.total"
        )
        assert total == 4 * per_thread


# -- asyncio driver -----------------------------------------------------------


@pytest.mark.livenet
class TestAsyncPublisher:
    def test_run_ticks_on_the_event_loop(self):
        import asyncio

        from repro.core.runtime import ASYNCIO

        reg = MetricsRegistry()
        log = TelemetryLog()
        pub = TelemetryPublisher(reg, "live-src", interval=0.02)
        pub.add_sink(log)
        c = reg.counter("c")

        async def run():
            task = ASYNCIO.spawn(pub.run(ASYNCIO), "publisher")
            for _ in range(5):
                c.inc(10)
                await asyncio.sleep(0.03)
            pub.stop(flush=True)
            await task  # its pending tick ends it without publishing

        asyncio.run(run())
        assert len(log.records) >= 3
        assert telemetry_violations(log.records) == []
        assert replay_deltas(log.records) == reg.snapshot()
        assert [r["seq"] for r in log.records] == list(
            range(1, len(log.records) + 1)
        )


# -- aggregator: windows, SLOs, retirement ------------------------------------


def _record(source, seq, ts, counters=(), gauges=(), interval=0.5):
    return {
        "type": "telemetry",
        "source": source,
        "seq": seq,
        "ts": ts,
        "interval": interval,
        "counters": list(counters),
        "gauges": list(gauges),
        "histograms": [],
    }


class TestAggregator:
    def test_window_eviction(self):
        agg = TelemetryAggregator(window=1.0)
        for seq, ts in enumerate((0.0, 0.5, 1.0, 2.0), start=1):
            agg.ingest(_record("a", seq, ts))
        kept = [r["ts"] for r in agg.window_records("a")]
        assert kept == [1.0, 2.0]  # 0.0 and 0.5 fell off the left edge

    def test_breach_fires_and_clears_with_events(self, fresh_obs):
        obs.enable_tracing()
        agg = TelemetryAggregator(window=2.0)
        agg.add_slo(
            SLO("rate", sli_counter_rate("tx"), threshold=100.0, op=">=")
        )
        agg.ingest(_record("a", 1, 0.5, [["tx", {}, 200]]))
        assert agg.breaches == []
        agg.ingest(_record("a", 2, 1.0, [["tx", {}, 1]]))
        agg.ingest(_record("a", 3, 3.5, [["tx", {}, 1]]))
        assert len(agg.breaches) == 1
        breach = agg.breaches[0]
        assert breach.source == "a" and breach.slo == "rate"
        assert breach.cleared is None
        assert agg.active_breaches("a") == [breach]
        # recover: a fat delta pushes the windowed rate back over
        agg.ingest(_record("a", 4, 4.0, [["tx", {}, 10_000]]))
        assert breach.cleared == 4.0
        assert agg.active_breaches("a") == []
        names = [r["name"] for r in obs.tracer().events()]
        assert "slo.breach" in names and "slo.clear" in names

    def test_sustain_requires_for_seconds_of_bad(self):
        agg = TelemetryAggregator(window=10.0)
        agg.add_slo(
            SLO("rate", sli_counter_rate("tx"), threshold=100.0,
                for_seconds=1.0)
        )
        agg.ingest(_record("a", 1, 0.5, [["tx", {}, 1]]))
        assert agg.breaches == []  # bad, but not yet sustained
        agg.ingest(_record("a", 2, 1.0, [["tx", {}, 1]]))
        assert agg.breaches == []
        agg.ingest(_record("a", 3, 1.5, [["tx", {}, 1]]))
        assert len(agg.breaches) == 1
        assert agg.breaches[0].started == 0.5  # backdated to the first bad

    def test_one_bad_sample_between_healthy_is_noise(self):
        agg = TelemetryAggregator(window=1.0)
        agg.add_slo(
            SLO("rate", sli_counter_rate("tx"), threshold=100.0,
                for_seconds=1.0)
        )
        agg.ingest(_record("a", 1, 0.5, [["tx", {}, 1]]))
        agg.ingest(_record("a", 2, 1.0, [["tx", {}, 10_000]]))
        agg.ingest(_record("a", 3, 1.5, [["tx", {}, 10_000]]))
        assert agg.breaches == []

    def test_retired_sources_are_not_evaluated(self):
        agg = TelemetryAggregator(window=1.0)
        agg.add_slo(SLO("rate", sli_counter_rate("tx"), threshold=100.0))
        agg.ingest(_record("a", 1, 0.5, [["tx", {}, 10_000]]))
        agg.retire("a")
        # the stream decays to a trickle after the clean finish
        agg.ingest(_record("a", 2, 1.0, [["tx", {}, 1]]))
        agg.ingest(_record("a", 3, 1.5, []))
        assert agg.breaches == []
        assert agg.health("a")["retired"] is True

    def test_breaches_since_filters_by_start_and_source(self):
        agg = TelemetryAggregator(window=1.0)
        agg.add_slo(SLO("rate", sli_counter_rate("tx"), threshold=100.0))
        agg.ingest(_record("a", 1, 0.5, [["tx", {}, 1]]))
        agg.ingest(_record("b", 1, 2.5, [["tx", {}, 1]]))
        assert len(agg.breaches) == 2
        assert [b.source for b in agg.breaches_since(1.0)] == ["b"]
        assert agg.breaches_since(0.0, sources={"a"})[0].source == "a"
        assert agg.breaches_since(3.0) == []

    def test_health_rows(self):
        agg = TelemetryAggregator(window=2.0)
        agg.ingest(_record("a", 1, 0.5, [["tx", {}, 100]]))
        agg.ingest(_record("a", 2, 1.0, [["tx", {}, 100]]))
        health = agg.health("a")
        assert health["seq"] == 2 and health["records"] == 2
        assert health["rates"]["tx"] == pytest.approx(200.0)

    def test_non_telemetry_records_are_rejected(self):
        agg = TelemetryAggregator()
        with pytest.raises(ValueError):
            agg.ingest({"type": "metric"})


class TestSLIs:
    def test_rate_returns_none_until_the_counter_appears(self):
        sli = sli_counter_rate("tx")
        assert sli([]) is None
        assert sli([_record("a", 1, 0.5)]) is None  # records, no entries
        assert sli([_record("a", 1, 0.5, [["tx", {}, 50]])]) == 100.0

    def test_rate_matches_labels(self):
        sli = sli_counter_rate("tx", node="a")
        records = [
            _record("a", 1, 0.5, [["tx", {"node": "a"}, 30],
                                  ["tx", {"node": "b"}, 999]])
        ]
        assert sli(records) == 60.0

    def test_increase_totals_the_window(self):
        sli = sli_counter_increase("resumes")
        records = [
            _record("a", 1, 0.5, [["resumes", {}, 1]]),
            _record("a", 2, 1.0, [["resumes", {}, 2]]),
        ]
        assert sli(records) == 3.0
        assert sli([]) is None

    def test_gauge_takes_latest_by_updated_at(self):
        sli = sli_gauge("lag")
        records = [
            _record("a", 1, 0.5, gauges=[["lag", {}, 9.0, 0.4]]),
            _record("a", 2, 1.0, gauges=[["lag", {}, 2.0, 0.9]]),
        ]
        assert sli(records) == 2.0
        assert sli([_record("a", 1, 0.5)]) is None

    def test_histogram_mean_is_window_exact(self):
        def hist(seq, ts, count_delta, count, total):
            r = _record("a", seq, ts)
            r["histograms"] = [
                ["lat", {}, count_delta, count, total, [count_delta], []]
            ]
            return r

        sli = sli_histogram_mean("lat")
        # stream-opening record: its own observations count
        assert sli([hist(1, 0.5, 2, 2, 10.0)]) == 5.0
        # later records: mean of the window's observations only
        records = [hist(5, 4.0, 1, 10, 100.0), hist(6, 4.5, 2, 12, 130.0)]
        assert sli(records) == 15.0  # (130-100)/(12-10)
        assert sli([]) is None

    def test_proxy_drift_balances_the_ledger(self):
        sli = sli_proxy_drift()
        records = [
            _record("a", 1, 0.5, [
                ["proxy.bytes_in_total", {"proxy": "gw"}, 1000],
                ["proxy.bytes_forwarded_total", {"proxy": "gw"}, 700],
                ["proxy.bytes_dropped_total", {"proxy": "gw"}, 200],
            ]),
        ]
        assert sli(records) == 100.0  # 100 bytes unaccounted in the window
        assert sli([]) is None


# -- schema + JSONL round trip ------------------------------------------------


class TestSchema:
    def test_telemetry_record_validates(self):
        reg = MetricsRegistry()
        pub, log = _publisher(reg, _Clock(1.0))
        reg.counter("c").inc(1)
        reg.gauge("g").set(2)
        reg.histogram("h", buckets=(1,)).observe(0.5)
        pub.publish()
        assert validate_record(log.records[0]) == "telemetry"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.pop("source"),
            lambda r: r.__setitem__("seq", 0),
            lambda r: r.__setitem__("interval", 0),
            lambda r: r.__setitem__("counters", [["c", {}, -1]]),
            lambda r: r.__setitem__("counters", [["c", {}]]),
            lambda r: r.__setitem__("gauges", [["g", {}, 1]]),
            lambda r: r.__setitem__("histograms", [["h", {}, 1, 1, 0.5]]),
        ],
    )
    def test_malformed_telemetry_is_rejected(self, mutate):
        record = _record("a", 1, 0.5, [["c", {}, 1]])
        mutate(record)
        with pytest.raises(SchemaError):
            validate_record(record)

    def test_jsonl_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        clock = _Clock()
        pub, log = _publisher(reg, clock)
        for i in range(3):
            reg.counter("c").inc(i + 1)
            clock.t += 0.5
            pub.publish()
        path = str(tmp_path / "telemetry.jsonl")
        log.write_jsonl(path)
        assert validate_jsonl(path) == {"meta": 1, "telemetry": 3}
        back = read_telemetry_jsonl(path)
        assert back == log.records
        assert replay_deltas(back) == reg.snapshot()
        with open(path, encoding="utf-8") as fh:
            meta = json.loads(fh.readline())
        assert meta["stream"] == "telemetry"
