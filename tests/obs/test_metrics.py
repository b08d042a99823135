"""MetricsRegistry semantics: dedup, kinds, buckets, snapshots, clocks."""

import json
import sys
import threading

import pytest

from repro.obs import (
    DEFAULT_BYTE_BUCKETS,
    MetricError,
    MetricsRegistry,
)


class TestLabelDedup:
    def test_same_labels_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x.total", driver="tcp", direction="tx")
        b = reg.counter("x.total", direction="tx", driver="tcp")  # order-free
        assert a is b
        a.inc(5)
        assert b.value == 5

    def test_different_labels_different_instruments(self):
        reg = MetricsRegistry()
        tx = reg.counter("x.total", direction="tx")
        rx = reg.counter("x.total", direction="rx")
        assert tx is not rx
        tx.inc()
        assert rx.value == 0

    def test_get_returns_existing_or_none(self):
        reg = MetricsRegistry()
        created = reg.gauge("g", k="v")
        assert reg.get("g", k="v") is created
        assert reg.get("g", k="other") is None
        assert reg.get("missing") is None

    @pytest.mark.parametrize(
        "labels",
        [{}, {"node": "a"}, {"node": "a", "channel": "1", "backend": "sim"}],
        ids=["zero", "one", "three"],
    )
    def test_any_keyword_order_is_one_instrument(self, labels):
        reg = MetricsRegistry()
        for kind in (reg.counter, reg.gauge, reg.histogram):
            name = kind.__name__
            made = kind(name, **labels)
            assert kind(name, **dict(reversed(labels.items()))) is made
            assert reg.get(name, **labels) is made
            assert reg.instruments(name) == [made]

    def test_a_value_and_its_string_are_two_instruments(self):
        reg = MetricsRegistry()
        assert reg.counter("c", channel=1) is not reg.counter("c", channel="1")
        assert len(reg.instruments("c")) == 2

    def test_labels_are_the_keywords_and_a_copy(self):
        reg = MetricsRegistry()
        assert reg.counter("c").labels == {}
        for kind in (reg.counter, reg.gauge, reg.histogram):
            made = kind(kind.__name__, node="a", channel="1")
            assert made.labels == {"node": "a", "channel": "1"}
            made.labels["node"] = "changed"
            made.labels.clear()
            assert made.labels == {"node": "a", "channel": "1"}
            assert reg.get(kind.__name__, node="a", channel="1") is made


class TestKindAndBucketConflicts:
    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(MetricError):
            reg.gauge("m")
        with pytest.raises(MetricError):
            reg.histogram("m")

    def test_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1, 2, 3))
        with pytest.raises(MetricError):
            reg.histogram("h", buckets=(10, 20))
        # same buckets (or unspecified) is fine
        reg.histogram("h", buckets=(1, 2, 3))
        reg.histogram("h")

    def test_counter_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.counter("c").inc(-1)


class TestHistogram:
    def test_bucket_placement_le_semantics(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(10, 20))
        for value in (5, 10, 15, 25):
            h.observe(value)
        assert h.count == 4
        assert h.sum == 55
        counts = dict(h.bucket_counts())
        assert counts[10] == 2  # 5 and the boundary value 10
        assert counts[20] == 1  # 15
        assert counts["inf"] == 1  # 25 overflows
        assert h.mean == pytest.approx(13.75)

    def test_default_buckets_are_bytes(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes")
        assert h.buckets == DEFAULT_BYTE_BUCKETS


class TestSnapshotAndReset:
    def test_snapshot_shape(self):
        reg = MetricsRegistry(clock=lambda: 7.0)
        reg.counter("c.total", a="1").inc(3)
        reg.gauge("g").set(2.5)
        reg.histogram("h", buckets=(10,)).observe(4)
        records = reg.snapshot()
        assert [r["name"] for r in records] == ["c.total", "g", "h"]
        by_name = {r["name"]: r for r in records}
        assert by_name["c.total"] == {
            "type": "metric", "kind": "counter", "name": "c.total",
            "labels": {"a": "1"}, "value": 3,
        }
        assert by_name["g"]["value"] == 2.5
        assert by_name["g"]["updated_at"] == 7.0
        assert by_name["h"]["count"] == 1
        assert by_name["h"]["buckets"] == [[10, 1], ["inf", 0]]

    def test_snapshot_bytes_are_what_they_were(self):
        """A fixed mixed registry against the JSON captured before label
        sets were kept as flat tuples: same records, same order, same key
        order inside ``labels``."""
        reg = MetricsRegistry(clock=lambda: 7.0)
        reg.counter("mux.tx_bytes", node="b", channel="2").inc(5)
        reg.counter("mux.tx_bytes", channel="10", node="a").inc(7)
        reg.counter("mux.tx_bytes", node="a", channel="2").inc(1)
        reg.counter("plain.total").inc(3)
        reg.counter(
            "driver.bytes_total", driver="tcp", direction="tx", backend="sim"
        ).inc(4096)
        reg.counter("driver.bytes_total", direction="rx", driver="tcp").inc(1)
        reg.gauge("path.rtt_seconds", peer="hub").set(0.024)
        reg.gauge("path.rtt_seconds")
        reg.histogram("msg.bytes", buckets=(64, 1024), role="tx").observe(100)
        reg.histogram("establish.seconds", buckets=(0.1, 1.0)).observe(2.5)
        assert json.dumps(reg.snapshot()) == (
            '[{"type": "metric", "kind": "counter", "name": "driver.bytes_total", '
            '"labels": {"backend": "sim", "direction": "tx", "driver": "tcp"}, '
            '"value": 4096}, '
            '{"type": "metric", "kind": "counter", "name": "driver.bytes_total", '
            '"labels": {"direction": "rx", "driver": "tcp"}, "value": 1}, '
            '{"type": "metric", "kind": "histogram", "name": "establish.seconds", '
            '"labels": {}, "count": 1, "sum": 2.5, '
            '"buckets": [[0.1, 0], [1.0, 0], ["inf", 1]]}, '
            '{"type": "metric", "kind": "histogram", "name": "msg.bytes", '
            '"labels": {"role": "tx"}, "count": 1, "sum": 100.0, '
            '"buckets": [[64, 0], [1024, 1], ["inf", 0]]}, '
            '{"type": "metric", "kind": "counter", "name": "mux.tx_bytes", '
            '"labels": {"channel": "10", "node": "a"}, "value": 7}, '
            '{"type": "metric", "kind": "counter", "name": "mux.tx_bytes", '
            '"labels": {"channel": "2", "node": "a"}, "value": 1}, '
            '{"type": "metric", "kind": "counter", "name": "mux.tx_bytes", '
            '"labels": {"channel": "2", "node": "b"}, "value": 5}, '
            '{"type": "metric", "kind": "gauge", "name": "path.rtt_seconds", '
            '"labels": {}, "value": 0.0, "updated_at": null}, '
            '{"type": "metric", "kind": "gauge", "name": "path.rtt_seconds", '
            '"labels": {"peer": "hub"}, "value": 0.024, "updated_at": 7.0}, '
            '{"type": "metric", "kind": "counter", "name": "plain.total", '
            '"labels": {}, "value": 3}]'
        )

    def test_reset_zeroes_but_keeps_instruments(self):
        reg = MetricsRegistry()
        c = reg.counter("c.total")
        c.inc(9)
        reg.reset()
        assert reg.counter("c.total") is c
        assert c.value == 0

    def test_clear_forgets_everything(self):
        reg = MetricsRegistry()
        reg.counter("c.total").inc()
        reg.clear()
        assert reg.names() == []


class TestClocks:
    def test_wall_clock_is_default(self):
        import time

        reg = MetricsRegistry()
        before = time.time()
        reg.gauge("g").set(1.0)
        assert reg.gauge("g").updated_at >= before

    def test_sim_clock_injection_and_rebinding(self):
        class FakeSim:
            now = 0.0

        sim = FakeSim()
        reg = MetricsRegistry(clock=lambda: 111.0)
        g = reg.gauge("g")
        g.set(1.0)
        assert g.updated_at == 111.0
        # rebinding the registry clock rebinds existing gauges too
        reg.set_clock(lambda: sim.now)
        sim.now = 42.5
        g.set(2.0)
        assert g.updated_at == 42.5
        assert reg.now() == 42.5

    def test_use_sim_clock_binds_global_registry(self, fresh_obs):
        from repro import obs

        class FakeSim:
            now = 9.25

        obs.use_sim_clock(FakeSim())
        assert obs.get_registry().now() == 9.25


class TestCreationRace:
    def test_threads_racing_for_one_key_get_one_instrument(self):
        """A lookup that hits takes no lock, so the race is between that
        read and a locked creation: every thread must end up holding the
        one instrument, and no increment may land on a lost twin."""
        threads, rounds = 8, 300
        reg = MetricsRegistry()
        start = threading.Barrier(threads)
        adding = threading.Lock()  # inc() itself is a bare read-modify-write
        got = [[] for _ in range(threads)]

        def race(mine: list) -> None:
            for n in range(rounds):
                start.wait(timeout=30)
                counter = reg.counter("raced.total", round=n, node="a")
                with adding:
                    counter.inc()
                mine.append(counter)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=race, args=(g,)) for g in got]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(reg.instruments("raced.total")) == rounds
        for n in range(rounds):
            assert len({id(mine[n]) for mine in got}) == 1
        assert [c.value for c in reg.instruments("raced.total")] == (
            [threads] * rounds
        )
