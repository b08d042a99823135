"""CanaryRollout state machine, driven by a fake clock and fed records."""

import asyncio

import pytest

from repro.core.runtime import ASYNCIO
from repro.obs.telemetry import SLO, TelemetryAggregator, sli_counter_rate
from repro.ops.rollout import CanaryRollout, ConfigChange, RolloutError


class _Clock:
    def __init__(self, start=0.0):
        self.t = start

    def __call__(self):
        return self.t


def _record(source, seq, ts, rate):
    return {
        "type": "telemetry",
        "source": source,
        "seq": seq,
        "ts": ts,
        "interval": 0.5,
        "counters": [["tx", {}, int(rate * 0.5)]],
        "gauges": [],
        "histograms": [],
    }


def _rig(clock, bake=5.0, canaries=("c1",), targets=("c1", "s1")):
    """An aggregator with one >=100/s throughput SLO plus a rollout."""
    agg = TelemetryAggregator(window=2.0)
    agg.add_slo(SLO("rate", sli_counter_rate("tx"), threshold=100.0))
    applied = []

    change = ConfigChange(
        name="tuner-v2",
        apply=lambda target: applied.append(("apply", target)),
        revert=lambda target: applied.append(("revert", target)),
    )
    rollout = CanaryRollout(
        change,
        agg,
        targets={name: name for name in targets},
        canaries=list(canaries),
        bake_seconds=bake,
        poll_seconds=0.5,
        clock=clock,
    )
    return agg, rollout, applied


class TestValidation:
    def test_needs_a_canary(self):
        agg = TelemetryAggregator()
        change = ConfigChange("x", lambda t: None, lambda t: None)
        with pytest.raises(RolloutError):
            CanaryRollout(change, agg, targets={"a": "a"}, canaries=[])

    def test_canaries_must_be_targets(self):
        agg = TelemetryAggregator()
        change = ConfigChange("x", lambda t: None, lambda t: None)
        with pytest.raises(RolloutError, match="ghost"):
            CanaryRollout(change, agg, targets={"a": "a"}, canaries=["ghost"])

    def test_windows_must_be_positive(self):
        agg = TelemetryAggregator()
        change = ConfigChange("x", lambda t: None, lambda t: None)
        with pytest.raises(RolloutError):
            CanaryRollout(
                change, agg, targets={"a": "a"}, canaries=["a"],
                bake_seconds=0,
            )

    def test_cannot_start_twice(self):
        clock = _Clock()
        _agg, rollout, _applied = _rig(clock)
        rollout.start()
        with pytest.raises(RolloutError):
            rollout.start()


class TestPromotion:
    def test_clean_bake_promotes_the_rest(self):
        clock = _Clock()
        agg, rollout, applied = _rig(clock, bake=5.0)
        rollout.start()
        assert rollout.state == "canary"
        assert applied == [("apply", "c1")]  # canary only, so far
        for step in range(1, 12):
            clock.t = step * 0.5
            agg.ingest(_record("c1", step, clock.t, rate=500.0))
            rollout.poll()
        assert rollout.state == "promoted"
        assert rollout.done
        assert applied == [("apply", "c1"), ("apply", "s1")]
        assert rollout.decided_at - rollout.applied_at >= 5.0
        assert rollout.trigger is None
        assert [e["kind"] for e in rollout.events] == ["apply", "promote"]

    def test_poll_is_a_noop_after_terminal(self):
        clock = _Clock()
        agg, rollout, applied = _rig(clock, bake=0.5)
        rollout.start()
        clock.t = 1.0
        agg.ingest(_record("c1", 1, 1.0, rate=500.0))
        assert rollout.poll() == "promoted"
        before = list(applied)
        assert rollout.poll() == "promoted"
        assert applied == before

    def test_pending_poll_returns_pending(self):
        clock = _Clock()
        _agg, rollout, _applied = _rig(clock)
        assert rollout.poll() == "pending"


class TestRollback:
    def test_canary_breach_reverts_canaries_only(self):
        clock = _Clock()
        agg, rollout, applied = _rig(
            clock, bake=5.0, canaries=("c1",), targets=("c1", "s1")
        )
        rollout.start()
        clock.t = 1.0
        agg.ingest(_record("c1", 1, 1.0, rate=2.0))  # trickle: breach
        rollout.poll()
        assert rollout.state == "rolled_back"
        assert applied == [("apply", "c1"), ("revert", "c1")]
        assert rollout.trigger["source"] == "c1"
        assert rollout.trigger["slo"] == "rate"
        assert [e["kind"] for e in rollout.events] == ["apply", "rollback"]

    def test_control_breach_does_not_trip_the_gate(self):
        clock = _Clock()
        agg, rollout, _applied = _rig(clock, bake=1.0)
        rollout.start()
        clock.t = 0.5
        agg.ingest(_record("s1", 1, 0.5, rate=2.0))  # control degrades
        agg.ingest(_record("c1", 1, 0.5, rate=500.0))
        rollout.poll()
        assert rollout.state == "canary"
        clock.t = 1.5
        agg.ingest(_record("c1", 2, 1.5, rate=500.0))
        assert rollout.poll() == "promoted"

    def test_breach_predating_the_rollout_is_ignored(self):
        clock = _Clock()
        agg, rollout, _applied = _rig(clock, bake=1.0)
        agg.ingest(_record("c1", 1, 0.2, rate=2.0))  # old wound
        clock.t = 1.0
        rollout.start()
        clock.t = 1.5
        agg.ingest(_record("c1", 2, 1.5, rate=500.0))
        rollout.poll()
        assert rollout.state == "canary"

    def test_source_mapping_widens_the_canary_set(self):
        clock = _Clock()
        agg = TelemetryAggregator(window=2.0)
        agg.add_slo(SLO("rate", sli_counter_rate("tx"), threshold=100.0))
        change = ConfigChange("x", lambda t: None, lambda t: None)
        rollout = CanaryRollout(
            change, agg, targets={"c1": "c1"}, canaries=["c1"],
            clock=clock, sources={"c1": ["c1.north", "c1.south"]},
        )
        rollout.start()
        clock.t = 1.0
        agg.ingest(_record("c1.south", 1, 1.0, rate=2.0))
        rollout.poll()
        assert rollout.state == "rolled_back"
        assert rollout.trigger["source"] == "c1.south"


class TestDrivers:
    def test_stats_is_json_able(self):
        import json

        clock = _Clock()
        agg, rollout, _applied = _rig(clock, bake=0.5)
        rollout.start()
        clock.t = 1.0
        agg.ingest(_record("c1", 1, 1.0, rate=500.0))
        rollout.poll()
        stats = json.loads(json.dumps(rollout.stats()))
        assert stats["state"] == "promoted"
        assert stats["change"] == "tuner-v2"
        assert stats["canaries"] == ["c1"]
        assert stats["events"] == ["apply", "promote"]

    def test_run_promotes_on_the_event_loop(self):
        clock = _Clock()
        agg, rollout, _applied = _rig(clock, bake=0.1)
        rollout.poll_seconds = 0.01

        async def drive():
            async def feed():
                for step in range(1, 30):
                    clock.t = step * 0.01
                    agg.ingest(_record("c1", step, clock.t, rate=500.0))
                    await asyncio.sleep(0.005)
                    if rollout.done:
                        break

            feeder = asyncio.ensure_future(feed())
            state = await rollout.run(ASYNCIO)
            await feeder
            return state

        assert asyncio.run(drive()) == "promoted"
