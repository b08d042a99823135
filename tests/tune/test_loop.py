"""LinkTuner: hysteresis, deadband, polarity and the oscillation bound.

The no-oscillation bound is *provable* — at most one change per knob per
hysteresis window, regardless of what the signals do — so the property
test throws randomized signal traces at the loop and re-derives the
bound independently from the decision log (it does not trust
``check_no_oscillation`` to check itself).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.core.runtime import SimRuntime
from repro.obs import MetricsRegistry
from repro.tune import (
    LinkSignals,
    LinkTuner,
    StaticKnobs,
    TunePlanner,
    gated_apply,
)


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(MetricsRegistry())
    yield
    obs.set_registry(previous)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class ScriptedSource:
    """Replays a list of LinkSignals samples (None = no measurement)."""

    def __init__(self, samples):
        self.samples = list(samples)
        self.index = 0

    def __call__(self):
        if not self.samples:
            return None
        sample = self.samples[min(self.index, len(self.samples) - 1)]
        self.index += 1
        return sample


def _signals(**kw):
    defaults = dict(rtt=0.05, capacity=2e6, goodput=0.0, loss_rate=0.0,
                    streams_active=2)
    defaults.update(kw)
    return LinkSignals(**defaults)


def _tuner(source, knobs, *, clock, hysteresis=3.0, deadband=0.2, **kw):
    return LinkTuner(
        source, knobs, TunePlanner(rcvbuf=65536, max_streams=16),
        clock=clock, interval=0.5, hysteresis=hysteresis,
        deadband=deadband, name="test", **kw)


class TestStep:
    def test_no_signals_no_opinion(self):
        clock = FakeClock()
        tuner = _tuner(ScriptedSource([None]), StaticKnobs(streams=2),
                       clock=clock)
        assert tuner.step() == []
        assert tuner.samples == 0

    def test_applies_plan_to_knobs(self):
        clock = FakeClock()
        knobs = StaticKnobs(streams=1)
        tuner = _tuner(ScriptedSource([_signals(capacity=9e6, rtt=0.043)]),
                       knobs, clock=clock)
        applied = tuner.step()
        assert [d.knob for d in applied] == ["streams"]
        assert knobs.get("streams") == 8
        assert applied[0].old == 1 and applied[0].new == 8

    def test_unsupported_knobs_are_skipped(self):
        clock = FakeClock()
        knobs = StaticKnobs(streams=1)  # no compress/mux_window/...
        tuner = _tuner(ScriptedSource([_signals()]), knobs, clock=clock)
        for decision in tuner.step():
            assert decision.knob == "streams"


class TestHysteresis:
    def test_one_change_per_window(self):
        clock = FakeClock()
        # Capacity whipsaws every sample: the worst-case input.
        flip = [_signals(capacity=9e6), _signals(capacity=0.5e6)] * 10
        knobs = StaticKnobs(streams=2)
        tuner = _tuner(ScriptedSource(flip), knobs, clock=clock,
                       hysteresis=3.0)
        for _ in flip:
            tuner.step()
            clock.advance(0.5)
        assert tuner.suppressed > 0
        assert tuner.check_no_oscillation() == []
        streams = [d for d in tuner.decisions if d.knob == "streams"]
        for prev, cur in zip(streams, streams[1:]):
            assert cur.at - prev.at >= 3.0

    def test_window_reopens_after_hysteresis(self):
        clock = FakeClock()
        knobs = StaticKnobs(streams=2)
        tuner = _tuner(
            ScriptedSource([_signals(capacity=9e6),
                            _signals(capacity=0.5e6)]),
            knobs, clock=clock, hysteresis=3.0)
        tuner.step()
        clock.advance(3.0)  # exactly one full window later
        tuner.step()
        assert len(tuner.decisions) == 2
        assert tuner.check_no_oscillation() == []

    def test_suppression_is_counted(self):
        clock = FakeClock()
        knobs = StaticKnobs(streams=2)
        tuner = _tuner(
            ScriptedSource([_signals(capacity=9e6),
                            _signals(capacity=0.5e6)]),
            knobs, clock=clock, hysteresis=10.0)
        tuner.step()
        clock.advance(0.5)
        tuner.step()
        assert len(tuner.decisions) == 1
        assert tuner.suppressed == 1
        reg = obs.metrics()
        assert reg.counter("tune.suppressed_total", link="test").value == 1


class TestDeadband:
    def test_small_jitter_is_ignored(self):
        clock = FakeClock()
        knobs = StaticKnobs(streams=8)
        # 9e6 -> 8 streams; small capacity jitter keeps proposing 7-8.
        jitter = [_signals(capacity=9e6, rtt=0.043),
                  _signals(capacity=8.5e6, rtt=0.043)] * 5
        tuner = _tuner(ScriptedSource(jitter), knobs, clock=clock,
                       deadband=0.25)
        for _ in jitter:
            tuner.step()
            clock.advance(0.5)
        assert [d for d in tuner.decisions if d.knob == "streams"] == []

    def test_string_knobs_compare_exactly(self):
        clock = FakeClock()
        knobs = StaticKnobs(compress="auto")
        tuner = _tuner(
            ScriptedSource([_signals(compress_preference="compress")]),
            knobs, clock=clock)
        tuner.step()
        assert knobs.get("compress") == "on"

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            _tuner(ScriptedSource([]), StaticKnobs(), clock=FakeClock(),
                   deadband=1.5)
        with pytest.raises(ValueError):
            LinkTuner(ScriptedSource([]), StaticKnobs(),
                      clock=FakeClock(), interval=0.0)


class TestPolarity:
    def test_capacity_drop_sheds_streams(self):
        clock = FakeClock()
        knobs = StaticKnobs(streams=8)
        tuner = _tuner(ScriptedSource([_signals(capacity=0.5e6)]), knobs,
                       clock=clock)
        tuner.step()
        assert knobs.get("streams") < 8

    def test_loss_earns_streams(self):
        clock = FakeClock()
        clean = StaticKnobs(streams=1)
        lossy = StaticKnobs(streams=1)
        _tuner(ScriptedSource([_signals(capacity=9e6, rtt=0.043)]),
               clean, clock=clock).step()
        _tuner(ScriptedSource(
            [_signals(capacity=9e6, rtt=0.043, loss_rate=0.01)]),
            lossy, clock=clock).step()
        assert lossy.get("streams") > clean.get("streams")

    def test_credit_stall_grows_mux_window(self):
        clock = FakeClock()
        calm = StaticKnobs(mux_window=1 << 14)
        stalled = StaticKnobs(mux_window=1 << 14)
        _tuner(ScriptedSource([_signals()]), calm, clock=clock).step()
        _tuner(ScriptedSource([_signals(credit_stall_rate=5.0)]),
               stalled, clock=clock).step()
        assert stalled.get("mux_window") > calm.get("mux_window")

    def test_route_table_fed_every_step(self):
        class Table:
            def __init__(self):
                self.updates = []

            def update_path(self, relay_id, rtt, loss=None):
                self.updates.append((relay_id, rtt, loss))

        clock = FakeClock()
        table = Table()
        tuner = _tuner(
            ScriptedSource([_signals(loss_rate=0.01)] * 3),
            StaticKnobs(streams=2), clock=clock,
            route_table=table, relay_id="r1")
        for _ in range(3):
            tuner.step()
            clock.advance(0.5)
        assert len(table.updates) == 3
        relay, rtt, loss = table.updates[0]
        assert relay == "r1" and rtt == 0.05 and loss == pytest.approx(0.01)


class TestOscillationProperty:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e5, max_value=1e8),   # capacity
                st.floats(min_value=1e-3, max_value=0.5),  # rtt
                st.floats(min_value=0.0, max_value=0.3),   # loss
                st.floats(min_value=0.0, max_value=10.0),  # stall rate
            ),
            min_size=2, max_size=40,
        ),
        st.floats(min_value=0.5, max_value=5.0),  # hysteresis
    )
    def test_randomized_traces_never_flip_within_a_window(
            self, trace, hysteresis):
        clock = FakeClock()
        samples = [
            _signals(capacity=cap, rtt=rtt, loss_rate=loss,
                     credit_stall_rate=stall)
            for cap, rtt, loss, stall in trace
        ]
        knobs = StaticKnobs(streams=2, compress="auto",
                            mux_window=1 << 14, replay_buffer=1 << 16,
                            rcvbuf=65536)
        tuner = _tuner(ScriptedSource(samples), knobs, clock=clock,
                       hysteresis=hysteresis)
        for _ in samples:
            tuner.step()
            clock.advance(0.25)
        assert tuner.check_no_oscillation() == []
        # Independent re-derivation of the bound from the decision log.
        by_knob = {}
        for decision in tuner.decisions:
            by_knob.setdefault(decision.knob, []).append(decision.at)
        for times in by_knob.values():
            for prev, cur in zip(times, times[1:]):
                assert cur - prev >= hysteresis - 1e-9

    def test_check_flags_a_violated_bound(self):
        # Regression guard for the checker itself: a hand-forged pair of
        # decisions inside one window must be reported.
        from repro.tune.loop import TunerDecision

        clock = FakeClock()
        tuner = _tuner(ScriptedSource([]), StaticKnobs(), clock=clock,
                       hysteresis=3.0)
        tuner.decisions = [
            TunerDecision(1.0, "streams", 2, 4),
            TunerDecision(2.0, "streams", 4, 2),
        ]
        violations = tuner.check_no_oscillation()
        assert len(violations) == 1
        assert "streams" in violations[0]


class _Breach:
    slo = "goodput_floor"
    source = "wan"
    value = 0.0
    threshold = 1.0

    def as_dict(self):
        return {"slo": self.slo, "source": self.source}


class _StubAggregator:
    """breaches_since stub: healthy or breached, by construction."""

    def __init__(self, breached=False):
        self.breached = breached

    def breaches_since(self, since, sources=None):
        return [_Breach()] if self.breached else []


class TestGatedApply:
    def _run(self, breached):
        from repro.simnet.testing import two_public_hosts

        inet, _a, _b = two_public_hosts()
        sim = inet.sim
        knobs = StaticKnobs(streams=2)
        aggregator = _StubAggregator(breached=breached)
        tuner = LinkTuner(
            ScriptedSource([_signals(capacity=9e6, rtt=0.043)]),
            knobs, TunePlanner(rcvbuf=65536),
            clock=lambda: sim.now, interval=0.5, hysteresis=3.0,
            apply_via=gated_apply(
                aggregator, canary="wan", bake_seconds=2.0,
                poll_seconds=0.5, runtime=SimRuntime(sim),
                clock=lambda: sim.now),
            name="wan")

        def drive():
            yield sim.timeout(0.5)
            tuner.step()

        sim.process(drive(), name="tuner")
        sim.run(until=10)
        return knobs, tuner

    def test_healthy_change_is_applied_and_promoted(self):
        knobs, tuner = self._run(breached=False)
        assert knobs.get("streams") == 8
        assert len(tuner.decisions) == 1
        assert tuner.decisions[0].gated
        assert [r.state for r in tuner.rollouts] == ["promoted"]

    def test_breaching_change_is_reverted(self):
        knobs, tuner = self._run(breached=True)
        # The gate rolled the knob back to its pre-change value.
        assert knobs.get("streams") == 2
        assert [r.state for r in tuner.rollouts] == ["rolled_back"]


class TestDrivers:
    def test_run_honours_until_and_stop(self):
        from repro.simnet.testing import two_public_hosts

        inet, _a, _b = two_public_hosts()
        sim = inet.sim
        knobs = StaticKnobs(streams=2)
        tuner = LinkTuner(
            ScriptedSource([_signals()] * 100), knobs, TunePlanner(),
            clock=lambda: sim.now, interval=0.5, hysteresis=1.0,
            name="wan")
        sim.process(tuner.run(SimRuntime(sim), until=3.0), name="tuner")
        sim.run(until=10)
        assert 0 < tuner.samples <= 6

    def test_stats_shape(self):
        clock = FakeClock()
        knobs = StaticKnobs(streams=1)
        tuner = _tuner(ScriptedSource([_signals(capacity=9e6, rtt=0.043)]),
                       knobs, clock=clock)
        tuner.step()
        stats = tuner.stats()
        assert stats["link"] == "test"
        assert stats["samples"] == 1
        assert stats["changes"] == len(stats["decisions"]) == 1
        decision = stats["decisions"][0]
        assert decision["knob"] == "streams"
        assert decision["old"] == 1 and decision["new"] == 8
