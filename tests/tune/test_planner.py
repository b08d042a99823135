"""TunePlanner: the pure half of the closed-loop tuner.

Covers the BDP/stream-count formulas (with the clamp-order fix: loss
headroom applies *before* the ``max_streams`` clamp), the ``TunerPolicy``
re-export, and the per-knob planning rules —
window-limited capacity escalation, replay/credit-window sizing and the
compression verdict.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tune import (
    HEADROOM,
    LinkSignals,
    TunePlanner,
    TunerPolicy,
    estimate_bdp,
    loss_headroom,
    recommend_streams,
)
from repro.tune.planner import (
    COMPRESS_MARGIN,
    LOSS_GAIN,
    LOSS_HEADROOM_MAX,
    MAX_MUX_WINDOW,
    MAX_RCVBUF,
    MIN_MUX_WINDOW,
    MIN_REPLAY,
    REPLAY_FACTOR,
)


class TestLossHeadroom:
    def test_clean_path_pays_nothing(self):
        assert loss_headroom(0.0) == 1.0

    def test_paper_loss_rate(self):
        # Amsterdam-Rennes 0.25% loss: ~1.4x provisioning.
        assert loss_headroom(0.0025) == pytest.approx(
            1.0 + LOSS_GAIN * math.sqrt(0.0025)
        )

    def test_capped(self):
        assert loss_headroom(0.25) == LOSS_HEADROOM_MAX

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            loss_headroom(-0.1)
        with pytest.raises(ValueError):
            loss_headroom(1.0)

    @given(st.floats(min_value=0.0, max_value=0.999))
    def test_monotone_and_bounded(self, loss):
        h = loss_headroom(loss)
        assert 1.0 <= h <= LOSS_HEADROOM_MAX
        assert loss_headroom(min(loss * 2, 0.999)) >= h


class TestClampOrder:
    """Loss headroom applies before the max_streams clamp."""

    def test_loss_free_matches_old_formula(self):
        # The absorbed formula at loss=0: identical recommendations.
        assert recommend_streams(9e6, 0.043, 65536) == 8
        assert recommend_streams(1.6e6, 0.030, 65536) == 1
        assert recommend_streams(1e9, 0.2, 65536, max_streams=16) == 16

    def test_lossy_path_earns_recovery_streams(self):
        clean = recommend_streams(9e6, 0.043, 65536, loss_rate=0.0)
        lossy = recommend_streams(9e6, 0.043, 65536, loss_rate=0.01)
        assert lossy > clean

    def test_clamped_once_at_the_end(self):
        # Near the clamp, loss headroom still lands ON the clamp — the
        # old clamp-first order would have frozen the clean value and
        # denied the recovery streams entirely.
        clean = recommend_streams(15e6, 0.043, 65536, max_streams=16)
        assert clean < 16
        lossy = recommend_streams(15e6, 0.043, 65536, max_streams=16,
                                  loss_rate=0.02)
        assert lossy == 16

    @given(
        st.floats(min_value=1e5, max_value=1e9),
        st.floats(min_value=1e-4, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.4),
    )
    def test_loss_never_reduces_streams(self, capacity, rtt, loss):
        clean = recommend_streams(capacity, rtt, 65536)
        lossy = recommend_streams(capacity, rtt, 65536, loss_rate=loss)
        assert 1 <= clean <= lossy <= 16


class TestDeprecationShim:
    def test_tuner_policy_both_import_paths(self):
        policy = TunerPolicy("steady", pace=0.05, chunk=8192)
        assert policy.rate == pytest.approx(8192 / 0.05)


def _signals(**kw):
    defaults = dict(rtt=0.05, capacity=2e6, goodput=1e6, loss_rate=0.0,
                    streams_active=2)
    defaults.update(kw)
    return LinkSignals(**defaults)


class TestCapacityEstimate:
    def test_takes_max_of_capacity_and_goodput(self):
        planner = TunePlanner(rcvbuf=65536)
        cap, escalated = planner.capacity_estimate(
            _signals(capacity=1e6, goodput=0.5e6, streams_active=1))
        assert cap == 1e6 and not escalated

    def test_window_limited_escalates(self):
        planner = TunePlanner(rcvbuf=65536, window_limited_threshold=0.75,
                              escalation=1.5)
        # window bound = 2 * 65536 / 0.05 = 2.62 MB/s; goodput 2.4 is
        # within 75% of it -> the windows are the visible limit.
        cap, escalated = planner.capacity_estimate(
            _signals(capacity=0.0, goodput=2.4e6, streams_active=2))
        assert escalated
        assert cap == pytest.approx(2.4e6 * 1.5)

    def test_unsaturated_is_taken_at_face_value(self):
        planner = TunePlanner(rcvbuf=65536)
        cap, escalated = planner.capacity_estimate(
            _signals(capacity=0.0, goodput=0.5e6, streams_active=2))
        assert cap == 0.5e6 and not escalated


class TestPlan:
    def test_no_opinion_without_measurements(self):
        planner = TunePlanner()
        assert dict(planner.plan(LinkSignals()).knobs()) == {}
        assert dict(planner.plan(LinkSignals(rtt=0.05)).knobs()) == {}

    def test_streams_follow_bdp(self):
        planner = TunePlanner(rcvbuf=65536, max_streams=16)
        plan = planner.plan(_signals(capacity=9e6, rtt=0.043, goodput=0.0,
                                     streams_active=8))
        assert plan.streams == recommend_streams(9e6, 0.043, 65536)

    def test_replay_buffer_is_two_bdps(self):
        planner = TunePlanner()
        plan = planner.plan(_signals(capacity=2e6, goodput=0.0, rtt=0.05,
                                     streams_active=2))
        assert REPLAY_FACTOR == 2.0
        assert int(2.0 * 2e6 * 0.05) > MIN_REPLAY  # inside the clamp
        assert plan.replay_buffer == int(2.0 * 2e6 * 0.05)

    def test_mux_window_grows_under_credit_stall(self):
        planner = TunePlanner(escalation=1.5)
        calm = planner.plan(_signals(goodput=0.0, credit_stall_rate=0.0))
        stalled = planner.plan(_signals(goodput=0.0, credit_stall_rate=4.0))
        # both inside the clamp
        assert MIN_MUX_WINDOW < 2e6 * 0.05 * HEADROOM
        assert 2e6 * 0.05 * HEADROOM * 1.5 < MAX_MUX_WINDOW
        assert calm.mux_window == int(2e6 * 0.05 * HEADROOM)
        assert stalled.mux_window == int(2e6 * 0.05 * HEADROOM * 1.5)

    def test_mux_window_clamped(self):
        planner = TunePlanner()
        plan = planner.plan(_signals(capacity=1e9, goodput=0.0))
        assert plan.mux_window == MAX_MUX_WINDOW
        tiny = planner.plan(_signals(capacity=1e3, goodput=0.0))
        assert tiny.mux_window == MIN_MUX_WINDOW

    def test_rcvbuf_grows_only_when_streams_saturate(self):
        planner = TunePlanner(rcvbuf=65536, max_streams=4)
        modest = planner.plan(_signals(capacity=2e6, goodput=0.0, rtt=0.05,
                                       streams_active=2))
        assert modest.rcvbuf == 65536
        starved = planner.plan(_signals(capacity=1e8, goodput=0.0, rtt=0.1,
                                        streams_active=4))
        assert starved.streams == 4
        assert starved.rcvbuf > 65536
        assert starved.rcvbuf <= MAX_RCVBUF
        # power-of-two sizing (OS buffer idiom)
        assert starved.rcvbuf & (starved.rcvbuf - 1) == 0

    def test_compress_trusts_measured_preference(self):
        planner = TunePlanner()
        on = planner.plan(_signals(compress_preference="compress"))
        off = planner.plan(_signals(compress_preference="raw"))
        undecided = planner.plan(_signals(compress_preference="undecided"))
        assert (on.compress, off.compress) == ("on", "off")
        assert undecided.compress == "auto"

    def test_compress_crossover_from_rates(self):
        planner = TunePlanner(rcvbuf=65536)
        assert COMPRESS_MARGIN == 1.1
        # Slow wire, fast CPU, compressible payload: compression wins.
        win = planner.plan(_signals(
            capacity=1e6, goodput=0.0, streams_active=1,
            compress_rate=50e6, payload_ratio=3.0))
        assert win.compress == "on"
        # Fast wire dwarfs the CPU: compression would throttle it.
        lose = planner.plan(_signals(
            capacity=50e6, goodput=0.0, streams_active=16,
            compress_rate=3e6, payload_ratio=1.5))
        assert lose.compress == "off"

    def test_attrs_explain_the_plan(self):
        planner = TunePlanner()
        plan = planner.plan(_signals(goodput=0.0, loss_rate=0.0025))
        assert plan.attrs["capacity_bps"] == 2e6
        assert plan.attrs["bdp_bytes"] == pytest.approx(2e6 * 0.05)
        assert plan.attrs["loss_headroom"] == loss_headroom(0.0025)
        assert plan.attrs["window_escalated"] is False

    def test_as_dict_skips_silent_knobs(self):
        planner = TunePlanner()
        plan = planner.plan(_signals(goodput=0.0))
        knobs = plan.as_dict()
        assert set(knobs) == {"streams", "compress", "rcvbuf",
                              "replay_buffer", "mux_window"}
