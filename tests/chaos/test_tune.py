"""Closed-loop tuner convergence under chaos, both backends.

Each ``tune_*`` scenario runs a parallel-stream transfer with a
:class:`~repro.tune.loop.LinkTuner` in the loop and injects a path
change mid-transfer; the scenario's post-checks assert *polarity* (the
controller moved the right knob in the right direction at the right
time) and *stability* (the provable no-oscillation bound held and the
decision count stayed small).  This module re-derives the stability
bound from the report independently — the chaos invariant must not be
the only thing checking itself.
"""

import json
import os

import pytest

from repro.chaos import run_chaos
from repro.chaos.tune import LIVE_TUNE_PLAN, TUNE_PLANS

SEEDS = [1, 2, 3]


def _assert_stable(report):
    tune = report.stats["tune"]
    assert tune["samples"] > 0
    hysteresis = tune["hysteresis"]
    by_knob = {}
    for decision in tune["decisions"]:
        by_knob.setdefault(decision["knob"], []).append(decision["at"])
    for times in by_knob.values():
        for prev, cur in zip(times, times[1:]):
            assert cur - prev >= hysteresis - 1e-9
    return tune


class TestSimConvergence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_degrade_sheds_then_regrows(self, seed):
        report = run_chaos("tune_degrade", seed=seed,
                           plan=TUNE_PLANS["tune_degrade"])
        assert report.ok, report.violations
        assert [e["kind"] for e in report.injected] == ["wan_degrade"]
        tune = _assert_stable(report)
        streams = [d for d in tune["decisions"] if d["knob"] == "streams"]
        assert streams, "the tuner never moved the stream count"
        # Shed to a skeleton crew while degraded, regrew after heal.
        assert min(d["new"] for d in streams) <= 2
        assert streams[-1]["new"] >= 2
        for channel in report.channels:
            assert channel["received_digest"] == channel["sent_digest"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_loss_burst_earns_recovery_streams(self, seed):
        report = run_chaos("tune_loss_burst", seed=seed,
                           plan=TUNE_PLANS["tune_loss_burst"])
        assert report.ok, report.violations
        tune = _assert_stable(report)
        streams = [d for d in tune["decisions"] if d["knob"] == "streams"]
        # Grew during the burst (loss headroom), relaxed after it.
        assert max(d["new"] for d in streams) >= 4
        assert streams[-1]["new"] <= 4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bandwidth_step_tracks_both_edges(self, seed):
        report = run_chaos("tune_bandwidth_step", seed=seed,
                           plan=TUNE_PLANS["tune_bandwidth_step"])
        assert report.ok, report.violations
        tune = _assert_stable(report)
        streams = [d for d in tune["decisions"] if d["knob"] == "streams"]
        assert min(d["new"] for d in streams) <= 2
        assert streams[-1]["new"] >= 2

    def test_oscillation_is_a_hard_violation(self):
        # The stability check rides the standard violations channel: a
        # passing report must carry the tune stats that back it.
        report = run_chaos("tune_degrade", seed=1,
                           plan=TUNE_PLANS["tune_degrade"])
        assert report.ok
        assert "tune" in report.stats
        assert report.stats["tune"]["changes"] <= 8


@pytest.mark.livenet
@pytest.mark.live_chaos
class TestLiveConvergence:
    SEED = int(os.environ.get("LIVE_CHAOS_SEED", "1"))
    BUNDLE_DIR = os.environ.get("LIVE_CHAOS_BUNDLE_DIR")

    def test_latency_fault_moves_the_credit_window(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        report = run_chaos(
            "tune_window",
            backend="live",
            seed=self.SEED,
            plan=LIVE_TUNE_PLAN,
            bundle_dir=self.BUNDLE_DIR,
            trace_path=str(trace),
        )
        assert report.ok, report.violations
        # report.ok includes the mux credit/conservation invariant, and on
        # a live run it now has something to check
        ledger = {
            (m["name"], m["labels"]["node"]): m["value"]
            for m in map(json.loads, trace.read_text().splitlines())
            if m.get("type") == "metric" and m["name"].startswith("mux.")
            and m["labels"].get("channel") == "1"
        }
        moved = ledger[("mux.tx_bytes", "alice")]
        assert moved > 0 and moved == ledger[("mux.rx_bytes", "bob")]
        assert ledger[("mux.credit_granted", "bob")] > 0
        assert report.backend == "live"
        tune = _assert_stable(report)
        windows = [d for d in tune["decisions"]
                   if d["knob"] == "mux_window"]
        assert windows, "the tuner never moved the credit window"
        # Polarity details (grow under inflated RTT, shed after heal,
        # renegotiation observed on the wire) are enforced by the
        # scenario's own post-checks; report.ok carries them.
