"""Scenarios whose one builder also runs live: their checks on real sockets.

``wan_transfer_routed``, ``mux_fanin`` and ``mux_starvation`` are the sim
builders handed a :class:`~repro.chaos.live.LiveChaosScenario`; only the
numbers in their geometry tables differ.  Each keeps the polarity or the
post-checks it has in simulated time.

Marked ``live_chaos``: ``LIVE_CHAOS_SEED`` selects the seed and
``LIVE_CHAOS_BUNDLE_DIR`` makes failures drop postmortem bundles.
"""

import os

import pytest

from repro.chaos import run_chaos

pytestmark = [pytest.mark.livenet, pytest.mark.live_chaos]

SEED = int(os.environ.get("LIVE_CHAOS_SEED", "1"))
BUNDLE_DIR = os.environ.get("LIVE_CHAOS_BUNDLE_DIR")

#: the primary relay dies mid-stream and restarts a second later
RELAY_CRASH = "relay_kill@0.3:relay=r1,for=1"


def _run(scenario: str, plan: str = "", sessions: bool = False,
         until: float = 30.0):
    return run_chaos(
        scenario=scenario,
        backend="live",
        seed=SEED,
        plan=plan,
        sessions=sessions,
        until=until,
        bundle_dir=BUNDLE_DIR,
    )


class TestRoutedTransfer:
    def test_relay_crash_is_survived_with_sessions(self):
        report = _run("wan_transfer_routed", RELAY_CRASH, sessions=True)
        assert report.ok, report.violations
        assert [e["kind"] for e in report.injected] == ["relay_kill"]
        assert report.stats["session_reconnects"] >= 1

    def test_relay_crash_is_fatal_without_sessions(self):
        report = _run("wan_transfer_routed", RELAY_CRASH, until=8.0)
        assert not report.ok
        assert report.stats["session_reconnects"] == 0


class TestMux:
    def test_fanin_channels_finish_together(self):
        report = _run("mux_fanin")
        assert report.ok, report.violations
        assert len(report.channels) == 32
        assert all(c["complete"] for c in report.channels)

    def test_interactive_channel_is_not_starved_by_bulk(self):
        report = _run("mux_starvation")
        assert report.ok, report.violations
        assert {c["name"] for c in report.channels} == {"bulk", "interactive"}
