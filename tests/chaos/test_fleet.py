"""Fleet-scale fan-in scenario on the flow tier, through the chaos runner."""

import re

import pytest

from repro.chaos import run_chaos
from repro.chaos.fleet import SIZE_CLASSES, FleetScenario
from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def small_fleet(monkeypatch):
    """Shrink the fleet so every test runs in well under a second."""
    monkeypatch.setenv("REPRO_FLEET_ENDPOINTS", "400")
    monkeypatch.setenv("REPRO_FLEET_WAVES", "5")
    obs_metrics().reset()
    yield
    obs_metrics().reset()


# waves start at exactly t=1+5k; 16.2 lands inside wave 3's activity
# window, so the partition stalls its still-running transfers
_PARTITION_PLAN = "link_down@16.2:site=hub,for=2"


def _expected_bytes(endpoints):
    return endpoints // len(SIZE_CLASSES) * sum(SIZE_CLASSES)


class TestRunner:
    def test_partition_heal_resume(self):
        report = run_chaos(
            scenario="fleet_fanin",
            seed=3,
            plan=_PARTITION_PLAN,
            sessions=True,
            until=600.0,
        )
        assert report.ok, report.violations
        assert report.fidelity == "flow"
        stats = report.stats
        assert stats["endpoints"] == 400
        assert stats["flows_completed"] == 400
        assert stats["relay_forwarded_bytes"] == _expected_bytes(400)
        assert stats["relay_forwarded_messages"] == 400
        # the mid-wave partition must have stalled someone
        assert stats["reconnects"] > 0
        assert stats["session_reconnects"] == stats["reconnects"]

    def test_without_sessions_no_resume_accounting(self):
        report = run_chaos(
            scenario="fleet_fanin",
            seed=3,
            plan=_PARTITION_PLAN,
            sessions=False,
            until=600.0,
        )
        assert report.ok, report.violations
        assert report.stats["reconnects"] == 0
        assert report.stats["session_reconnects"] == 0
        assert report.stats["flows_completed"] == 400

    def test_deterministic_replay(self):
        first = run_chaos(
            scenario="fleet_fanin", seed=5, plan=_PARTITION_PLAN,
            sessions=True, until=600.0,
        )
        obs_metrics().reset()
        second = run_chaos(
            scenario="fleet_fanin", seed=5, plan=_PARTITION_PLAN,
            sessions=True, until=600.0,
        )
        assert first.to_json() == second.to_json()

    def test_clean_run_no_faults(self):
        report = run_chaos(
            scenario="fleet_fanin", seed=1, plan="", until=600.0,
        )
        assert report.ok, report.violations
        assert report.stats["reconnects"] == 0
        # solver passes must stay bounded (quantized size classes), not
        # scale per-flow
        assert report.stats["rate_resolves"] < 200


class TestScenarioSurface:
    def test_site_wan_link_targets(self):
        scn = FleetScenario(seed=0, endpoints=8, waves=2)
        hub = scn.site_wan_link("hub")
        assert hub is scn.net.hosts["hub"].uplink
        ep = scn.site_wan_link("ep000003")
        assert ep is scn.net.hosts["ep000003"].uplink
        with pytest.raises(KeyError):
            scn.site_wan_link("nowhere")

    def test_constructor_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_ENDPOINTS", "999")
        scn = FleetScenario(seed=0, endpoints=8, waves=2)
        assert scn.endpoints == 8
        assert scn.waves == 2

    def test_completion_violations_before_run(self):
        scn = FleetScenario(seed=0, endpoints=8, waves=2)
        violations = scn.completion_violations()
        assert violations  # nothing ran yet: expected flows are missing

    def test_completion_violations_clear_after_run(self):
        scn = FleetScenario(seed=0, endpoints=8, waves=2)
        scn.sim.run(until=60.0)
        assert scn.completion_violations() == []
        assert scn.relay.forwarded_messages == 8


# an endpoint of wave 0 (80 endpoints a wave here) and the next endpoint of
# its size class: the classes rotate with the endpoint index
_TARGET = 17
_PARTNER = _TARGET + len(SIZE_CLASSES)


def _drop(done, scn, flow):
    if flow.channel != str(_TARGET):
        done(scn, flow)


def _twice(done, scn, flow):
    done(scn, flow)
    if flow.channel == str(_TARGET):
        done(scn, flow)


def _swap(done, scn, flow):
    # the target completes twice and its partner never: the same flow count
    # and the same byte total, so only a per-endpoint check can tell
    if flow.channel != str(_PARTNER):
        _twice(done, scn, flow)


def _run_with(monkeypatch, defect):
    """A clean run with ``defect`` planted between completion and the hub."""
    done = FleetScenario._flow_done
    monkeypatch.setattr(
        FleetScenario, "_flow_done", lambda scn, flow: defect(done, scn, flow)
    )
    return run_chaos(scenario="fleet_fanin", seed=1, plan="", until=600.0)


def _names(violations, channel) -> bool:
    return any(
        re.search(rf"^fleet: .*\bchannel {channel}\b", v) for v in violations
    )


class TestExactlyOnce:
    """Every endpoint's transfer completes exactly once, or the run fails
    naming the endpoint's channel."""

    @pytest.mark.parametrize(
        "defect, named",
        [
            (_drop, [_TARGET]),
            (_twice, [_TARGET]),
            (_swap, [_TARGET, _PARTNER]),
        ],
        ids=["dropped", "twice", "swapped"],
    )
    def test_planted_defect_fails_the_run(self, monkeypatch, defect, named):
        report = _run_with(monkeypatch, defect)
        assert not report.ok
        for channel in named:
            assert _names(report.violations, channel), report.violations

    def test_swap_keeps_the_totals(self, monkeypatch):
        report = _run_with(monkeypatch, _swap)
        assert report.stats["flows_completed"] == 400
        assert report.stats["relay_forwarded_bytes"] == _expected_bytes(400)

    def test_clean_run_names_no_channel(self):
        report = run_chaos(scenario="fleet_fanin", seed=1, plan="", until=600.0)
        assert not [v for v in report.violations if v.startswith("fleet:")]
        assert report.ok, report.violations
