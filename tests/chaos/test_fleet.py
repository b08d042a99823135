"""Fleet-scale fan-in scenario on the flow tier, through the chaos runner."""

import re

import pytest

from repro.chaos import FaultPlan, FaultPlanError, FaultScheduler, run_chaos
from repro.chaos.fleet import SIZE_CLASSES, FleetScenario
from repro.chaos.invariants import obs_consistency_violations
from repro.obs import MetricsRegistry, TraceContext, TraceRecorder, read_jsonl
from repro.obs import metrics as obs_metrics
from repro.simnet.engine import Simulator


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
        assert hub == scn.net.uplink("hub")
        ep = scn.site_wan_link("ep000003")
        assert ep == scn.net.uplink("ep000003")
        with pytest.raises(KeyError, match="nowhere"):
            scn.site_wan_link("nowhere")
        with pytest.raises(KeyError, match="core"):  # the root has no uplink
            scn.site_wan_link("core")

    def test_endpoint_link_names(self):
        scn = FleetScenario(seed=0, endpoints=8, waves=2)
        link = scn.site_wan_link("ep000001")
        assert link.name == "ep000001~core"
        assert link.to_parent.name == "ep000001~core:up"
        assert link.to_child.name == "ep000001~core:down"

    def test_wan_degrade_is_refused_before_it_retunes(self):
        scn = FleetScenario(seed=0, endpoints=8, waves=2)
        hub = scn.site_wan_link("hub")
        before = [(p.capacity, p.loss) for p in (hub.a_to_b, hub.b_to_a)]
        plan = FaultPlan.parse("wan_degrade@3:site=hub,scale=4,loss=0.1,for=2")
        refused = r"\['wan_degrade'\].*'flow' tier"
        with pytest.raises(FaultPlanError, match=refused):
            FaultScheduler(scn, plan).arm()  # refused when armed, not at t=3
        scn.sim.run(until=3.5)
        assert [(p.capacity, p.loss) for p in (hub.a_to_b, hub.b_to_a)] == before

    def test_a_plan_the_flow_tier_cannot_express_is_refused_before_the_run(
            self, monkeypatch):
        """The CLI's path: ``run_chaos`` builds the scenario, and arming the
        plan refuses it before the simulator has run a single event."""
        runs = []
        monkeypatch.setattr(Simulator, "run",
                            lambda sim, **kw: runs.append(kw))
        with pytest.raises(FaultPlanError, match="'flow' tier"):
            run_chaos("fleet_fanin", seed=1, sessions=True,
                      plan="link_down@2:site=hub,for=1;"
                           "wan_degrade@3:site=hub,scale=4,for=2")
        assert runs == []

    def test_loss_burst_on_an_endpoint_restores_both_pipes(self):
        scn = FleetScenario(seed=0, endpoints=8, waves=2)
        link = scn.site_wan_link("ep000005")
        link.to_parent.retune(loss=0.01)
        link.to_child.retune(loss=0.02)
        plan = FaultPlan.parse("loss_burst@3:site=ep000005,loss=0.3,for=2")
        FaultScheduler(scn, plan).arm()
        scn.sim.run(until=4.0)
        assert (link.a_to_b.loss, link.b_to_a.loss) == (0.3, 0.3)
        scn.sim.run(until=6.0)
        assert (link.a_to_b.loss, link.b_to_a.loss) == (0.01, 0.02)
        # the other endpoints' links never moved
        assert scn.site_wan_link("ep000004").a_to_b.loss == 0.0

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


def _spans(path, name) -> list:
    return [
        r for r in read_jsonl(str(path))
        if r.get("kind") == "span" and r.get("name") == name
    ]


class TestHealRecord:
    """A healed partition is one ``fleet.heal`` span carrying how many
    transfers it resumed, never a record per stalled endpoint."""

    @pytest.mark.parametrize(
        "plan, heals",
        [
            (_PARTITION_PLAN, 1),
            # the same point of wave 4, which starts at t=21
            (_PARTITION_PLAN + ";link_down@21.2:site=hub,for=2", 2),
        ],
        ids=["one-heal", "two-heals"],
    )
    def test_one_span_per_heal_counting_the_reconnects(
            self, tmp_path, plan, heals):
        trace = tmp_path / "run.jsonl"
        report = run_chaos(
            scenario="fleet_fanin", seed=3, plan=plan, sessions=True,
            until=600.0, trace_path=str(trace),
        )
        assert report.ok, report.violations
        spans = _spans(trace, "fleet.heal")
        assert len(spans) == heals
        assert all(s["attrs"]["resumed"] > 0 for s in spans)
        resumed = sum(s["attrs"]["resumed"] for s in spans)
        assert resumed == report.stats["reconnects"]
        assert resumed == report.stats["session_reconnects"]
        assert _spans(trace, "session.resume") == []

    def test_without_sessions_no_heal_span(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        report = run_chaos(
            scenario="fleet_fanin", seed=3, plan=_PARTITION_PLAN,
            sessions=False, until=600.0, trace_path=str(trace),
        )
        assert report.ok, report.violations
        assert _spans(trace, "fleet.heal") == []


def _accounting(reconnects, *, heals=(), resumes=0):
    """Hand-built records: ``reconnects`` initiator increments, a
    ``fleet.heal`` span per entry of ``heals`` carrying it as ``resumed``,
    and ``resumes`` ok ``session.resume`` spans."""
    registry = MetricsRegistry(clock=lambda: 0.0)
    registry.counter("session.reconnects_total", role="initiator").inc(
        reconnects
    )
    # a responder's reconnects are not the initiator's to narrate
    registry.counter("session.reconnects_total", role="responder").inc(7)
    recorder = TraceRecorder(clock=lambda: 0.0)
    for n in heals:
        recorder.record_span("fleet.heal", 1.0, 2.0, ctx=TraceContext.new(),
                             node="hub", resumed=n)
    for i in range(resumes):
        recorder.record_span("session.resume", 1.0, 2.0,
                             ctx=TraceContext.new(), node=f"n{i}")
    # a resume that failed resumed nothing
    recorder.record_span("session.resume", 1.0, 2.0, ctx=TraceContext.new(),
                         node="n9", outcome="error")
    return obs_consistency_violations(registry, recorder)


def _resume_violation(violations) -> bool:
    return any("session.reconnects_total" in v for v in violations)


class TestResumeAccounting:
    """Initiator reconnects == ok ``session.resume`` spans + the heals'
    ``resumed``, in both polarities, on either tier's records."""

    @pytest.mark.parametrize(
        "reconnects, heals, resumes",
        [
            (200, (200,), 0),  # the flow tier: one heal
            (250, (200, 50), 0),  # two heals sum
            (3, (), 3),  # the packet tier: a span per resume
            (5, (2,), 3),  # both narrate into one counter
            (0, (), 0),
        ],
    )
    def test_matching_records_pass(self, reconnects, heals, resumes):
        assert _accounting(reconnects, heals=heals, resumes=resumes) == []

    @pytest.mark.parametrize(
        "heals", [(199,), (201,), (200, 1), (150, 49)],
        ids=["one-too-few", "one-too-many", "an-extra-heal", "split-short"],
    )
    def test_a_heal_that_miscounts_fails(self, heals):
        violations = _accounting(200, heals=heals)
        assert _resume_violation(violations), violations

    def test_a_heal_without_its_reconnects_fails(self):
        assert _resume_violation(_accounting(0, heals=(200,)))

    def test_a_missing_session_resume_span_fails(self):
        assert _resume_violation(_accounting(3, resumes=2))

    def test_an_extra_session_resume_span_fails(self):
        assert _resume_violation(_accounting(3, resumes=4))
