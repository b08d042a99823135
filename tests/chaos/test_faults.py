"""FaultPlan parsing/canonicalization and individual fault injection."""

import pytest

from repro.chaos import (
    ConntrackFlush,
    FaultPlan,
    FaultPlanError,
    FaultScheduler,
    LinkDown,
    LossBurst,
    NatExpiry,
    PeerDrop,
    RelayCrash,
    require_tier,
)
from repro.core.scenarios import GridScenario

DEMO = "relay_crash@2:for=8;link_down@12:site=A,for=0.4;link_down@13.5:site=B,for=0.4"


# -- plan parsing -------------------------------------------------------------


def test_parse_round_trips_canonical_form():
    plan = FaultPlan.parse(DEMO)
    assert plan.spec() == DEMO
    assert FaultPlan.parse(plan.spec()) == plan
    assert len(plan) == 3


def test_plan_is_canonically_ordered():
    a = FaultPlan.of(LinkDown(at=12.0, site="A", duration=0.4), RelayCrash(at=2.0, duration=8.0))
    b = FaultPlan.of(RelayCrash(at=2.0, duration=8.0), LinkDown(at=12.0, site="A", duration=0.4))
    assert a == b
    assert a.spec() == b.spec()
    assert [f.at for f in a] == [2.0, 12.0]


def test_parse_all_kinds():
    plan = FaultPlan.parse(
        "link_down@1:site=A,for=2;loss_burst@2:site=B,loss=0.5,for=1;"
        "relay_crash@3:for=5;peer_drop@4:node=alice;"
        "conntrack_flush@5:site=A;nat_expiry@6:site=B"
    )
    kinds = [f.kind for f in plan]
    assert kinds == [
        "link_down", "loss_burst", "relay_crash",
        "peer_drop", "conntrack_flush", "nat_expiry",
    ]
    assert FaultPlan.parse(plan.spec()) == plan


def test_empty_plan():
    assert len(FaultPlan.parse("")) == 0
    assert FaultPlan.parse("").spec() == ""


@pytest.mark.parametrize(
    "bad",
    [
        "meteor@1",                    # unknown kind
        "relay_crash",                 # missing @time
        "relay_crash@soon",            # unparsable time
        "link_down@1:site",            # argument without '='
        "link_down@1:planet=mars",     # unknown argument
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(FaultPlanError):
        FaultPlan.parse(bad)


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["--plan", "bogus@x"], "bad fault 'bogus@x'"),
        (["--scenario", "fleet_fanin",
          "--plan", "wan_degrade@3:site=hub,scale=4,for=2"],
         "not available on the 'flow' tier"),
    ],
)
def test_cli_refuses_a_plan_with_a_usage_error(argv, reason, capsys):
    from repro.chaos.__main__ import main

    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("python -m repro.chaos: error: --plan: ")
    assert reason in err
    assert "Traceback" not in err


# -- injection ----------------------------------------------------------------


@pytest.fixture
def scenario():
    scn = GridScenario(seed=3)
    scn.add_site("A", "firewall")
    scn.add_site("B", "cone_nat")
    return scn


def test_link_down_flap_heals(scenario):
    plan = FaultPlan.parse("link_down@1:site=A,for=2")
    sched = FaultScheduler(scenario, plan)
    sched.arm()
    link = scenario.site_wan_link("A")
    scenario.sim.run(until=1.5)
    assert link.down
    scenario.sim.run(until=4.0)
    assert not link.down
    assert [e["kind"] for e in sched.injected] == ["link_down"]
    assert [e["kind"] for e in sched.healed] == ["link_down"]


def test_loss_burst_restores_previous_rate(scenario):
    link = scenario.site_wan_link("B")
    plan = FaultPlan.of(LossBurst(at=1.0, site="B", loss=0.9, duration=1.0))
    FaultScheduler(scenario, plan).arm()
    scenario.sim.run(until=1.5)
    assert link.a_to_b.loss == 0.9 and link.b_to_a.loss == 0.9
    scenario.sim.run(until=3.0)
    assert link.a_to_b.loss == 0.0 and link.b_to_a.loss == 0.0


@pytest.mark.parametrize("loss", [1.5, -0.5, 1.0])
def test_loss_burst_rejects_a_loss_outside_the_unit_interval(scenario, loss):
    link = scenario.site_wan_link("B")
    plan = FaultPlan.of(LossBurst(at=1.0, site="B", loss=loss, duration=1.0))
    FaultScheduler(scenario, plan).arm()
    with pytest.raises(FaultPlanError, match="loss_burst"):
        scenario.sim.run(until=1.5)
    assert link.a_to_b.loss == 0.0 and link.b_to_a.loss == 0.0


@pytest.mark.parametrize("loss", [0.0, 0.999])
def test_loss_burst_accepts_a_loss_in_the_unit_interval(scenario, loss):
    link = scenario.site_wan_link("B")
    plan = FaultPlan.of(LossBurst(at=1.0, site="B", loss=loss, duration=1.0))
    FaultScheduler(scenario, plan).arm()
    scenario.sim.run(until=1.5)
    assert link.a_to_b.loss == loss and link.b_to_a.loss == loss


def test_each_fault_names_the_tiers_that_express_it():
    plan = FaultPlan.parse("link_down@1:site=B,for=1;loss_burst@2:site=B,"
                           "loss=0.1,for=1;wan_degrade@3:site=B,for=1")
    require_tier(plan, "packet")  # every kind works on the packet tier
    with pytest.raises(FaultPlanError, match=r"\['wan_degrade'\]"):
        require_tier(plan, "flow")  # the flow tier has no queue to scale


def test_wan_degrade_is_still_accepted_on_the_packet_tier(scenario):
    link = scenario.site_wan_link("B")
    bandwidth = link.a_to_b.bandwidth
    plan = FaultPlan.parse("wan_degrade@1:site=B,scale=4,for=1")
    FaultScheduler(scenario, plan).arm()
    scenario.sim.run(until=1.5)
    assert link.a_to_b.bandwidth == bandwidth / 4
    scenario.sim.run(until=2.5)
    assert link.a_to_b.bandwidth == bandwidth


def test_wan_degrade_rejects_a_loss_outside_the_unit_interval(scenario):
    plan = FaultPlan.parse("wan_degrade@1:site=B,scale=2,loss=1.5,for=1")
    FaultScheduler(scenario, plan).arm()
    with pytest.raises(FaultPlanError, match="wan_degrade"):
        scenario.sim.run(until=1.5)
    assert scenario.site_wan_link("B").a_to_b.loss == 0.0


def test_relay_crash_drops_sessions_then_restarts(scenario):
    node = scenario.add_node("A", "alice")

    async def boot():
        await node.start()

    scenario.sim.process(boot())
    FaultScheduler(
        scenario, FaultPlan.of(RelayCrash(at=1.0, duration=2.0))
    ).arm()
    scenario.sim.run(until=1.5)
    assert not scenario.relay.sessions
    assert not node.relay_client.connected
    scenario.sim.run(until=5.0)
    # Relay is back and accepting (no auto_reconnect: the node stays out).
    assert scenario.relay._listener is not None


def test_peer_drop_and_middlebox_faults(scenario):
    node = scenario.add_node("B", "bob")

    async def boot():
        await node.start()

    scenario.sim.process(boot())
    plan = FaultPlan.of(
        PeerDrop(at=1.0, node="bob"),
        ConntrackFlush(at=1.5, site="A"),
        NatExpiry(at=1.5, site="B"),
    )
    sched = FaultScheduler(scenario, plan)
    sched.arm()
    scenario.sim.run(until=3.0)
    assert not node.relay_client.connected
    assert len(sched.injected) == 3
    # NAT table was populated by bob's relay session, then expired.
    nat_event = [e for e in sched.injected if e["kind"] == "nat_expiry"][0]
    assert nat_event["mappings"] >= 1
    assert not scenario.site_nat("B")._out_map


def test_injection_emits_chaos_trace_events(scenario):
    from repro import obs

    prev = obs.set_tracer(obs.TraceRecorder())
    try:
        FaultScheduler(
            scenario, FaultPlan.parse("link_down@1:site=A,for=0.5")
        ).arm()
        scenario.sim.run(until=2.0)
        active = obs.tracer()
        assert len(active.events("chaos.injected")) == 1
        assert len(active.events("chaos.heal")) == 1
        assert len(active.spans("chaos.inject")) == 1
    finally:
        obs.set_tracer(prev)
