"""Flow-level simulation tier: rate model, solver, lifecycle, faults."""

import math

import pytest

from repro.simnet.flow import (
    MSS,
    PIPE_UTILIZATION,
    WINDOW_EFFICIENCY,
    WIRE_EFFICIENCY,
    FlowNetwork,
    aimd_rate,
    slow_start_penalty,
)


def _goodput(capacity):
    return capacity * WIRE_EFFICIENCY * PIPE_UTILIZATION


def dumbbell(capacity=2_000_000.0, delay=0.01, loss=0.0):
    net = FlowNetwork()
    net.add_host("wan")
    net.add_host("a", "wan", bandwidth=capacity, delay=delay, loss=loss)
    net.add_host("b", "wan", bandwidth=capacity, delay=delay)
    return net


class TestAimdRate:
    def test_loss_free_is_window_bound(self):
        rtt = 0.04
        expected = WINDOW_EFFICIENCY * 65536.0 / MSS
        expected = max(1.0, expected) * MSS / rtt
        assert aimd_rate(rtt, 0.0) == pytest.approx(expected)

    def test_heavy_loss_follows_mathis_scaling(self):
        # deep in the loss-limited regime, rate ~ 1/sqrt(p)
        r1 = aimd_rate(0.03, 0.01)
        r2 = aimd_rate(0.03, 0.04)
        assert r1 / r2 == pytest.approx(2.0, rel=0.01)

    def test_loss_monotonic(self):
        rates = [aimd_rate(0.04, p) for p in (0.0, 1e-5, 1e-4, 1e-3, 1e-2)]
        assert rates == sorted(rates, reverse=True)
        # even rare loss costs something against the loss-free ceiling
        assert rates[1] < rates[0]

    def test_streams_add_linearly(self):
        one = aimd_rate(0.03, 0.001)
        assert aimd_rate(0.03, 0.001, streams=8) == pytest.approx(8 * one)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            aimd_rate(0.0, 0.0)
        with pytest.raises(ValueError):
            aimd_rate(0.03, 1.0)
        with pytest.raises(ValueError):
            aimd_rate(0.03, 0.0, streams=0)


class TestSlowStartPenalty:
    def test_small_window_is_free(self):
        assert slow_start_penalty(MSS / 0.04, 0.04) == 0.0

    def test_large_window_pays_rtts(self):
        rate = 256 * MSS / 0.04  # W = 256 segments
        penalty = slow_start_penalty(rate, 0.04)
        assert penalty == pytest.approx(0.04 * (math.log2(256) - 3.0))


class TestSolver:
    def test_single_flow_gets_its_ceiling(self):
        net = dumbbell(capacity=20_000_000.0)
        flow = net.start_flow("a", "b", 1 << 20)
        net.sim.run(until=0.2)
        assert flow.state == "active"
        assert flow.rate == pytest.approx(flow.ceiling)

    def test_bottleneck_shared_fairly(self):
        net = dumbbell(capacity=1_000_000.0)
        flows = [net.start_flow("a", "b", 8 << 20) for _ in range(4)]
        net.sim.run(until=0.5)
        fair = _goodput(1_000_000.0) / 4
        for f in flows:
            assert f.rate == pytest.approx(fair)

    def test_max_min_with_mixed_ceilings(self):
        # two flows share a 2 MB/s pipe; one is window-capped well below
        # its fair share, the other picks up the slack
        net = FlowNetwork()
        net.add_host("wan")
        net.add_host("a", "wan", bandwidth=2_000_000.0, delay=0.05)
        net.add_host("b", "wan", bandwidth=2_000_000.0, delay=0.0001)
        net.add_host("c", "wan", bandwidth=2_000_000.0, delay=0.0001)
        small = net.start_flow("a", "c", 8 << 20, rwnd=16384.0)
        big = net.start_flow("b", "c", 8 << 20)
        net.sim.run(until=0.5)
        bottleneck = _goodput(2_000_000.0)
        assert small.rate == pytest.approx(small.ceiling)
        assert small.ceiling < bottleneck / 2
        assert big.rate == pytest.approx(
            min(big.ceiling, bottleneck - small.ceiling)
        )

    def test_completion_frees_bandwidth(self):
        net = dumbbell(capacity=1_000_000.0)
        short = net.start_flow("a", "b", 100_000)
        long = net.start_flow("a", "b", 4 << 20)
        net.sim.run(until=120.0)
        assert short.state == "done" and long.state == "done"
        assert short.finished_at < long.finished_at
        assert long.delivered == pytest.approx(4 << 20, abs=1.0)

    def test_completion_time_matches_rate_integral(self):
        net = dumbbell(capacity=2_000_000.0)
        size = 2 << 20
        flow = net.start_flow("a", "b", size)
        net.sim.run(until=60.0)
        rate = min(flow.ceiling, _goodput(2_000_000.0))
        expected = flow.active_from + size / rate
        assert flow.finished_at == pytest.approx(expected, rel=1e-6)

    def test_done_event_triggers(self):
        net = dumbbell()
        flow = net.start_flow("a", "b", 50_000)
        result = net.sim.run_until_triggered(flow.done, limit=30.0)
        assert result is flow
        assert flow.state == "done"

    def test_on_complete_callback(self):
        net = dumbbell()
        seen = []
        net.start_flow("a", "b", 50_000, on_complete=seen.append)
        net.sim.run(until=30.0)
        assert len(seen) == 1 and seen[0].state == "done"

    def test_heap_drains_after_completion(self):
        net = dumbbell()
        net.start_flow("a", "b", 50_000)
        net.sim.run(until=200.0)
        assert net.sim.pending == 0

    def test_stats_accounting(self):
        net = dumbbell()
        net.start_flow("a", "b", 50_000)
        net.start_flow("a", "b", 60_000)
        net.sim.run(until=30.0)
        stats = net.stats()
        assert stats["flows_started"] == 2
        assert stats["flows_completed"] == 2
        assert stats["flows_active"] == 0
        assert stats["delivered_bytes"] == pytest.approx(110_000, abs=1.0)


class TestFaults:
    def test_link_down_stalls_and_heals(self):
        net = dumbbell(capacity=1_000_000.0)
        flow = net.start_flow("a", "b", 4 << 20)
        link = net.hosts["a"].uplink
        net.sim.call_at(1.0, link.set_down, True)
        net.sim.call_at(3.0, link.set_down, False)
        net.sim.run(until=2.0)
        assert flow.state == "active" and flow.rate == 0.0
        delivered_mid = flow.delivered
        net.sim.run(until=60.0)
        assert flow.state == "done"
        # the two down seconds moved the completion, not the byte count
        assert flow.delivered == pytest.approx(4 << 20, abs=1.0)
        assert flow.finished_at > 3.0
        assert delivered_mid < 4 << 20

    def test_link_change_subscribers_fire(self):
        net = dumbbell()
        events = []
        net.on_link_change.append(lambda link, down: events.append(down))
        link = net.hosts["a"].uplink
        link.set_down(True)
        link.set_down(True)  # no transition, no callback
        link.set_down(False)
        assert events == [True, False]

    def test_abort_keeps_partial_bytes(self):
        net = dumbbell(capacity=1_000_000.0)
        flow = net.start_flow("a", "b", 8 << 20)
        net.sim.run(until=2.0)
        flow.abort()
        assert flow.state == "aborted"
        assert 0 < flow.delivered < 8 << 20
        net.sim.run(until=120.0)
        assert net.flows_aborted == 1
        assert net.sim.pending == 0

    def test_abort_wakes_a_done_waiter(self):
        net = dumbbell(capacity=1_000_000.0)
        flow = net.start_flow("a", "b", 8 << 20)
        woke = []

        def waiter():
            ended = yield flow.done
            woke.append((net.sim.now, ended, ended.state))

        net.sim.process(waiter())
        net.sim.call_at(2.0, flow.abort)
        net.sim.run(until=120.0)
        assert woke == [(2.0, flow, "aborted")]
        assert net.sim.pending == 0

    def test_done_first_asked_after_abort_is_triggered(self):
        net = dumbbell(capacity=1_000_000.0)
        completed = []
        flow = net.start_flow("a", "b", 8 << 20, on_complete=completed.append)
        net.sim.run(until=2.0)
        flow.abort()
        assert flow.done.triggered and flow.done.value is flow
        net.sim.run(until=120.0)
        # on_complete stays completion-only
        assert completed == []

    def test_loss_burst_alias_surface(self):
        # chaos LossBurst retunes a_to_b/b_to_a loss on the link
        net = dumbbell()
        link = net.hosts["a"].uplink
        link.a_to_b.retune(loss=0.02)
        link.b_to_a.retune(loss=0.02)
        lossy = net.start_flow("a", "b", 1 << 20)
        clean_net = dumbbell()
        clean = clean_net.start_flow("a", "b", 1 << 20)
        assert lossy.ceiling < clean.ceiling


class TestTopology:
    def test_route_walks_lca(self):
        net = FlowNetwork()
        net.add_host("root")
        net.add_host("agg1", "root")
        net.add_host("agg2", "root")
        net.add_host("leaf1", "agg1")
        net.add_host("leaf2", "agg2")
        pipes, rtt, loss = net.route("leaf1", "leaf2")
        assert len(pipes) == 4  # leaf1 up, agg1 up, agg2 down, leaf2 down
        assert loss == 0.0

    def test_asymmetric_delay_halves_sum_into_rtt(self):
        net = FlowNetwork()
        net.add_host("wan")
        net.add_host("a", "wan", delay=0.030, delay_back=0.010)
        net.add_host("b", "wan", delay=0.005)
        link = net.hosts["a"].uplink
        assert link.delay_ab == 0.030
        assert link.delay_ba == 0.010
        assert link.rtt == pytest.approx(0.040)
        _, rtt, _ = net.route("a", "b")
        assert rtt == pytest.approx(0.040 + 0.010)

    def test_duplicate_host_rejected(self):
        net = FlowNetwork()
        net.add_host("root")
        with pytest.raises(ValueError):
            net.add_host("root")

    def test_second_root_rejected(self):
        net = FlowNetwork()
        net.add_host("root")
        with pytest.raises(ValueError):
            net.add_host("other")

    def test_self_flow_rejected(self):
        net = FlowNetwork()
        net.add_host("root")
        net.add_host("a", "root")
        with pytest.raises(ValueError):
            net.start_flow("a", "a", 1000)
