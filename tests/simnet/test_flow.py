"""Flow-level simulation tier: rate model, solver, lifecycle, faults."""

import math

import pytest

from repro.simnet.flow import (
    MSS,
    PIPE_UTILIZATION,
    WINDOW_EFFICIENCY,
    WIRE_EFFICIENCY,
    FlowLink,
    FlowNetwork,
    FlowPipe,
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
        link = net.uplink("a")
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

    def test_stalled_counts_active_flows_held_at_zero(self):
        net = dumbbell(capacity=1_000_000.0)
        net.start_flow("a", "b", 4 << 20)
        net.start_flow("a", "b", 4 << 20)
        link = net.uplink("a")
        net.sim.call_at(1.0, link.set_down, True)
        net.sim.call_at(3.0, link.set_down, False)
        net.sim.run(until=0.5)
        assert net.stalled() == 0
        net.sim.run(until=2.0)
        assert net.stalled() == 2
        # a flow still in its handshake is not stalled, it is pending
        net.start_flow("a", "b", 4 << 20)
        assert net.stalled() == 2
        net.sim.run(until=4.0)
        assert net.stalled() == 0

    def test_link_change_subscribers_fire(self):
        net = dumbbell()
        events = []
        net.on_link_change.append(lambda link, down: events.append(down))
        link = net.uplink("a")
        link.set_down(False)  # already up: no transition, no callback
        link.set_down(True)
        link.set_down(True)  # no transition, no callback
        link.set_down(False)
        assert events == [True, False]

    def test_link_change_subscribers_get_the_link(self):
        net = dumbbell()
        seen = []
        net.on_link_change.append(lambda link, down: seen.append(link))
        net.uplink("a").set_down(True)
        assert seen == [net.uplink("a")] and seen[0] != net.uplink("b")

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
        link = net.uplink("a")
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
        link = net.uplink("a")
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


def three_levels():
    """An asymmetric tree: ``c1`` three levels down one branch, ``a2`` one
    down the other, every link with its own halves and loss."""
    net = FlowNetwork()
    net.add_host("root")
    net.add_host("a1", "root", delay=0.003, delay_back=0.001, loss=0.01)
    net.add_host("b1", "a1", delay=0.0007, delay_back=0.0011, loss=0.003)
    net.add_host("c1", "b1", delay=0.010, delay_back=0.020, loss=0.02)
    net.add_host("a2", "root", delay=0.0013, delay_back=0.0029, loss=0.007)
    return net


class TestViews:
    """Links and pipes are handles on the network's rows, made on demand."""

    def test_links_and_pipes_compare_and_hash_by_network_and_row(self):
        net, other = dumbbell(), dumbbell()
        a = net.uplink("a")
        assert a == net.uplink("a") and hash(a) == hash(net.uplink("a"))
        assert len({a, net.uplink("a"), net.uplink("b")}) == 2
        assert a != net.uplink("b")
        assert a != other.uplink("a")  # same row, another network
        assert a.to_parent == net.uplink("a").a_to_b == FlowPipe(net, 2 * a.index)
        assert a.to_child == a.b_to_a != a.to_parent
        assert a.to_parent.link == a == a.to_child.link
        # a link and a pipe on the same row number are different things
        assert FlowLink(net, 2) != FlowPipe(net, 2)

    def test_rows_follow_add_order(self):
        net = dumbbell()
        assert net.names == ["wan", "a", "b"]
        assert [net.hosts[name] for name in net.names] == [0, 1, 2]
        assert net.parent == [-1, 0, 0] and net.depth == [0, 1, 1]
        assert net.uplink("b").to_parent.index == 4
        assert net.uplink("b").to_child.index == 5

    def test_the_root_has_no_uplink(self):
        net = dumbbell()
        with pytest.raises(KeyError):
            net.uplink("wan")
        with pytest.raises(KeyError):
            net.uplink("nowhere")

    def test_names_are_derived(self):
        net = three_levels()
        link = net.uplink("c1")
        assert link.name == "c1~b1"
        assert link.to_parent.name == "c1~b1:up"
        assert link.to_child.name == "c1~b1:down"

    def test_link_surface_reads_the_columns(self):
        net = FlowNetwork()
        net.add_host("wan")
        net.add_host(
            "a", "wan", bandwidth=3e6, down_bandwidth=5e6,
            delay=0.030, delay_back=0.010, loss=0.01,
        )  # fmt: skip
        link = net.uplink("a")
        assert (link.bandwidth, link.delay_ab, link.delay_ba) == (3e6, 0.030, 0.010)
        assert (link.to_parent.capacity, link.to_child.capacity) == (3e6, 5e6)
        assert link.to_parent.loss == link.to_child.loss == 0.01
        assert link.to_child.goodput == 5e6 * WIRE_EFFICIENCY * PIPE_UTILIZATION
        link.to_child.retune(loss=0.2)
        assert (link.to_parent.loss, link.to_child.loss) == (0.01, 0.2)
        assert not link.down
        link.set_down(True)
        assert link.down and link.to_parent.down and link.to_child.down
        assert link.to_parent.goodput == 0.0

    def test_route_on_an_asymmetric_three_level_tree(self):
        net = three_levels()
        hosts = net.hosts
        # (one-way, back, loss) per uplink, as added
        c1 = (0.010, 0.020, 0.02)
        b1 = (0.0007, 0.0011, 0.003)
        a1 = (0.003, 0.001, 0.01)
        a2 = (0.0013, 0.0029, 0.007)
        pipes, rtt, loss = net.route("c1", "a2")
        assert pipes == (
            2 * hosts["c1"], 2 * hosts["b1"], 2 * hosts["a1"], 2 * hosts["a2"] + 1
        )
        # summed and compounded link by link, in the order the walk meets them
        want_rtt = 0.0
        want_rtt += c1[0] + c1[1]
        want_rtt += b1[0] + b1[1]
        want_rtt += (a1[0] + a1[1]) + (a2[0] + a2[1])
        keep = 1.0
        keep *= 1.0 - c1[2]
        keep *= 1.0 - b1[2]
        keep *= (1.0 - a1[2]) * (1.0 - a2[2])
        assert (rtt, loss) == (want_rtt, 1.0 - keep)
        # the other way round the walk climbs from the destination side
        pipes, rtt, loss = net.route("a2", "c1")
        assert pipes == (
            2 * hosts["a2"], 2 * hosts["a1"] + 1, 2 * hosts["b1"] + 1, 2 * hosts["c1"] + 1
        )
        want_rtt = 0.0
        want_rtt += c1[0] + c1[1]
        want_rtt += b1[0] + b1[1]
        want_rtt += (a2[0] + a2[1]) + (a1[0] + a1[1])
        keep = 1.0
        keep *= 1.0 - c1[2]
        keep *= 1.0 - b1[2]
        keep *= (1.0 - a2[2]) * (1.0 - a1[2])
        assert (rtt, loss) == (want_rtt, 1.0 - keep)
