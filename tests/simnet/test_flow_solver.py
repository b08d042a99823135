"""The flow tier's rate solver against its reference, and flow activation.

``FlowNetwork._solve`` collects the flows of a saturated pipe only for the
pipes saturated when a bottleneck round starts.  The reference below is
the water-filling it replaced, which builds one flow list per pipe under
an active flow: on any tree, down pipes and ceilings included, both must
assign every flow the same rate, bit for bit.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simnet import flow as flowmod
from repro.simnet.flow import FlowNetwork, FlowPipe


def reference_solve(net: FlowNetwork) -> list:
    """Max-min rates of the network's active flows (sorted by ceiling), as
    the per-pipe-list water-filling assigns them; leaves the same ``_cap``
    and ``_n`` behind."""
    flows = net._active
    cap, n = net._cap, net._n
    pipes = []
    for f in flows:
        f._fixed = False
        for p in f.path:
            if p not in pipes:
                cap[p] = FlowPipe(net, p).goodput
                n[p] = 0
                pipes.append(p)
            n[p] += 1
    crossing = {p: [] for p in pipes}
    for f in flows:
        for p in f.path:
            crossing[p].append(f)
    unfixed = len(flows)
    ptr = 0
    while unfixed:
        fair = math.inf
        for p in pipes:
            if n[p] > 0 and cap[p] / n[p] < fair:
                fair = cap[p] / n[p]
        if fair is math.inf:
            for f in flows:
                if not f._fixed:
                    flowmod._fix(f, f.ceiling, cap, n)
            break
        thresh = fair * (1.0 + 1e-9) + 1e-12
        progressed = False
        while ptr < len(flows):
            f = flows[ptr]
            if f._fixed:
                ptr += 1
                continue
            if f.ceiling > thresh:
                break
            flowmod._fix(f, f.ceiling, cap, n)
            unfixed -= 1
            ptr += 1
            progressed = True
        if progressed:
            continue
        for p in pipes:
            if n[p] > 0 and cap[p] <= thresh * n[p]:
                for f in crossing[p]:
                    if not f._fixed:
                        flowmod._fix(f, fair, cap, n)
                        unfixed -= 1
    return [f.rate for f in flows]


def _bits(rates: list) -> list:
    return [rate.hex() for rate in rates]


def _solved_both_ways(net: FlowNetwork) -> tuple:
    """``(reference rates, _solve's rates)`` of the network's active flows."""
    want = reference_solve(net)
    net._solve()
    return want, [f.rate for f in net._active]


ROUND_CAPACITIES = st.sampled_from([1e6, 2e6, 2e6, 5e6, 1.25e9])
CAPACITIES = st.one_of(
    ROUND_CAPACITIES,
    # a hair off a round one: fair shares inside the solver's tolerance of
    # each other, where the order pipes are tested in decides the rates
    st.builds(
        lambda capacity, k: capacity * (1.0 + k * 3e-10),
        ROUND_CAPACITIES,
        st.integers(-3, 3),
    ),
    st.floats(min_value=1e5, max_value=2e9),
)

trees = st.lists(
    st.tuples(
        st.integers(0, 10_000),  # parent, mod the hosts placed so far
        CAPACITIES,
        st.sampled_from([0.0001, 0.002, 0.01, 0.05]),  # one-way delay
        st.booleans(),  # link down
    ),
    min_size=1,
    max_size=10,
)
flow_draws = st.lists(
    st.tuples(
        st.integers(0, 10_000),  # src host, mod the host count
        st.integers(0, 10_000),  # dst: src plus 1 + this mod (hosts - 1)
        st.sampled_from([4096.0, 16384.0, 65536.0]),  # rwnd: the ceiling
        st.integers(1, 3),  # streams
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(trees, flow_draws)
# h1 -> h2 and h3 -> h2: h1's uplink sets the share, and h2's downlink is in
# the top half of the tolerance above it, so fixing h1's flow there takes
# h2's downlink back out of the band: its other flow waits for a round of
# its own (each pipe is re-tested when its turn comes)
@example(
    [
        (0, 1e6, 0.0001, False),
        (0, 2e6 * (1.0 + 9e-10), 0.0001, False),
        (0, 1.25e9, 0.0001, False),
    ],
    [(1, 0, 65536.0, 1), (3, 2, 65536.0, 1)],
)
def test_solve_matches_per_pipe_reference(tree, draws):
    net = FlowNetwork()
    net.add_host("h0")
    downs = []
    for i, (parent, capacity, delay, down) in enumerate(tree, start=1):
        net.add_host(f"h{i}", f"h{parent % i}", bandwidth=capacity, delay=delay)
        if down:
            downs.append(net.uplink(f"h{i}"))
    hosts = len(tree) + 1
    for src, offset, rwnd, streams in draws:
        src %= hosts
        dst = (src + 1 + offset % (hosts - 1)) % hosts
        net.start_flow(
            f"h{src}", f"h{dst}", 1e15,
            rwnd=rwnd, streams=streams, setup_delay=0.0,
        )  # fmt: skip
    for link in downs:
        link.set_down(True)
    # every flow past its slow-start ramp, none anywhere near done
    net.sim.run(until=max(f.active_from for f in net.active_flows()) + 1.0)
    assert len(net._active) == len(draws)
    want, got = _solved_both_ways(net)
    assert _bits(got) == _bits(want)


def test_pipe_saturated_late_in_a_round_gets_its_flows(monkeypatch):
    """A pipe that reaches the threshold only after a round has fixed
    flows on another pipe (float rounding, at the tolerance) is found by
    its own scan and fixed at that round's share, as the reference does."""
    net = FlowNetwork()
    net.add_host("core")
    net.add_host("hub", "core", bandwidth=3e6, delay=0.0001)
    net.add_host("x", "core", bandwidth=1e6, delay=0.0001)
    net.add_host("y", "core", bandwidth=1e9, delay=0.0001)
    first = net.start_flow("x", "hub", 1e15, setup_delay=0.0)
    second = net.start_flow("y", "hub", 1e15, setup_delay=0.0)
    net.sim.run(until=1.0)
    hub_down = net.uplink("hub").to_child
    fair = net.uplink("x").to_parent.goodput
    # the hub's pipe is not saturated when the round starts: x's uplink is
    # the one bottleneck, and the hub has room for both flows' share
    assert hub_down.goodput / 2 > fair * (1.0 + 1e-9) + 1e-12
    assert first.ceiling > hub_down.goodput and second.ceiling > hub_down.goodput

    fix = flowmod._fix
    tipped = []

    def fix_then_round_down(f, rate, cap, n):
        fix(f, rate, cap, n)
        if f is first and not tipped:
            # as if fixing ``first`` had rounded the hub's capacity left down
            # to inside the tolerance (the reference sees the same numbers)
            cap[hub_down.index] = fair * (1.0 + 5e-10)
            tipped.append(f)

    monkeypatch.setattr(flowmod, "_fix", fix_then_round_down)
    want = reference_solve(net)
    tipped.clear()
    net._solve()
    assert tipped, "the round never fixed the first flow"
    got = [f.rate for f in net._active]
    assert _bits(got) == _bits(want)
    # fixed in the same round, at its share, not at the next round's
    assert second.rate == first.rate == fair


class TestActivation:
    def _net(self):
        net = FlowNetwork()
        net.add_host("wan")
        for name in "abc":
            net.add_host(name, "wan", bandwidth=2e6, delay=0.01)
        return net

    def test_flows_of_one_instant_share_one_entry_and_keep_start_order(self):
        net = self._net()
        flows = [net.start_flow("a", "b", 1 << 20) for _ in range(4)]
        assert len({f.active_from for f in flows}) == 1
        assert len(net._pending) == 1
        net.sim.run(until=flows[0].active_from + 1e-6)
        assert [f.state for f in flows] == ["active"] * 4
        # equal ceilings: the stable ceiling sort keeps promotion order
        assert net._active == flows

    def test_instants_promote_in_time_then_start_order(self):
        net = self._net()
        late1 = net.start_flow("a", "b", 1 << 20, setup_delay=0.5)
        early = net.start_flow("a", "b", 1 << 20, setup_delay=0.2)
        late2 = net.start_flow("a", "b", 1 << 20, setup_delay=0.5)
        assert len(net._pending) == 2
        assert net.active_flows() == [early, late1, late2]
        net.sim.run(until=late1.active_from + 1e-6)
        assert net._active == [early, late1, late2]
        assert not net._pending and not net._activations

    def test_flow_aborted_while_pending_is_skipped(self):
        net = self._net()
        kept = net.start_flow("a", "b", 50_000)
        dropped = net.start_flow("a", "b", 50_000)
        dropped.abort()
        assert net.stats()["flows_active"] == 1
        assert net.active_flows() == [kept]
        net.sim.run(until=kept.active_from + 1e-6)
        assert net._active == [kept]
        assert dropped.state == "aborted" and dropped.rate == 0.0
        net.sim.run(until=60.0)
        assert kept.state == "done" and dropped.delivered == 0.0
        assert net.sim.pending == 0

    def test_active_flows_and_stats_read_in_flight_flows(self):
        net = self._net()
        now = net.start_flow("a", "c", 8 << 20, setup_delay=0.0)
        soon = net.start_flow("b", "c", 8 << 20, setup_delay=1.0)
        later = net.start_flow("a", "b", 8 << 20, setup_delay=2.0)
        net.sim.run(until=0.5)
        # delivering first, then handshaking by (activation instant, start)
        assert now.state == "active" and soon.state == "pending"
        assert net.active_flows() == [now, soon, later]
        assert net.stats()["flows_active"] == 3
        later.abort()
        assert net.active_flows() == [now, soon]
        assert net.stats()["flows_active"] == 2
        net.sim.run(until=120.0)
        assert net.active_flows() == []
        assert net.stats()["flows_active"] == 0
