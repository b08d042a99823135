"""Rebalancing parallel streams: member death survivability.

ROADMAP session-layer item: when a member link of a parallel utilization
stack dies and cannot resume, its share is rebalanced over the surviving
members instead of failing the transfer.
"""

import pytest

from repro.core.links import TcpLink
from repro.core.utilization import (
    DriverError,
    RebalancingParallelDriver,
    StackSpec,
)
from repro.core.utilization.stack import build_stack
from repro.obs import MetricsRegistry
from repro import obs
from repro.simnet import connect, listen
from repro.simnet.testing import two_public_hosts


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(MetricsRegistry())
    yield
    obs.set_registry(previous)


def _linked_pair(inet, a, b, n, port=5000):
    sim = inet.sim
    out = {}

    async def srv():
        listener = listen(b, port, backlog=n)
        links = []
        for _ in range(n):
            sock = await listener.accept()
            links.append(TcpLink(sock, "client_server"))
        out["b"] = links

    async def cli():
        links = []
        for _ in range(n):
            sock = await connect(a, (b.ip, port))
            links.append(TcpLink(sock, "client_server"))
        out["a"] = links

    sim.process(srv())
    sim.process(cli())
    sim.run(until=sim.now + 30)
    return out["a"], out["b"]


def _exchange(inet, tx, rx, blocks, until=120, expect=None):
    sim = inet.sim
    received = []
    expect = len(blocks) if expect is None else expect

    async def sender():
        for block in blocks:
            await tx.send_block(block)
        tx.close()

    async def receiver():
        while True:
            try:
                block = await rx.recv_block()
            except EOFError:
                return
            received.append(block)
            if len(received) == expect:
                return

    sim.process(sender())
    sim.process(receiver())
    sim.run(until=sim.now + until)
    return received


class TestRebalancingHealthy:
    @pytest.mark.parametrize("nstreams", [1, 2, 4])
    def test_blocks_round_trip_in_order(self, nstreams):
        inet, a, b = two_public_hosts()
        la, lb = _linked_pair(inet, a, b, nstreams)
        blocks = [bytes([i]) * (100 * i + 1) for i in range(20)] + [b""]
        tx = RebalancingParallelDriver(la)
        rx = RebalancingParallelDriver(lb)
        assert _exchange(inet, tx, rx, blocks) == blocks
        assert tx.rebalanced_blocks == 0

    def test_large_blocks(self):
        inet, a, b = two_public_hosts()
        la, lb = _linked_pair(inet, a, b, 3)
        blocks = [bytes(range(256)) * 400 for _ in range(8)]
        tx = RebalancingParallelDriver(la)
        rx = RebalancingParallelDriver(lb)
        assert _exchange(inet, tx, rx, blocks) == blocks

    def test_empty_links_rejected(self):
        with pytest.raises(DriverError):
            RebalancingParallelDriver([])


class TestMemberDeath:
    def test_dead_member_rebalanced_onto_survivors(self):
        """A member that dies before use never carries a block; the
        transfer completes entirely over the survivors."""
        inet, a, b = two_public_hosts()
        la, lb = _linked_pair(inet, a, b, 3)
        la[1].abort()
        blocks = [bytes([i]) * 512 for i in range(12)]
        tx = RebalancingParallelDriver(la)
        rx = RebalancingParallelDriver(lb)
        assert _exchange(inet, tx, rx, blocks) == blocks
        assert tx.alive_members == 2

    def test_mid_transfer_death_retransmits_pending(self):
        """Kill one member mid-transfer: its unacknowledged blocks are
        retransmitted over survivors and arrive exactly once, in order."""
        inet, a, b = two_public_hosts()
        sim = inet.sim
        la, lb = _linked_pair(inet, a, b, 3)
        blocks = [bytes([i]) * 2048 for i in range(30)]
        tx = RebalancingParallelDriver(la)
        rx = RebalancingParallelDriver(lb)
        received = []

        async def sender():
            for i, block in enumerate(blocks):
                if i == 10:
                    # abort both ends so in-flight member data is truly gone
                    la[2].abort()
                    lb[2].abort()
                await tx.send_block(block)
            tx.close()

        async def receiver():
            while len(received) < len(blocks):
                received.append(await rx.recv_block())

        sim.process(sender())
        sim.process(receiver())
        sim.run(until=sim.now + 120)
        assert received == blocks
        assert tx.alive_members == 2

    def test_all_members_dead_fails_sender(self):
        inet, a, b = two_public_hosts()
        sim = inet.sim
        la, lb = _linked_pair(inet, a, b, 2)
        for link in la:
            link.abort()
        tx = RebalancingParallelDriver(la)
        outcome = {}

        async def sender():
            try:
                for _ in range(5):
                    await tx.send_block(b"x" * 100)
                    # death is detected asynchronously by the writer
                    # processes; give them a turn
                    await sim.timeout(0.01)
                outcome["result"] = "sent"
            except DriverError:
                outcome["result"] = "failed"

        sim.process(sender())
        sim.run(until=sim.now + 30)
        assert outcome["result"] == "failed"

    def test_death_metrics(self):
        inet, a, b = two_public_hosts()
        la, lb = _linked_pair(inet, a, b, 2)
        la[0].abort()
        blocks = [b"m" * 256] * 6
        tx = RebalancingParallelDriver(la)
        rx = RebalancingParallelDriver(lb)
        assert _exchange(inet, tx, rx, blocks) == blocks
        deaths = obs.metrics().counter("parallel.member_deaths_total").value
        assert deaths == 1


class TestSpecIntegration:
    def test_rebalance_param_selects_driver(self):
        spec = StackSpec.parse("parallel:3:rebalance=1")
        inet, a, b = two_public_hosts()
        la, lb = _linked_pair(inet, a, b, 3)
        tx = build_stack(spec, la)
        rx = build_stack(spec, lb)
        assert isinstance(tx, RebalancingParallelDriver)
        blocks = [b"spec" * 100] * 4
        assert _exchange(inet, tx, rx, blocks) == blocks

    def test_default_is_deterministic_striping(self):
        from repro.core.utilization import ParallelStreamsDriver

        spec = StackSpec.parse("parallel:2")
        inet, a, b = two_public_hosts()
        la, lb = _linked_pair(inet, a, b, 2)
        assert isinstance(build_stack(spec, la), ParallelStreamsDriver)


class TestSessionMemberDeath:
    def test_unresumable_session_member_rebalances(self):
        """End-to-end through the factory: parallel-over-sessions where one
        member session fails permanently mid-transfer."""
        from repro.core.factory import BrokeredConnectionFactory
        from repro.core.scenarios import GridScenario
        from repro.core.session import SessionLink

        sc = GridScenario(seed=23)
        sc.add_site("A", "firewall")
        sc.add_site("B", "firewall")
        node_a = sc.add_node("A", "a")
        node_b = sc.add_node("B", "b")
        sim = sc.sim
        spec = StackSpec.parse("parallel:2:rebalance=1|session")
        total = 40
        expected = b"".join(bytes([i % 256]) * 4096 for i in range(total))
        res = {}

        async def run_a():
            await node_a.start()
            while not node_b.relay_client.connected:
                await sim.timeout(0.05)
            service = await node_a.open_service_link("b")
            factory = BrokeredConnectionFactory(node_a)
            channel = await factory.connect(service, node_b.info, spec=spec)
            res["tx"] = channel
            for i in range(total):
                await channel.write(bytes([i % 256]) * 4096)
                await channel.flush()
                if i == 15:
                    # permanently fail one member session: abort() is the
                    # "cannot resume" terminal state, so the rebalance
                    # path (not session recovery) must save the transfer
                    member = channel.driver.links[1]
                    assert isinstance(member, SessionLink)
                    member.abort()
                await sim.timeout(0.01)

        async def run_b():
            await node_b.start()
            _peer, service = await node_b.accept_service_link()
            factory = BrokeredConnectionFactory(node_b)
            channel = await factory.accept(service)
            res["data"] = await channel.read_exactly(len(expected))

        sim.process(run_a())
        sim.process(run_b())
        sc.run(until=300)
        assert res.get("data") == expected
        assert res["tx"].driver.alive_members == 1
