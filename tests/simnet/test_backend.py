"""Leak probes: both simulation tiers' networks name what is still alive,
and the chaos invariants read them through ``scenario.backend``."""

from repro.chaos.fleet import FleetScenario
from repro.chaos.invariants import check_invariants
from repro.core.scenarios import GridScenario
from repro.simnet import FlowNetwork
from repro.simnet.sockets import connect, listen
from repro.simnet.testing import two_public_hosts

LEAK = "resources: leaked connection"


def _leaks(violations):
    return [v for v in violations if v.startswith(LEAK)]


class TestPacketLiveConnections:
    def test_open_connection_is_reported(self):
        inet, a, b = two_public_hosts(seed=1)
        assert inet.net.live_connections() == []

        def server():
            listener = listen(b, 5001)
            yield from listener.accept()

        def client():
            yield from connect(a, (b.ip, 5001))

        inet.sim.process(server())
        inet.sim.process(client())
        inet.sim.run(until=5.0)
        leaks = inet.net.live_connections()
        assert len(leaks) >= 2  # both ends of the established connection
        assert any("ESTABLISHED" in leak for leak in leaks)


class TestFlowLiveConnections:
    def test_in_flight_flow_is_reported(self):
        net = FlowNetwork()
        net.add_host("wan")
        net.add_host("a", "wan", bandwidth=1e6, delay=0.01)
        net.add_host("b", "wan", bandwidth=1e6, delay=0.01)
        net.start_flow("a", "b", 4 << 20, name="bulk")
        net.sim.run(until=1.0)
        leaks = net.live_connections()
        assert len(leaks) == 1
        assert "bulk" in leaks[0] and "active" in leaks[0]
        net.sim.run(until=120.0)
        assert net.live_connections() == []
        assert net.sim.pending == 0


class TestLeakInvariants:
    """``check_invariants`` reports a leak on either tier, and only then."""

    @staticmethod
    def _grid_run(close: bool) -> list:
        scn = GridScenario(seed=1)
        a = scn.inet.add_public_host("a")
        b = scn.inet.add_public_host("b")

        def server():
            conn = yield from listen(b, 5001).accept()
            if close:
                conn.close()

        def client():
            conn = yield from connect(a, (b.ip, 5001))
            if close:
                conn.close()

        scn.sim.process(server())
        scn.sim.process(client())
        scn.sim.run(until=5.0)
        scn.shutdown()
        scn.sim.run(until=scn.sim.now + 120.0)
        return check_invariants(scn, [], [])

    def test_packet_connection_left_open_is_a_leak(self):
        leaks = _leaks(self._grid_run(close=False))
        assert len(leaks) == 2
        assert all("ESTABLISHED" in leak for leak in leaks)

    def test_packet_clean_run_reports_no_leak(self):
        assert self._grid_run(close=True) == []

    def test_flow_in_flight_is_a_leak(self):
        scn = FleetScenario(seed=1, endpoints=20, waves=2)
        scn.sim.run(until=1.3)  # wave 0 is mid-transfer
        leaks = _leaks(check_invariants(scn, [], []))
        assert leaks
        assert all("->hub [" in leak for leak in leaks)

    def test_flow_clean_run_reports_no_leak(self):
        scn = FleetScenario(seed=1, endpoints=20, waves=2)
        scn.sim.run(until=300.0)
        scn.shutdown()
        scn.sim.run(until=scn.sim.now + 60.0)
        assert check_invariants(scn, [], []) == []
