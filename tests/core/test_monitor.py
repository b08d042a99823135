"""Path monitoring + automated stack selection (§8)."""

import pytest

from repro.core.monitor import PathEstimate, PathMonitor, select_spec
from repro.core.scenarios import GridScenario
from repro.core.utilization.spec import StackSpec


def _measure(capacity, one_way_delay, kind_a="firewall", kind_b="firewall", seed=81):
    sc = GridScenario(seed=seed)
    queue = max(65536, int(capacity * 2 * one_way_delay))
    sc.add_site(
        "A", kind_a, access_delay=one_way_delay / 2, access_bandwidth=capacity,
        queue_bytes=queue,
    )
    sc.add_site(
        "B", kind_b, access_delay=one_way_delay / 2, access_bandwidth=capacity,
        queue_bytes=queue,
    )
    a = sc.add_node("A", "a")
    b = sc.add_node("B", "b")
    res = {}

    async def initiator():
        await a.start()
        while not b.relay_client.connected:
            await sc.sim.timeout(0.05)
        service = await a.open_service_link("b")
        monitor = PathMonitor(a)
        res["estimate"] = await monitor.estimate(service, b.info)
        await monitor.finish(service)

    async def responder():
        await b.start()
        _peer, service = await b.accept_service_link()
        monitor = PathMonitor(b)
        await monitor.serve(service)

    sc.sim.process(initiator())
    sc.sim.process(responder())
    sc.run(until=600)
    assert "estimate" in res, "probe never completed"
    return res["estimate"]


class TestPathMonitor:
    def test_rtt_measured_accurately(self):
        est = _measure(capacity=4e6, one_way_delay=0.02)
        assert est.rtt == pytest.approx(0.04, rel=0.3)

    def test_narrow_link_measured_near_capacity(self):
        est = _measure(capacity=1e6, one_way_delay=0.005)
        # Low BDP: a single stream sees the true capacity.
        assert est.capacity == pytest.approx(1e6, rel=0.4)
        assert not est.window_limited
        assert est.probe_streams == 1

    def test_fat_link_detected_as_window_limited(self):
        est = _measure(capacity=9e6, one_way_delay=0.0215)
        assert est.probe_streams >= 4  # escalation happened
        assert est.window_limited
        assert est.capacity > 2.0 * est.single_stream
        # With escalation to 8 streams the capacity estimate approaches the
        # true 9 MB/s.
        assert est.capacity > 6e6

    def test_probing_works_through_nat(self):
        est = _measure(
            capacity=3e6, one_way_delay=0.01, kind_a="open", kind_b="cone_nat"
        )
        assert est.capacity > 1e6


class TestSelectSpec:
    def _estimate(self, capacity, rtt, single=None):
        single = single if single is not None else min(capacity, 65536 / rtt)
        return PathEstimate(
            rtt=rtt, single_stream=single, capacity=capacity, probe_streams=4
        )

    def test_low_bdp_single_stream(self):
        spec = select_spec(self._estimate(1e6, 0.01), compress_rate=1e5,
                           payload_ratio=1.0)
        assert isinstance(spec, StackSpec)
        assert spec == StackSpec.tcp()
        assert str(spec) == "tcp_block"

    def test_high_bdp_gets_streams(self):
        spec = select_spec(self._estimate(9e6, 0.043), compress_rate=1e5,
                           payload_ratio=1.0)
        assert spec == StackSpec.parallel(8)

    def test_slow_link_fast_cpu_compresses(self):
        spec = select_spec(
            self._estimate(1.6e6, 0.03),
            compress_rate=3.6e6,
            payload_ratio=3.6,
        )
        assert spec.layer("compress") is not None

    def test_fast_link_slow_cpu_skips_compression(self):
        spec = select_spec(
            self._estimate(9e6, 0.043),
            compress_rate=5.2e6,
            payload_ratio=3.6,
        )
        assert "compress" not in spec and "adaptive" not in spec

    def test_unknown_cpu_uses_adaptive(self):
        spec = select_spec(self._estimate(2e6, 0.02))
        assert spec.layers[0].name == "adaptive"
        assert spec.label.endswith("#compressibility-unknown")


class TestEndToEndSelection:
    def test_selected_spec_outperforms_naive_on_fat_link(self):
        """The full §8 loop: probe, select, transfer — beats plain TCP."""
        sc = GridScenario(seed=91)
        for name in ("A", "B"):
            sc.add_site(
                name, "firewall", access_delay=0.0107, access_bandwidth=9e6,
                queue_bytes=int(9e6 * 0.043),
            )
        a = sc.add_node("A", "a")
        b = sc.add_node("B", "b")
        res = {}

        async def initiator():
            await a.start()
            while not b.relay_client.connected:
                await sc.sim.timeout(0.05)
            service = await a.open_service_link("b")
            monitor = PathMonitor(a)
            estimate = await monitor.estimate(service, b.info)
            await monitor.finish(service)
            res["spec"] = select_spec(estimate, compress_rate=5e6, payload_ratio=1.0)

        async def responder():
            await b.start()
            _peer, service = await b.accept_service_link()
            monitor = PathMonitor(b)
            await monitor.serve(service)

        sc.sim.process(initiator())
        sc.sim.process(responder())
        sc.run(until=600)
        assert res["spec"].bottom.name == "parallel"
        assert res["spec"].links_required >= 4
        assert res["spec"].label  # the decision is recorded for the axis
