"""Muxed stacks through the brokered factory: one link, many channels."""

import pytest

from repro.core.factory import BrokeredConnectionFactory
from repro.core.scenarios import GridScenario
from repro.core.session import SessionLink
from repro.core.utilization.spec import StackSpec, StackSpecError
from repro.mux import MuxChannel


def _run_channel(kind_a, kind_b, spec, payload, seed=11, until=600):
    spec = StackSpec.parse(spec) if isinstance(spec, str) else spec
    sc = GridScenario(seed=seed)
    sc.add_site("A", kind_a)
    sc.add_site("B", kind_b)
    node_a = sc.add_node("A", "a")
    node_b = sc.add_node("B", "b")
    res = {"node_a": node_a, "node_b": node_b}

    async def run_a():
        await node_a.start()
        while not node_b.relay_client.connected:
            await sc.sim.timeout(0.05)
        service = await node_a.open_service_link("b")
        factory = BrokeredConnectionFactory(node_a)
        channel = await factory.connect(service, node_b.info, spec=spec)
        await channel.send_message(payload)
        res["echo"] = await channel.recv_message()
        res["channel"] = channel
        channel.close()

    async def run_b():
        await node_b.start()
        _peer, service = await node_b.accept_service_link()
        factory = BrokeredConnectionFactory(node_b)
        channel = await factory.accept(service)
        msg = await channel.recv_message()
        res["received"] = msg
        await channel.send_message(msg)
        res["channel_b"] = channel

    sc.sim.process(run_a())
    sc.sim.process(run_b())
    sc.run(until=until)
    return res


PAYLOAD = bytes(range(256)) * 64


def _bottom_links(channel):
    driver = channel.driver
    while hasattr(driver, "child"):
        driver = driver.child
    if hasattr(driver, "links"):
        return list(driver.links)
    return [driver.link]


class TestSpecMux:
    def test_with_mux_round_trips(self):
        spec = StackSpec.tcp().with_mux(window=32768)
        assert str(spec) == "tcp_block|mux:32768"
        assert StackSpec.parse(str(spec)) == spec
        assert spec.mux.get("win") == 32768
        assert spec.without_mux() == StackSpec.tcp()

    def test_with_mux_is_single_shot(self):
        spec = StackSpec.tcp().with_mux()
        with pytest.raises(StackSpecError):
            spec.with_mux()

    def test_session_composes_in_either_builder_order(self):
        a = StackSpec.tcp().with_mux().with_session()
        b = StackSpec.tcp().with_session().with_mux()
        assert str(a) == str(b) == "tcp_block|session|mux"

    def test_mux_must_sit_at_the_bottom(self):
        with pytest.raises(StackSpecError):
            StackSpec.parse("mux|tcp_block")
        with pytest.raises(StackSpecError):
            StackSpec.parse("tcp_block|mux|session")
        spec = StackSpec.parse("compress|parallel:4|session|mux:win=8192")
        assert spec.links_required == 4
        assert spec.mux.get("win") == 8192

    def test_scheduler_param_round_trips(self):
        spec = StackSpec.tcp().with_mux(scheduler="drr")
        assert StackSpec.parse(str(spec)).mux.get("sched") == "drr"


class TestFactoryMux:
    @pytest.mark.parametrize(
        "spec",
        ["tcp_block|mux", "parallel:4|mux", "compress|tcp_block|mux",
         "compress|parallel:2|mux:win=16384"],
    )
    def test_muxed_specs_between_firewalled_sites(self, spec):
        res = _run_channel("firewall", "firewall", spec, PAYLOAD)
        assert res["echo"] == PAYLOAD
        assert res["received"] == PAYLOAD

    def test_parallel_channels_share_one_physical_link(self):
        res = _run_channel("firewall", "cone_nat", "parallel:4|mux", PAYLOAD)
        links = _bottom_links(res["channel"])
        assert len(links) == 4
        assert all(isinstance(l, MuxChannel) for l in links)
        endpoints = {l._ep for l in links}
        assert len(endpoints) == 1, "channels must share one mux endpoint"

    def test_responder_joins_initiator_trace(self):
        res = _run_channel("open", "open", "tcp_block|mux", PAYLOAD)
        links = _bottom_links(res["channel_b"])
        assert links[0].ctx is not None

    def test_second_connect_reuses_shared_endpoint(self):
        """Two muxed conversations between the same peer pair share one
        carrier link: the second connect skips establishment entirely."""
        from repro import obs
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
        previous = obs.set_tracer(recorder)
        try:
            sc = GridScenario(seed=31)
            sc.add_site("A", "firewall")
            sc.add_site("B", "firewall")
            node_a = sc.add_node("A", "a")
            node_b = sc.add_node("B", "b")
            sim = sc.sim
            spec = StackSpec.parse("tcp_block|mux")
            res = {}

            async def run_a():
                await node_a.start()
                while not node_b.relay_client.connected:
                    await sim.timeout(0.05)
                factory = BrokeredConnectionFactory(node_a)
                channels = []
                for i in range(2):
                    service = await node_a.open_service_link("b")
                    ch = await factory.connect(
                        service, node_b.info, spec=spec
                    )
                    await ch.send_message(b"conv-%d" % i)
                    channels.append(ch)
                res["channels"] = channels

            async def run_b():
                await node_b.start()
                factory = BrokeredConnectionFactory(node_b)
                got = []
                for _ in range(2):
                    _peer, service = await node_b.accept_service_link()
                    ch = await factory.accept(service)
                    got.append(await ch.recv_message())
                res["got"] = got

            sim.process(run_a())
            sim.process(run_b())
            sc.run(until=600)
            assert res["got"] == [b"conv-0", b"conv-1"]
            eps = {_bottom_links(ch)[0]._ep for ch in res["channels"]}
            assert len(eps) == 1, "second connect must reuse the endpoint"
            reused = [
                r for r in recorder.records
                if r.get("name") == "mux.endpoint_reused"
            ]
            assert len(reused) == 1
        finally:
            obs.set_tracer(previous)

    def test_ipl_ports_share_one_muxed_data_link(self):
        """Two IPL port connects to the same peer with a muxed spec ride
        one shared carrier: the node's factory caches the endpoint."""
        sc = GridScenario(seed=37)
        sc.add_site("A", "firewall")
        sc.add_site("B", "firewall")
        alpha = sc.add_ibis("A", "alpha")
        beta = sc.add_ibis("B", "beta")
        spec = StackSpec.tcp().with_mux()
        res = {}

        async def receiver():
            await beta.start()
            in1 = await beta.create_receive_port("in1")
            in2 = await beta.create_receive_port("in2")
            res["m1"] = (await in1.receive()).read_int()
            res["m2"] = (await in2.receive()).read_int()

        async def sender():
            await alpha.start()
            sp1 = alpha.create_send_port("out1")
            sp2 = alpha.create_send_port("out2")
            for sp, target in ((sp1, "in1"), (sp2, "in2")):
                while True:
                    try:
                        await sp.connect(target, spec=spec)
                        break
                    except Exception:
                        await sc.sim.timeout(0.2)
            for sp, value in ((sp1, 7), (sp2, 8)):
                m = sp.new_message()
                m.write_int(value)
                await m.finish()
            res["eps"] = {
                _bottom_links(ch)[0]._ep
                for sp in (sp1, sp2)
                for ch in sp.channels.values()
            }

        sc.sim.process(receiver())
        sc.sim.process(sender())
        sc.run(until=120)
        assert res.get("m1") == 7 and res.get("m2") == 8
        assert len(res["eps"]) == 1, "port connects must share the carrier"

    def test_session_under_mux_clamps_replay_window(self):
        res = _run_channel(
            "firewall", "firewall", "tcp_block|session|mux:win=8192", PAYLOAD
        )
        assert res["echo"] == PAYLOAD
        sessions = [
            s for s in res["node_a"].sessions._sessions.values()
            if s.role == SessionLink.INITIATOR
        ]
        assert sessions, "initiator session missing"
        assert all(s.config.max_buffer == 8192 for s in sessions)
        # the session link wraps a mux channel, not a raw link
        assert all(isinstance(s._raw, MuxChannel) for s in sessions)
