"""Send/receive ports and the Ibis runtime, end to end over the grid."""

import array

import pytest

from repro.core.scenarios import GridScenario
from repro.core.utilization.spec import StackSpec
from repro.ipl.ports import PortClosed


def _two_node_setup(kind_a="open", kind_b="open", seed=31, **ibis_kwargs):
    sc = GridScenario(seed=seed)
    sc.add_site("A", kind_a)
    sc.add_site("B", kind_b)
    ia = sc.add_ibis("A", "alpha", **ibis_kwargs)
    ib = sc.add_ibis("B", "beta", **ibis_kwargs)
    return sc, ia, ib


async def _connect_with_retry(sc, send_port, target, spec=None):
    while True:
        try:
            await send_port.connect(target, spec=spec)
            return
        except Exception:
            await sc.sim.timeout(0.2)


class TestBasicMessaging:
    def test_one_message(self):
        sc, ia, ib = _two_node_setup()
        res = {}

        async def receiver():
            await ib.start()
            port = await ib.create_receive_port("in")
            msg = await port.receive()
            res["value"] = msg.read_int()
            res["origin"] = msg.origin
            msg.finish()

        async def sender():
            await ia.start()
            sp = ia.create_send_port("out")
            await _connect_with_retry(sc, sp, "in")
            m = sp.new_message()
            m.write_int(99)
            await m.finish()

        sc.sim.process(receiver())
        sc.sim.process(sender())
        sc.run(until=60)
        assert res == {"value": 99, "origin": "alpha"}

    def test_fifo_ordering(self):
        sc, ia, ib = _two_node_setup()
        res = {"got": []}

        async def receiver():
            await ib.start()
            port = await ib.create_receive_port("in")
            for _ in range(10):
                msg = await port.receive()
                res["got"].append(msg.read_int())

        async def sender():
            await ia.start()
            sp = ia.create_send_port("out")
            await _connect_with_retry(sc, sp, "in")
            for i in range(10):
                m = sp.new_message()
                m.write_int(i)
                await m.finish()

        sc.sim.process(receiver())
        sc.sim.process(sender())
        sc.run(until=60)
        assert res["got"] == list(range(10))

    def test_typed_payloads_across_firewalls(self):
        sc, ia, ib = _two_node_setup("firewall", "firewall")
        res = {}

        async def receiver():
            await ib.start()
            port = await ib.create_receive_port("in")
            msg = await port.receive()
            res["s"] = msg.read_string()
            res["arr"] = list(msg.read_array())
            res["obj"] = msg.read_object()
            msg.finish()

        async def sender():
            await ia.start()
            sp = ia.create_send_port("out")
            await _connect_with_retry(sc, sp, "in")
            m = sp.new_message()
            m.write_string("résult")
            m.write_array(array.array("d", [0.5, 1.5]))
            m.write_object({"k": (1, 2)})
            await m.finish()

        sc.sim.process(receiver())
        sc.sim.process(sender())
        sc.run(until=120)
        assert res == {"s": "résult", "arr": [0.5, 1.5], "obj": {"k": (1, 2)}}


class TestGroupCommunication:
    def test_one_send_port_to_many_receive_ports(self):
        """§5: 'one send port might be connected to multiple receive ports'."""
        sc = GridScenario(seed=33)
        sc.add_site("A", "open")
        sc.add_site("B", "firewall")
        sc.add_site("C", "cone_nat")
        sender_ibis = sc.add_ibis("A", "root")
        workers = [sc.add_ibis(s, f"w{i}") for i, s in enumerate(["B", "C"])]
        res = {}

        async def worker(ibis, i):
            await ibis.start()
            port = await ibis.create_receive_port(f"worker-{i}")
            msg = await port.receive()
            res[f"w{i}"] = msg.read_string()

        async def root():
            await sender_ibis.start()
            sp = sender_ibis.create_send_port("bcast")
            for i in range(2):
                await _connect_with_retry(sc, sp, f"worker-{i}")
            m = sp.new_message()
            m.write_string("broadcast!")
            await m.finish()

        for i, w in enumerate(workers):
            sc.sim.process(worker(w, i))
        sc.sim.process(root())
        sc.run(until=240)
        assert res == {"w0": "broadcast!", "w1": "broadcast!"}

    def test_many_send_ports_to_one_receive_port(self):
        """§5: '... and vice versa' — fan-in with per-sender origin."""
        sc = GridScenario(seed=34)
        sc.add_site("A", "open")
        sc.add_site("B", "firewall")
        sc.add_site("C", "open")
        sink = sc.add_ibis("A", "sink")
        sources = [sc.add_ibis(s, f"src{i}") for i, s in enumerate(["B", "C"])]
        res = {"got": {}}

        async def sink_proc():
            await sink.start()
            port = await sink.create_receive_port("gather")
            for _ in range(2):
                msg = await port.receive()
                res["got"][msg.origin] = msg.read_int()

        async def source_proc(ibis, value):
            await ibis.start()
            sp = ibis.create_send_port("out")
            await _connect_with_retry(sc, sp, "gather")
            m = sp.new_message()
            m.write_int(value)
            await m.finish()

        sc.sim.process(sink_proc())
        for i, src in enumerate(sources):
            sc.sim.process(source_proc(src, i * 10))
        sc.run(until=240)
        assert res["got"] == {"src0": 0, "src1": 10}


class TestRuntimeBehaviour:
    def test_connect_to_unknown_port_fails(self):
        sc, ia, ib = _two_node_setup()
        res = {}

        async def proc():
            await ia.start()
            sp = ia.create_send_port("out")
            try:
                await sp.connect("no-such-port")
            except Exception as exc:
                res["error"] = type(exc).__name__

        sc.sim.process(proc())
        sc.run(until=60)
        assert res["error"] in ("RegistryError", "IbisError")

    def test_custom_stack_spec_per_connection(self):
        sc, ia, ib = _two_node_setup("firewall", "firewall")
        res = {}

        async def receiver():
            await ib.start()
            port = await ib.create_receive_port("in")
            msg = await port.receive()
            res["data"] = msg.read_bytes()

        async def sender():
            await ia.start()
            sp = ia.create_send_port("out")
            await _connect_with_retry(sc, sp, "in", spec=StackSpec.parse("compress|parallel:2"))
            m = sp.new_message()
            m.write_bytes(b"pattern" * 5000)
            await m.finish()

        sc.sim.process(receiver())
        sc.sim.process(sender())
        sc.run(until=120)
        assert res["data"] == b"pattern" * 5000

    def test_send_without_connect_fails(self):
        sc, ia, ib = _two_node_setup()

        async def proc():
            await ia.start()
            sp = ia.create_send_port("out")
            with pytest.raises(PortClosed, match="not connected"):
                sp.new_message()

        sc.sim.process(proc())
        sc.run(until=30)

    def test_election(self):
        sc, ia, ib = _two_node_setup()
        res = {}

        async def a():
            await ia.start()
            res["a"] = await ia.elect("coordinator")

        async def b():
            await ib.start()
            await sc.sim.timeout(5.0)
            res["b"] = await ib.elect("coordinator")

        sc.sim.process(a())
        sc.sim.process(b())
        sc.run(until=60)
        assert res["a"] == res["b"]

    def test_leave_unregisters(self):
        sc, ia, ib = _two_node_setup()
        res = {}

        async def a():
            await ia.start()
            await ia.create_receive_port("temp")
            await ia.leave()
            res["left"] = True

        async def b():
            await ib.start()
            await sc.sim.timeout(10.0)
            sp = ib.create_send_port("out")
            try:
                await sp.connect("temp")
                res["connected"] = True
            except Exception:
                res["connected"] = False

        sc.sim.process(a())
        sc.sim.process(b())
        sc.run(until=120)
        assert res == {"left": True, "connected": False}

    def test_poll_nonblocking(self):
        sc, ia, ib = _two_node_setup()
        res = {}

        async def receiver():
            await ib.start()
            port = await ib.create_receive_port("in")
            res["empty"] = port.poll()
            msg = await port.receive()
            res["value"] = msg.read_int()

        async def sender():
            await ia.start()
            sp = ia.create_send_port("out")
            await _connect_with_retry(sc, sp, "in")
            m = sp.new_message()
            m.write_int(5)
            await m.finish()

        sc.sim.process(receiver())
        sc.sim.process(sender())
        sc.run(until=60)
        assert res == {"empty": None, "value": 5}


class TestFastOpen:
    """PR 8 satellite: the mux OPEN tag carries the port-connect request.

    The first muxed connect to a peer walks the slow path (service link +
    ``REQ_PORT_CONNECT`` round trip) and leaves a shared endpoint behind;
    every later connect to that peer opens a channel whose OPEN tag *is*
    the request, skipping the service link entirely.
    """

    def test_second_connect_rides_the_open_tag(self):
        from repro import obs
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        prev = obs.set_registry(registry)
        try:
            sc, ia, ib = _two_node_setup()
            spec = StackSpec.parse("tcp_block|mux")
            res = {}

            async def receiver():
                await ib.start()
                p1 = await ib.create_receive_port("in1")
                p2 = await ib.create_receive_port("in2")
                m1 = await p1.receive()
                res["v1"] = m1.read_int()
                m1.finish()
                m2 = await p2.receive()
                res["v2"] = m2.read_int()
                res["origin2"] = m2.origin
                m2.finish()

            async def sender():
                await ia.start()
                sp1 = ia.create_send_port("out1")
                sp2 = ia.create_send_port("out2")
                await _connect_with_retry(sc, sp1, "in1", spec=spec)
                await _connect_with_retry(sc, sp2, "in2", spec=spec)
                for sp, value in ((sp1, 1), (sp2, 2)):
                    m = sp.new_message()
                    m.write_int(value)
                    await m.finish()

            sc.sim.process(receiver())
            sc.sim.process(sender())
            sc.run(until=120)
            assert res == {"v1": 1, "v2": 2, "origin2": "alpha"}
            fast = sum(
                c.value for c in registry.instruments("ipl.fast_opens_total")
            )
            assert fast == 1, "second connect should ride the OPEN tag"
        finally:
            obs.set_registry(prev)

    def test_non_mux_spec_never_fast_opens(self):
        from repro import obs
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        prev = obs.set_registry(registry)
        try:
            sc, ia, ib = _two_node_setup()
            res = {}

            async def receiver():
                await ib.start()
                p1 = await ib.create_receive_port("in1")
                p2 = await ib.create_receive_port("in2")
                for key, port in (("v1", p1), ("v2", p2)):
                    msg = await port.receive()
                    res[key] = msg.read_int()
                    msg.finish()

            async def sender():
                await ia.start()
                sp1 = ia.create_send_port("out1")
                sp2 = ia.create_send_port("out2")
                await _connect_with_retry(sc, sp1, "in1")
                await _connect_with_retry(sc, sp2, "in2")
                for sp, value in ((sp1, 1), (sp2, 2)):
                    m = sp.new_message()
                    m.write_int(value)
                    await m.finish()

            sc.sim.process(receiver())
            sc.sim.process(sender())
            sc.run(until=120)
            assert res == {"v1": 1, "v2": 2}
            assert not list(registry.instruments("ipl.fast_opens_total"))
        finally:
            obs.set_registry(prev)
