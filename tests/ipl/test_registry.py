"""The Ibis Name Service."""

import pytest

from repro.core.addressing import EndpointInfo
from repro.ipl.registry import RegistryClient, RegistryError, RegistryServer
from repro.simnet import Internet, connect
from repro.simnet.testing import drive


def _setup(n_clients=2):
    inet = Internet(seed=5)
    server_host = inet.add_public_host("ns")
    server = RegistryServer(server_host, 4100)
    server.start()
    clients = []
    for i in range(n_clients):
        host = inet.add_public_host(f"n{i}")
        clients.append((host, RegistryClient(host, server.addr)))
    return inet, server, clients


def _info(name, ip):
    return EndpointInfo(node_id=name, local_ip=ip)


def test_register_and_lookup_node():
    inet, server, [(h0, c0), (h1, c1)] = _setup()

    async def proc():
        await c0.connect()
        await c0.register("n0", _info("n0", h0.ip))
        await c1.connect()
        info = await c1.lookup_node("n0")
        assert info.node_id == "n0"
        assert info.local_ip == h0.ip

    drive(inet.sim, proc())


def test_duplicate_node_rejected():
    inet, server, [(h0, c0), (h1, c1)] = _setup()

    async def proc():
        await c0.connect()
        await c0.register("same", _info("same", h0.ip))
        await c1.connect()
        with pytest.raises(RegistryError, match="already registered"):
            await c1.register("same", _info("same", h1.ip))

    drive(inet.sim, proc())


def test_lookup_unknown_fails():
    inet, server, [(h0, c0)] = _setup(1)

    async def proc():
        await c0.connect()
        with pytest.raises(RegistryError, match="unknown node"):
            await c0.lookup_node("ghost")

    drive(inet.sim, proc())


def test_port_registration_and_lookup():
    inet, server, [(h0, c0), (h1, c1)] = _setup()

    async def proc():
        await c0.connect()
        await c0.register("owner", _info("owner", h0.ip))
        await c0.register_port("work-in", "owner")
        await c1.connect()
        owner, info = await c1.lookup_port("work-in")
        assert owner == "owner"
        assert info.local_ip == h0.ip

    drive(inet.sim, proc())


def test_port_requires_registered_owner():
    inet, server, [(h0, c0)] = _setup(1)

    async def proc():
        await c0.connect()
        with pytest.raises(RegistryError, match="not registered"):
            await c0.register_port("p", "nobody")

    drive(inet.sim, proc())


def test_unregister_port():
    inet, server, [(h0, c0)] = _setup(1)

    async def proc():
        await c0.connect()
        await c0.register("o", _info("o", h0.ip))
        await c0.register_port("p", "o")
        await c0.unregister_port("p")
        with pytest.raises(RegistryError, match="unknown port"):
            await c0.lookup_port("p")

    drive(inet.sim, proc())


def test_election_first_wins():
    inet, server, [(h0, c0), (h1, c1)] = _setup()

    async def proc():
        await c0.connect()
        await c1.connect()
        first = await c0.elect("leader", "n0")
        second = await c1.elect("leader", "n1")
        assert first == "n0"
        assert second == "n0"  # already decided

    drive(inet.sim, proc())


def test_leave_removes_node_and_its_ports():
    inet, server, [(h0, c0), (h1, c1)] = _setup()

    async def proc():
        await c0.connect()
        await c0.register("o", _info("o", h0.ip))
        await c0.register_port("p", "o")
        await c0.leave("o")
        await c1.connect()
        with pytest.raises(RegistryError):
            await c1.lookup_node("o")
        with pytest.raises(RegistryError):
            await c1.lookup_port("p")

    drive(inet.sim, proc())


def test_disconnect_cleans_up_registration():
    inet, server, [(h0, c0), (h1, c1)] = _setup()
    result = {}

    async def proc0():
        await c0.connect()
        await c0.register("transient", _info("transient", h0.ip))
        c0.close()

    async def proc1():
        await inet.sim.timeout(5.0)
        await c1.connect()
        try:
            await c1.lookup_node("transient")
            result["found"] = True
        except RegistryError:
            result["found"] = False

    inet.sim.process(proc0())
    inet.sim.process(proc1())
    inet.sim.run(until=30)
    assert result["found"] is False


def test_list_nodes():
    inet, server, [(h0, c0), (h1, c1)] = _setup()

    async def proc():
        await c0.connect()
        await c0.register("a", _info("a", h0.ip))
        await c1.connect()
        await c1.register("b", _info("b", h1.ip))
        names = await c1.list_nodes()
        assert sorted(names) == ["a", "b"]

    drive(inet.sim, proc())


def test_oversized_frame_costs_the_sender_its_connection_only():
    """Four bytes from any client used to end the whole run: the session
    loop did not catch the ``WireError`` its own ``recv_frame`` raises."""
    inet, server, [(h0, _c0), (h1, c1)] = _setup()

    async def proc():
        rogue = await connect(h0, server.addr)
        await rogue.send_all(b"\x7f\xff\xff\xff")
        assert (await rogue.recv(1)) == b""  # dropped, without a reply
        await c1.connect()
        await c1.register("n1", _info("n1", h1.ip))
        assert (await c1.list_nodes()) == ["n1"]

    drive(inet.sim, proc())
