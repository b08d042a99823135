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

    def proc():
        yield from c0.connect()
        yield from c0.register("n0", _info("n0", h0.ip))
        yield from c1.connect()
        info = yield from c1.lookup_node("n0")
        assert info.node_id == "n0"
        assert info.local_ip == h0.ip

    drive(inet.sim, proc())


def test_duplicate_node_rejected():
    inet, server, [(h0, c0), (h1, c1)] = _setup()

    def proc():
        yield from c0.connect()
        yield from c0.register("same", _info("same", h0.ip))
        yield from c1.connect()
        with pytest.raises(RegistryError, match="already registered"):
            yield from c1.register("same", _info("same", h1.ip))

    drive(inet.sim, proc())


def test_lookup_unknown_fails():
    inet, server, [(h0, c0)] = _setup(1)

    def proc():
        yield from c0.connect()
        with pytest.raises(RegistryError, match="unknown node"):
            yield from c0.lookup_node("ghost")

    drive(inet.sim, proc())


def test_port_registration_and_lookup():
    inet, server, [(h0, c0), (h1, c1)] = _setup()

    def proc():
        yield from c0.connect()
        yield from c0.register("owner", _info("owner", h0.ip))
        yield from c0.register_port("work-in", "owner")
        yield from c1.connect()
        owner, info = yield from c1.lookup_port("work-in")
        assert owner == "owner"
        assert info.local_ip == h0.ip

    drive(inet.sim, proc())


def test_port_requires_registered_owner():
    inet, server, [(h0, c0)] = _setup(1)

    def proc():
        yield from c0.connect()
        with pytest.raises(RegistryError, match="not registered"):
            yield from c0.register_port("p", "nobody")

    drive(inet.sim, proc())


def test_unregister_port():
    inet, server, [(h0, c0)] = _setup(1)

    def proc():
        yield from c0.connect()
        yield from c0.register("o", _info("o", h0.ip))
        yield from c0.register_port("p", "o")
        yield from c0.unregister_port("p")
        with pytest.raises(RegistryError, match="unknown port"):
            yield from c0.lookup_port("p")

    drive(inet.sim, proc())


def test_election_first_wins():
    inet, server, [(h0, c0), (h1, c1)] = _setup()

    def proc():
        yield from c0.connect()
        yield from c1.connect()
        first = yield from c0.elect("leader", "n0")
        second = yield from c1.elect("leader", "n1")
        assert first == "n0"
        assert second == "n0"  # already decided

    drive(inet.sim, proc())


def test_leave_removes_node_and_its_ports():
    inet, server, [(h0, c0), (h1, c1)] = _setup()

    def proc():
        yield from c0.connect()
        yield from c0.register("o", _info("o", h0.ip))
        yield from c0.register_port("p", "o")
        yield from c0.leave("o")
        yield from c1.connect()
        with pytest.raises(RegistryError):
            yield from c1.lookup_node("o")
        with pytest.raises(RegistryError):
            yield from c1.lookup_port("p")

    drive(inet.sim, proc())


def test_disconnect_cleans_up_registration():
    inet, server, [(h0, c0), (h1, c1)] = _setup()
    result = {}

    def proc0():
        yield from c0.connect()
        yield from c0.register("transient", _info("transient", h0.ip))
        c0.close()

    def proc1():
        yield inet.sim.timeout(5.0)
        yield from c1.connect()
        try:
            yield from c1.lookup_node("transient")
            result["found"] = True
        except RegistryError:
            result["found"] = False

    inet.sim.process(proc0())
    inet.sim.process(proc1())
    inet.sim.run(until=30)
    assert result["found"] is False


def test_list_nodes():
    inet, server, [(h0, c0), (h1, c1)] = _setup()

    def proc():
        yield from c0.connect()
        yield from c0.register("a", _info("a", h0.ip))
        yield from c1.connect()
        yield from c1.register("b", _info("b", h1.ip))
        names = yield from c1.list_nodes()
        assert sorted(names) == ["a", "b"]

    drive(inet.sim, proc())


def test_oversized_frame_costs_the_sender_its_connection_only():
    """Four bytes from any client used to end the whole run: the session
    loop did not catch the ``WireError`` its own ``recv_frame`` raises."""
    inet, server, [(h0, _c0), (h1, c1)] = _setup()

    def proc():
        rogue = yield from connect(h0, server.addr)
        yield from rogue.send_all(b"\x7f\xff\xff\xff")
        assert (yield from rogue.recv(1)) == b""  # dropped, without a reply
        yield from c1.connect()
        yield from c1.register("n1", _info("n1", h1.ip))
        assert (yield from c1.list_nodes()) == ["n1"]

    drive(inet.sim, proc())
