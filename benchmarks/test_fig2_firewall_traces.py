"""Figure 2: establishment with stateful firewalls on both sites.

Left: the client/server handshake fails — the responder's firewall drops
the inbound SYN.  Right: TCP splicing succeeds — each firewall records the
outgoing SYN and therefore admits the peer's crossing SYN.
"""

import pytest

from conftest import once
from repro.core.scenarios import GridScenario
from repro.simnet import ConnectTimeout, Tracer, connect, connect_simultaneous, listen


def _build():
    sc = GridScenario(seed=2)
    sc.add_site("A", "firewall")
    sc.add_site("B", "firewall")
    a = sc.sites["A"].add_node("a-node")
    b = sc.sites["B"].add_node("b-node")
    return sc, a, b


def _client_server_attempt():
    sc, a, b = _build()
    tracer = Tracer(sc.inet.net)
    outcome = {}

    async def server():
        listener = listen(b, 5000)
        sock = await listener.accept()
        outcome["accepted"] = True

    async def client():
        try:
            await connect(a, (b.ip, 5000))
            outcome["connected"] = True
        except ConnectTimeout:
            outcome["connected"] = False

    sc.sim.process(server())
    sc.sim.process(client())
    sc.run(until=120)
    drops = [
        e for e in tracer.drops()
        if e.segment is not None and e.segment.syn and "Firewall" in e.reason
    ]
    return outcome, len(drops)


def _splicing_attempt():
    sc, a, b = _build()
    outcome = {}

    async def side(host, peer_ip, lport, rport, key):
        try:
            sock = await connect_simultaneous(host, (peer_ip, rport), lport)
            await sock.send_all(b"!")
            await sock.recv_exactly(1)
            outcome[key] = True
        except Exception:
            outcome[key] = False

    sc.sim.process(side(a, b.ip, 7000, 7001, "a"))
    sc.sim.process(side(b, a.ip, 7001, 7000, "b"))
    sc.run(until=120)
    return outcome


def _run():
    return _client_server_attempt(), _splicing_attempt()


def test_fig2_firewalled_establishment(benchmark, report):
    (cs_outcome, syn_drops), sp_outcome = once(benchmark, _run)

    lines = [
        "Figure 2 — establishment through stateful firewalls",
        "",
        f"client/server handshake: connected={cs_outcome.get('connected')} "
        f"(inbound SYNs dropped by firewall: {syn_drops})",
        f"TCP splicing:            side A={sp_outcome.get('a')}, "
        f"side B={sp_outcome.get('b')}",
    ]
    report("fig2_firewall_traces", "\n".join(lines))

    # Left half of the figure: the handshake fails, SYNs die at the firewall.
    assert cs_outcome["connected"] is False
    assert "accepted" not in cs_outcome
    assert syn_drops >= 1
    # Right half: splicing establishes in both directions.
    assert sp_outcome == {"a": True, "b": True}
