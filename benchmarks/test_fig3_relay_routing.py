"""Figure 3: routed messages through a relay on a gateway machine.

"All nodes are connected to a relay located on a gateway machine
accessible from the outside; the relay forwards messages to their final
recipient."  Every node — even one that can make no direct connection at
all — reaches every other node through the relay.
"""

from conftest import once
from repro.core.scenarios import GridScenario


def _run():
    sc = GridScenario(seed=4)
    # Three nodes on maximally restricted sites.
    sc.add_site("A", "severe")
    sc.add_site("B", "firewall")
    sc.add_site("C", "symmetric_nat")
    for site, node in (("A", "a"), ("B", "b"), ("C", "c")):
        sc.add_node(site, node)

    results = {}
    nodes = sc.nodes

    async def proc(me, peers):
        node = nodes[me]
        await node.start()
        # Everyone opens a routed link to everyone after them.
        for peer in peers:
            while not nodes[peer].relay_client.connected:
                await sc.sim.timeout(0.05)
            link = await node.relay_client.open_link(peer, payload=b"service")
            await link.send_all(f"hello {peer} from {me}".encode())

    async def acceptor(me, expect):
        node = nodes[me]
        while not node.relay_client.connected:
            await sc.sim.timeout(0.05)
        for _ in range(expect):
            link = await node.dispatcher.accept_service()
            data = await link.recv(100)
            results.setdefault(me, []).append(data.decode())

    order = ["a", "b", "c"]
    for i, me in enumerate(order):
        sc.sim.process(proc(me, order[i + 1 :]))
    # a receives 0, b receives 1 (from a), c receives 2 (from a, b)
    sc.sim.process(acceptor("b", 1))
    sc.sim.process(acceptor("c", 2))
    sc.run(until=120)
    return results, sc.relay.forwarded_messages


def test_fig3_relay_reaches_everyone(benchmark, report):
    results, forwarded = once(benchmark, _run)

    lines = ["Figure 3 — routed messages via the gateway relay", ""]
    for me in sorted(results):
        for msg in sorted(results[me]):
            lines.append(f"  {me} received: {msg!r}")
    lines.append(f"\nrelay forwarded {forwarded} messages")
    report("fig3_relay_routing", "\n".join(lines))

    assert sorted(results["b"]) == ["hello b from a"]
    assert sorted(results["c"]) == ["hello c from a", "hello c from b"]
    assert forwarded >= 3
