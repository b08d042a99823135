"""Figure 1: TCP connection establishment packet exchanges.

Left: regular client/server handshake — SYN, SYN|ACK, ACK.
Right: TCP splicing — both sides send SYN; both answer SYN|ACK.

The benchmark captures actual packet traces from the simulated TCP and
asserts the exchanged segment sequences.
"""

from conftest import once
from repro.simnet import Tracer, connect, connect_simultaneous, listen
from repro.simnet.testing import echo_server, two_public_hosts


def _handshake_arrows(tracer, until_payload=True):
    arrows = []
    for entry in tracer.entries:
        seg = entry.segment
        if entry.kind != "rx" or seg is None:
            continue
        if seg.payload and until_payload:
            break
        arrows.append(f"{seg.src[0]} -> {seg.dst[0]}  {seg.flags_str()}")
    return arrows


def _client_server_trace():
    inet, a, b = two_public_hosts(seed=1)
    tracer = Tracer(inet.net, only={"rx"}, hosts={"a", "b"})

    async def proc():
        inet.sim.process(echo_server(b, 5000))
        sock = await connect(a, (b.ip, 5000))
        await sock.send_all(b"x")
        await sock.recv_exactly(1)

    inet.sim.process(proc())
    inet.sim.run(until=10)
    return a.ip, b.ip, _handshake_arrows(tracer)


def _splicing_trace():
    inet, a, b = two_public_hosts(seed=1)
    tracer = Tracer(inet.net, only={"rx"}, hosts={"a", "b"})

    async def side(host, peer, lport, rport):
        sock = await connect_simultaneous(host, (peer.ip, rport), lport)
        await sock.send_all(b"x")
        await sock.recv_exactly(1)

    inet.sim.process(side(a, b, 7000, 7001))
    inet.sim.process(side(b, a, 7001, 7000))
    inet.sim.run(until=10)
    return a.ip, b.ip, _handshake_arrows(tracer)


def _run():
    return _client_server_trace(), _splicing_trace()


def test_fig1_packet_exchanges(benchmark, report):
    (a_ip, b_ip, cs_arrows), (_a, _b, sp_arrows) = once(benchmark, _run)

    lines = ["Figure 1 — TCP connection establishment", ""]
    lines.append("client/server handshake:")
    lines.extend(f"  {arrow}" for arrow in cs_arrows)
    lines.append("")
    lines.append("TCP splicing (simultaneous SYN):")
    lines.extend(f"  {arrow}" for arrow in sp_arrows)
    report("fig1_handshake_traces", "\n".join(lines))

    # Client/server: SYN -> SYN|ACK -> ACK, asymmetric.
    cs_flags = [arrow.split("  ")[-1] for arrow in cs_arrows]
    assert cs_flags[:3] == ["SYN", "SYN|ACK", "ACK"]
    # The SYN and the final ACK travel in the same direction.
    assert cs_arrows[0].split("  ")[0] == cs_arrows[2].split("  ")[0]

    # Splicing: two crossing SYNs, then two SYN|ACKs — symmetric.
    sp_flags = [arrow.split("  ")[-1] for arrow in sp_arrows]
    assert sp_flags.count("SYN") == 2
    assert sp_flags.count("SYN|ACK") == 2
    directions = {arrow.split("  ")[0] for arrow in sp_arrows if arrow.endswith(" SYN")}
    assert len(directions) == 2  # one bare SYN from each side
