"""§4.4/§5.2: TLS composes with any establishment method; its cost.

"SSL/TLS security may be added over a link built with any of the
establishment methods described in Section 3."  The paper left the
encryption driver as planned work; this benchmark runs it over spliced,
proxied and routed links and measures the throughput cost of
encryption at 2004-class CPU rates.
"""

from conftest import once
from paperlinks import AMSTERDAM_RENNES, build_paper_wan
from repro.core.factory import BrokeredConnectionFactory, TlsConfig
from repro.core.scenarios import GridScenario
from repro.core.utilization import TlsDriver, find_driver
from repro.core.utilization.spec import StackSpec
from repro.security import CertificateAuthority, Identity
from repro.simnet import mb_per_s
from repro.workloads import incompressible

TOTAL = 4_000_000


def _pki():
    ca = CertificateAuthority("bench-root")
    ka, cert_a = ca.issue_identity("src")
    kb, cert_b = ca.issue_identity("dst")
    return (
        TlsConfig([ca.certificate], Identity(ka, [cert_a]), expected_peer="dst"),
        TlsConfig([ca.certificate], Identity(kb, [cert_b]), require_client_auth=True),
    )


def _secure_transfer(kind_a, kind_b, spec, seed=19):
    spec = StackSpec.parse(spec) if isinstance(spec, str) else spec
    sc = GridScenario(seed=seed)
    sc.add_site("A", kind_a, access_bandwidth=4e6, access_delay=0.01)
    sc.add_site("B", kind_b, access_bandwidth=4e6, access_delay=0.01)
    src = sc.add_node("A", "src")
    dst = sc.add_node("B", "dst")
    from repro.simnet.cpu import CpuModel

    for node in (src, dst):
        CpuModel(sc.sim, rates={"encrypt": 20e6, "decrypt": 20e6}).attach(node.host)
    tls_a, tls_b = _pki()
    payload = incompressible(65536, seed=3)
    res = {}

    async def sender():
        await src.start()
        while not dst.relay_client.connected:
            await sc.sim.timeout(0.05)
        service = await src.open_service_link("dst")
        factory = BrokeredConnectionFactory(src, tls_a)
        channel = await factory.connect(service, dst.info, spec=spec)
        tls = find_driver(channel.driver, TlsDriver)
        res["peer"] = tls.peer_subject if tls else None
        res["method"] = None
        sent = 0
        while sent < TOTAL:
            await channel.write(payload)
            sent += len(payload)
        await channel.flush()
        channel.close()

    async def receiver():
        await dst.start()
        _p, service = await dst.accept_service_link()
        factory = BrokeredConnectionFactory(dst, tls_b)
        channel = await factory.accept(service)
        got = 0
        t0 = None
        while True:
            data = await channel.read(1 << 20)
            if not data:
                break
            if t0 is None:
                t0 = sc.sim.now
            got += len(data)
        res["mbps"] = mb_per_s(got, sc.sim.now - t0)

    sc.sim.process(sender())
    sc.sim.process(receiver())
    sc.run(until=1200)
    return res


def _run():
    rows = []
    # TLS over every establishment path.
    for label, kinds, spec in [
        ("tls over spliced link", ("firewall", "firewall"), "tls|tcp_block"),
        ("tls over socks-proxied link", ("open", "symmetric_nat"), "tls|tcp_block"),
        ("tls over routed link", ("severe", "firewall"), "tls|tcp_block"),
        ("tls over 4 spliced streams", ("firewall", "firewall"), "tls|parallel:4"),
    ]:
        res = _secure_transfer(*kinds, spec)
        rows.append((label, res["mbps"], res["peer"]))
    # Cost: same path with and without TLS.
    plain = _secure_transfer("firewall", "firewall", "tcp_block")["mbps"]
    secured = [r for r in rows if r[0] == "tls over spliced link"][0][1]
    return rows, plain, secured


def test_tls_composes_and_costs(benchmark, report):
    rows, plain, secured = once(benchmark, _run)

    lines = ["§4.4 — TLS over every establishment method (4 MB/s WAN)", ""]
    for label, mbps, peer in rows:
        lines.append(f"{label:32s} {mbps:6.2f} MB/s   peer={peer}")
    lines.append("")
    lines.append(f"{'plain (no tls), same path':32s} {plain:6.2f} MB/s")
    overhead = 100 * (1 - secured / plain) if plain else 0.0
    lines.append(f"encryption overhead on this link: {overhead:.0f}%")
    report("tls_overhead", "\n".join(lines))

    # TLS worked over all four paths with mutual authentication.
    for label, mbps, peer in rows:
        assert mbps > 0.05, label
        assert peer == "dst", label
    # Security is not free, but not crippling at 20 MB/s crypto either.
    assert secured <= plain * 1.02
    assert secured > 0.5 * plain
