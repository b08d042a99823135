"""Extension ablation: WAN-aware collectives (the MagPIe idea, cited in §7).

"Our own MagPIe library optimizes the performance of MPI's collective
operations in grid systems."  The optimization: traverse each wide-area
link at most once — broadcast to one coordinator per remote cluster which
fans out on its LAN, instead of pushing one copy per remote member over
the WAN.

This ablation measures a 256 KiB broadcast over three clusters joined by
1.6 MB/s WAN links, flat vs. WAN-aware.
"""

from conftest import once
from repro.core.scenarios import GridScenario
from repro.ipl.collectives import CollectiveGroup

CLUSTERS = 3
PER_CLUSTER = 3
PAYLOAD = b"b" * (256 * 1024)


def _broadcast_time(wan_aware: bool) -> float:
    sc = GridScenario(seed=23)
    members, clusters, instances = [], {}, {}
    for c in range(CLUSTERS):
        site = f"site{c}"
        sc.add_site(
            site, "firewall", access_bandwidth=1.6e6, access_delay=0.0075
        )
        for i in range(PER_CLUSTER):
            name = f"n{c}-{i}"
            instances[name] = sc.add_ibis(site, name)
            members.append(name)
            clusters[name] = site
    done = {}

    async def member(name):
        ibis = instances[name]
        await ibis.start()
        group = CollectiveGroup(
            ibis, "g", members, clusters, root=members[0], wan_aware=wan_aware
        )
        await group.setup()
        await group.barrier()  # align the start
        t0 = sc.sim.now
        await group.broadcast(PAYLOAD if name == members[0] else None)
        await group.barrier()  # everyone has it
        done[name] = sc.sim.now - t0

    for name in members:
        sc.sim.process(member(name))
    sc.run(until=1200)
    assert len(done) == len(members)
    return max(done.values())


def _run():
    flat = _broadcast_time(wan_aware=False)
    aware = _broadcast_time(wan_aware=True)
    return flat, aware


def test_wan_aware_collectives(benchmark, report):
    flat, aware = once(benchmark, _run)

    lines = [
        "Extension ablation — WAN-aware vs flat broadcast (MagPIe, §7)",
        "",
        f"{CLUSTERS} clusters x {PER_CLUSTER} members, 256 KiB payload, "
        "1.6 MB/s WAN links",
        "",
        f"flat broadcast (root -> every member over the WAN): {flat:7.2f} s",
        f"WAN-aware (one copy per remote cluster + LAN fanout): {aware:7.2f} s",
        f"speedup: {flat / aware:.2f}x",
    ]
    report("ablation_collectives", "\n".join(lines))

    # The root's WAN uplink carries (CLUSTERS*PER_CLUSTER - 1) copies flat
    # vs (CLUSTERS - 1) copies WAN-aware: a clear win.
    assert aware < 0.65 * flat
