"""WAN-aware collectives (MagPIe-style) over the IPL."""

import pytest

from repro.core.scenarios import GridScenario
from repro.ipl.collectives import CollectiveError, CollectiveGroup


def _grid(n_clusters=2, per_cluster=2, seed=51, kinds=("open", "firewall", "cone_nat")):
    sc = GridScenario(seed=seed)
    members = []
    clusters = {}
    instances = {}
    for c in range(n_clusters):
        site = f"site{c}"
        sc.add_site(site, kinds[c % len(kinds)])
        for i in range(per_cluster):
            name = f"n{c}-{i}"
            instances[name] = sc.add_ibis(site, name)
            members.append(name)
            clusters[name] = site
    return sc, members, clusters, instances


def _run_collective(sc, members, clusters, instances, body, wan_aware=True, until=600):
    """Run `body(group, ibis)` on every member; returns {member: result}."""
    results = {}

    async def member_proc(name):
        ibis = instances[name]
        await ibis.start()
        group = CollectiveGroup(
            ibis, "g", members, clusters, root=members[0], wan_aware=wan_aware
        )
        await group.setup()
        results[name] = await body(group, ibis)

    for name in members:
        sc.sim.process(member_proc(name))
    sc.run(until=until)
    missing = set(members) - set(results)
    assert not missing, f"members never finished: {missing}"
    return results


class TestTopology:
    def test_coordinators_deterministic(self):
        sc, members, clusters, instances = _grid()
        ibis = instances[members[0]]
        group = CollectiveGroup(ibis, "g", members, clusters, root="n0-0")
        assert group.coordinator("site0") == "n0-0"  # root's cluster -> root
        assert group.coordinator("site1") == "n1-0"

    def test_wan_aware_root_children(self):
        sc, members, clusters, instances = _grid(n_clusters=3)
        group = CollectiveGroup(
            instances["n0-0"], "g", members, clusters, root="n0-0"
        )
        # Remote coordinators + local members; NOT remote non-coordinators.
        assert set(group.children()) == {"n1-0", "n2-0", "n0-1"}

    def test_flat_root_children(self):
        sc, members, clusters, instances = _grid(n_clusters=2)
        group = CollectiveGroup(
            instances["n0-0"], "g", members, clusters, root="n0-0", wan_aware=False
        )
        assert set(group.children()) == set(members) - {"n0-0"}

    def test_misconfiguration_rejected(self):
        sc, members, clusters, instances = _grid()
        ibis = instances[members[0]]
        with pytest.raises(CollectiveError):
            CollectiveGroup(ibis, "g", members, {}, root=members[0])
        with pytest.raises(CollectiveError):
            CollectiveGroup(ibis, "g", members, clusters, root="stranger")


class TestOperations:
    def test_broadcast_reaches_everyone(self):
        sc, members, clusters, instances = _grid(n_clusters=2, per_cluster=2)

        async def body(group, ibis):
            value = {"data": 42} if ibis.name == members[0] else None
            result = await group.broadcast(value)
            return result

        results = _run_collective(sc, members, clusters, instances, body)
        assert all(v == {"data": 42} for v in results.values())

    def test_reduce_combines_all_contributions(self):
        sc, members, clusters, instances = _grid(n_clusters=2, per_cluster=2)

        async def body(group, ibis):
            contribution = int(ibis.name[-1]) + 10 * int(ibis.name[1])
            result = await group.reduce(contribution, lambda a, b: a + b)
            return result

        results = _run_collective(sc, members, clusters, instances, body)
        expected_sum = sum(int(m[-1]) + 10 * int(m[1]) for m in members)
        assert results[members[0]] == expected_sum
        assert all(results[m] is None for m in members[1:])

    def test_allreduce_everyone_gets_the_sum(self):
        sc, members, clusters, instances = _grid(n_clusters=3, per_cluster=2)

        async def body(group, ibis):
            result = await group.allreduce(1, lambda a, b: a + b)
            return result

        results = _run_collective(sc, members, clusters, instances, body)
        assert all(v == len(members) for v in results.values())

    def test_barrier_synchronizes(self):
        sc, members, clusters, instances = _grid(n_clusters=2, per_cluster=2)
        arrivals = {}
        departures = {}

        async def body(group, ibis):
            # Members arrive at the barrier at staggered times.
            delay = 0.5 * int(ibis.name[-1]) + int(ibis.name[1])
            await sc.sim.timeout(delay)
            arrivals[ibis.name] = sc.sim.now
            await group.barrier()
            departures[ibis.name] = sc.sim.now
            return True

        _run_collective(sc, members, clusters, instances, body)
        assert min(departures.values()) >= max(arrivals.values())

    def test_back_to_back_collectives_stay_ordered(self):
        sc, members, clusters, instances = _grid(n_clusters=2, per_cluster=2)

        async def body(group, ibis):
            out = []
            for round_no in range(4):
                value = await group.allreduce(round_no, lambda a, b: max(a, b))
                out.append(value)
            return out

        results = _run_collective(sc, members, clusters, instances, body)
        assert all(v == [0, 1, 2, 3] for v in results.values())

    def test_flat_mode_works_too(self):
        sc, members, clusters, instances = _grid(n_clusters=2, per_cluster=2)

        async def body(group, ibis):
            value = "flat!" if ibis.name == members[0] else None
            return await group.broadcast(value)

        results = _run_collective(
            sc, members, clusters, instances, body, wan_aware=False
        )
        assert all(v == "flat!" for v in results.values())
