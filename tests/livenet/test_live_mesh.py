"""Live relay mesh: gossip, trunks, view pushes, mid-stream failover.

The live twins of the ``tests/mesh`` suite's claims, on loopback TCP:
relays converge on a shared membership view by gossiping over real
sockets, frames for a peer registered elsewhere cross an inter-relay
trunk, clients learn the mesh from ``T_MESH`` pushes, and a session
over a :class:`LiveMeshRelayClient` survives the carrying relay being
killed mid-transfer with zero byte loss.
"""

import asyncio
import contextlib
import random

import pytest

from repro.livenet import (
    AsyncSessionLink,
    AsyncSessionListener,
    LiveMeshRelayClient,
    LiveRelayServer,
)
from repro.mesh.config import MeshConfig

from .conftest import eventually

pytestmark = pytest.mark.livenet

#: fast cadence so convergence happens in tens of milliseconds
_CFG = MeshConfig(gossip_interval=0.05, gossip_jitter=0.2, deadline=0.4)


@contextlib.asynccontextmanager
async def mesh_cluster(relay_ids=("r1", "r2", "r3"), config=_CFG):
    """``len(relay_ids)`` full-mesh live relays, stopped on exit."""
    servers = {}
    try:
        for rid in relay_ids:
            servers[rid] = await LiveRelayServer(name=rid).start()
        addrs = {rid: ("127.0.0.1", s.port) for rid, s in servers.items()}
        for rid, server in servers.items():
            peers = {p: a for p, a in addrs.items() if p != rid}
            server.enable_mesh(rid, peers, seed=7, config=config)
        yield servers, addrs
    finally:
        for server in servers.values():
            server.stop()


def _carrying_relay(mesh_client) -> str:
    """The relay id whose sub-client holds this node's open links."""
    for rid, client in mesh_client.clients.items():
        if client._links:
            return rid
    raise AssertionError("no relay carries any link")


class TestLiveGossip:
    def test_full_mesh_converges(self, live_run):
        async def main():
            async with mesh_cluster() as (servers, _):
                for server in servers.values():
                    await eventually(
                        lambda s=server: set(s.mesh.alive_ids())
                        == {"r1", "r2", "r3"}
                    )
                return [sorted(s.mesh.alive_ids()) for s in servers.values()]

        views = live_run(main())
        assert views == [["r1", "r2", "r3"]] * 3

    def test_killed_relay_declared_dead_everywhere(self, live_run):
        async def main():
            async with mesh_cluster() as (servers, _):
                for server in servers.values():
                    await eventually(
                        lambda s=server: len(s.mesh.alive_ids()) == 3
                    )
                servers["r1"].stop()
                for rid in ("r2", "r3"):
                    await eventually(
                        lambda s=servers[rid]: "r1" in s.mesh.dead
                    )
                return [
                    (rid, lag)
                    for rid in ("r2", "r3")
                    for dead, heard, seen in servers[rid].mesh.deaths
                    for lag in [seen - heard]
                    if dead == "r1"
                ]

        deaths = live_run(main())
        assert {rid for rid, _ in deaths} == {"r2", "r3"}
        # wall-clock slack on top of the configured detection bound
        assert all(lag <= _CFG.detect_bound + 1.0 for _, lag in deaths)


class TestLiveTrunks:
    def test_disjoint_registrations_cross_a_trunk(self, live_run):
        """a is only on r1, b only on r2: frames must trunk r1 -> r2."""

        async def main():
            async with mesh_cluster(("r1", "r2")) as (servers, addrs):
                a = LiveMeshRelayClient("a", {"r1": addrs["r1"]}, seed=1)
                b = LiveMeshRelayClient("b", {"r2": addrs["r2"]}, seed=1)
                await a.connect()
                await b.connect()
                try:
                    # gossip must carry b's ownership to r1 first
                    await eventually(
                        lambda: servers["r1"].mesh.owner_of("b") is not None
                    )
                    link = await a.open_link("b", payload=b"hi")
                    accepted = await b.accept_link()
                    await link.send_all(b"across-the-trunk")
                    data = await accepted.recv_exactly(16)
                    return (
                        data,
                        accepted.open_payload,
                        servers["r1"].trunk_tx,
                        servers["r2"].trunk_rx,
                    )
                finally:
                    a.close()
                    b.close()

        data, payload, tx, rx = live_run(main())
        assert data == b"across-the-trunk"
        assert payload == b"hi"
        assert tx >= 2 and rx >= 2  # OPEN + at least one MSG crossed


class TestLiveMeshClient:
    def test_t_mesh_push_populates_observer_view(self, live_run):
        async def main():
            async with mesh_cluster() as (_, addrs):
                alice = LiveMeshRelayClient("alice", addrs, seed=3)
                await alice.connect()
                try:
                    await eventually(
                        lambda: set(alice.state.alive_ids())
                        == {"r1", "r2", "r3"}
                    )
                    return alice.usable_relays()
                finally:
                    alice.close()

        assert live_run(main()) == ["r1", "r2", "r3"]

    def test_routed_link_round_trip(self, live_run):
        async def main():
            async with mesh_cluster() as (_, addrs):
                alice = LiveMeshRelayClient("alice", addrs, seed=3)
                bob = LiveMeshRelayClient("bob", addrs, seed=4)
                await alice.connect()
                await bob.connect()
                try:
                    link = await alice.open_link("bob")
                    accepted = await bob.accept_link()
                    await link.send_all(b"mesh-routed")
                    return await accepted.recv_exactly(11)
                finally:
                    alice.close()
                    bob.close()

        assert live_run(main()) == b"mesh-routed"


class TestLiveFailover:
    def test_session_survives_carrying_relay_kill(self, live_run):
        """Kill the relay mid-transfer; the session resumes on a survivor."""
        payload = random.Random("live-mesh-failover").randbytes(256 * 1024)
        chunk = 32 * 1024

        async def main():
            async with mesh_cluster() as (servers, addrs):
                alice = LiveMeshRelayClient("alice", addrs, seed=5)
                bob = LiveMeshRelayClient("bob", addrs, seed=6)
                await alice.connect()
                await bob.connect()
                listener = AsyncSessionListener(bob.link_listener(), node="bob")

                async def dial():
                    return await alice.open_link("bob", payload=b"session")

                received = bytearray()

                async def receive():
                    link = await listener.accept()
                    while True:
                        data = await link.recv(64 * 1024)
                        if not data:
                            break
                        received.extend(data)
                    await link.aclose()

                recv_task = asyncio.ensure_future(receive())
                try:
                    link = await AsyncSessionLink.connect(dial, node="alice")
                    victim = _carrying_relay(alice)
                    for i, off in enumerate(range(0, len(payload), chunk)):
                        if i == 3:
                            servers[victim].stop()
                        await link.send_all(payload[off : off + chunk])
                        await asyncio.sleep(0.01)
                    # closed links leave their client's table, so ask
                    # while the session still holds its carrier
                    survivor = _carrying_relay(alice)
                    await link.aclose()
                    await recv_task
                    return bytes(received), victim, survivor, link.reconnects
                finally:
                    recv_task.cancel()
                    listener.close()
                    alice.close()
                    bob.close()

        received, victim, survivor, reconnects = live_run(main())
        assert received == payload
        assert survivor != victim
        assert reconnects >= 1
