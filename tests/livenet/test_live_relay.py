"""Live relay defects closed by sharing the relay core.

Each case failed on the hand-written asyncio relay: its forwarding loop
let a dead destination take the *sender's* session down, closed links
never left their client's table, a keepalive dropped the registration,
and two concurrent forwards toward one peer relay orphaned a trunk.
The protocol cases proper run on both bindings from
``tests/core/test_relay.py``; the routing table is tested without any IO
in ``tests/relay/test_core.py``.
"""

import asyncio

import pytest

from repro.core.relay import RelayError
from repro.core.retry import RetryPolicy
from repro.core.relay_core import PING_FRAME
from repro.core.wire import send_frame
from repro.livenet import (
    AsyncSessionLink,
    AsyncSessionListener,
    LiveRelayClient,
    LiveRelayServer,
)
from repro.livenet import relay as relay_module
from repro.mesh.config import MeshConfig

from ..dual import LiveRelay
from .conftest import eventually

pytestmark = pytest.mark.livenet


def test_destination_dying_mid_write_is_not_the_senders_problem():
    async def script(h, a, b):
        link = await a.open_link("node1")
        await b.accept_link()

        async def reset(_data):
            raise ConnectionResetError("destination vanished")

        h.relay.sessions["node1"].send_all = reset
        await link.send_all(b"into the void")
        with pytest.raises(RelayError, match="unknown destination") as err:
            await link.recv(10)
        assert isinstance(err.value, ConnectionError)
        return sorted(h.relay.sessions), a.connected, [
            r["attrs"]["node_id"] for r in h.relay.flight.records()
            if r["name"] == "relay.unregister"]

    registered, sender_connected, unregistered = LiveRelay().run(script)
    assert registered == ["node0"] and sender_connected
    assert unregistered == ["node1"]


def test_open_close_cycles_leave_no_links_behind():
    async def script(h, a, b):
        for _ in range(100):
            link = await a.open_link("node1")
            peer = await b.accept_link()
            link.close()
            assert await peer.recv(10) == b""
            peer.close()
        await eventually(lambda: h.relay.forwarded_messages == 300)
        link.close()  # again: nothing more goes out
        await asyncio.sleep(0.05)
        return len(a._links), len(b._links), h.relay.forwarded_messages

    assert LiveRelay().run(script) == (0, 0, 300)


def test_local_close_wakes_a_parked_reader_with_eof():
    async def script(h, a, b):
        link = await a.open_link("node1")
        reader = asyncio.ensure_future(link.recv(10))
        await asyncio.sleep(0)
        link.close()
        return await asyncio.wait_for(reader, timeout=2.0)

    assert LiveRelay().run(script) == b""


def test_keepalive_ping_is_absorbed():
    async def script(h, a, b):
        await send_frame(a._sock, PING_FRAME)
        link = await a.open_link("node1")  # the registration still routes
        await link.send_all(b"after-ping")
        data = await (await b.accept_link()).recv_exactly(10)
        return data, sorted(h.relay.sessions), a.connected

    assert LiveRelay().run(script) == (b"after-ping", ["node0", "node1"], True)


class _IncomingLinks:
    """``accept``/``close``/``addr`` over a relay client's incoming links."""

    addr = ("relay", 0)

    def __init__(self, client):
        self._client = client

    async def accept(self):
        return await self._client.accept_link()

    def close(self) -> None:
        pass  # the relay client is closed by the harness


def test_a_session_violation_fails_that_session_and_the_relay_connection_serves_on():
    """A peer's malformed session frame arrives through the relay client's
    reader.  It fails the one session it was meant for, and nothing else:
    the reader still delivers to a routed link opened before the violation,
    and a link opened after it is accepted and read."""
    async def script(h, a, b):
        sessions = AsyncSessionListener(_IncomingLinks(a))
        try:
            victim = await AsyncSessionLink.connect(
                lambda: b.open_link("node0"),
                retry_policy=RetryPolicy(max_attempts=1))
            served = await sessions.accept()
            before = await a.open_link("node1")
            before_peer = await b.accept_link()
            await served.raw.send_all(b"\xff")  # no session frame has type 255
            await eventually(lambda: victim.state == "failed")
            assert "unexpected frame type 255" in str(victim._failure)
            with pytest.raises(EOFError):
                await victim.recv(1)
            await before.send_all(b"older")
            after = await a.open_link("node1")
            await after.send_all(b"newer")
            after_peer = await b.accept_link()
            readers = [t for t in asyncio.all_tasks()
                       if t.get_name() == "relay-client-node1"]
            return (await before_peer.recv_exactly(5),
                    await after_peer.recv_exactly(5),
                    b.connected, [t.done() for t in readers])
        finally:
            sessions.close()

    assert LiveRelay().run(script) == (b"older", b"newer", True, [False])


def test_concurrent_forwards_share_one_trunk_and_stop_leaves_none(live_run, monkeypatch):
    """Two sessions forward toward an unconnected peer relay at once: both
    dial, one trunk is kept, the loser is closed, and after stop() neither
    a trunk socket nor a trunk reader is left."""
    cfg = MeshConfig(gossip_interval=0.05, gossip_jitter=0.2, deadline=2.0)
    dial = relay_module.live_connect  # looked up as a module global per call

    async def slow_dial(addr, *args, **kwargs):
        await asyncio.sleep(0.02)  # both forwards are dialling before either lands
        return await dial(addr, *args, **kwargs)

    def trunk_readers():
        return [t for t in asyncio.all_tasks()
                if t.get_name().startswith("mesh-trunk-")]

    async def main():
        r1 = await LiveRelayServer(name="r1").start()
        r2 = await LiveRelayServer(name="r2").start()
        r1.enable_mesh("r1", {"r2": r2.addr}, seed=1, config=cfg)
        r2.enable_mesh("r2", {"r1": r1.addr}, seed=1, config=cfg)
        clients = [LiveRelayClient("a1", r1.addr), LiveRelayClient("a2", r1.addr),
                   LiveRelayClient("c", r2.addr)]
        try:
            a1, a2, c = [await client.connect() for client in clients]
            await eventually(lambda: r1.mesh.owner_of("c") is not None)
            monkeypatch.setattr(relay_module, "live_connect", slow_dial)
            links = await asyncio.gather(a1.open_link("c"), a2.open_link("c"))
            for link in links:
                await link.send_all(link.client.node_id.encode())
            got = sorted([await (await c.accept_link()).recv_exactly(2) for _ in links])
            monkeypatch.setattr(relay_module, "live_connect", dial)
            kept, readers = len(r1._trunks), len(trunk_readers())
            r1.stop()
            await eventually(lambda: not trunk_readers() and not r1._tasks)
            await eventually(lambda: not r2._trunks_in)  # both hung up on r2
            raced = [r for r in r2.flight.records() if r["name"] == "mesh.trunk.accept"]
            return got, len(raced), kept, readers, r1._trunks
        finally:
            for client in clients:
                client.close()
            r1.stop()
            r2.stop()

    got, raced, kept, readers, trunks = live_run(main())
    assert got == [b"a1", b"a2"]
    assert raced == 2, "the two forwards did not race; the test proves nothing"
    assert (kept, readers) == (1, 1)
    assert trunks == {}
