"""The routed-link dispatcher on both runtimes.

One script over :class:`~tests.dual.SimRelay` and
:class:`~tests.dual.LiveRelay`: node0 opens routed links to node1 under
every purpose tag, node1's :class:`~repro.core.dispatch.RoutedDispatcher`
hands each to whoever asks for that purpose — queued when it arrives
first, straight to a parked waiter when it arrives second — and closes a
link tagged with nothing it serves.
"""

import pytest

from repro.core.dispatch import SERVICE_TAG, RoutedDispatcher, data_tag, resume_tag

from ..dual import LiveRelay, SimRelay


class _Node:
    """What the dispatcher asks of a node: its relay client, its runtime
    and a way to start the accept loop as one of its tasks."""

    def __init__(self, h, client):
        self.relay_client = client
        self.runtime = h.runtime
        self.node_id = client.node_id
        self._spawn = h.spawn


async def _open(h, client, tag: bytes, first: bytes):
    link = await h.open(client, "node1", payload=tag)
    await h.send(link, first)
    return link


async def _first(h, link) -> tuple:
    return link.peer, await h.recv_exactly(link, 1)


class DispatchCases:
    harness = SimRelay

    def test_routes_each_tag_and_closes_the_rest(self):
        async def script(h, ca, cb):
            dispatcher = RoutedDispatcher(_Node(h, cb))
            # arriving before anyone asks: queued per purpose
            await _open(h, ca, SERVICE_TAG, b"s")
            await _open(h, ca, resume_tag(0xABC), b"r")
            await _open(h, ca, data_tag(1), b"e")
            stray = await _open(h, ca, b"data", b"?")
            queued = [
                await _first(h, await dispatcher.accept_service()),
                await _first(h, await dispatcher.accept_resume()),
                await _first(h, await dispatcher.await_data(1)),
            ]

            async def later(tag, first):
                await h.sleep(1)  # the waiter parks first
                await _open(h, ca, tag, first)

            # arriving after: straight to the parked waiter
            parked = []
            for wait, tag, first in (
                (dispatcher.accept_service(), SERVICE_TAG, b"S"),
                (dispatcher.accept_resume(), resume_tag(0xDEF), b"R"),
                (dispatcher.await_data(2), data_tag(2), b"L"),
            ):
                link, _ = await h.gather(wait, later(tag, first))
                parked.append((link.open_payload, await _first(h, link)))
            with pytest.raises(TimeoutError):
                await dispatcher.await_data(3, timeout=0.05)
            try:
                closed = await h.recv(stray, 1)
            except EOFError:
                closed = b""
            return queued, parked, closed

        queued, parked, closed = self.harness().run(script)
        assert queued == [("node0", b"s"), ("node0", b"r"), ("node0", b"e")]
        assert parked == [
            (SERVICE_TAG, ("node0", b"S")),
            (resume_tag(0xDEF), ("node0", b"R")),
            (data_tag(2), ("node0", b"L")),
        ]
        assert closed == b""


class TestDispatchSim(DispatchCases):
    harness = SimRelay


@pytest.mark.livenet
class TestDispatchLive(DispatchCases):
    harness = LiveRelay
