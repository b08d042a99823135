"""Relay server, routed links, and the address reflector.

The protocol cases are scripts on the harness in ``tests/dual.py`` and run
over both bindings: :class:`~repro.core.relay.RelayServer` on the
simulator (under the ids these tests have always had) and
:class:`~repro.livenet.relay.LiveRelayServer` on real loopback sockets.
"""

import pytest

from repro import obs
from repro.core.relay import (
    _PEER_IO_TIMEOUT,
    MAX_MSG,
    ReflectorServer,
    RelayError,
)
from repro.mesh.config import MeshConfig
from repro.obs import TraceContext
from repro.simnet import Internet
from repro.simnet.testing import drive

from ..dual import LiveRelay, SimRelay


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(obs.MetricsRegistry())
    yield
    obs.set_registry(previous)


class RelayCases:
    """Each case runs one script; ``harness`` decides on which binding."""

    harness = SimRelay

    def test_register_and_open_link(self):
        async def script(h, ca, cb):
            async def a():
                link = await h.open(ca, "node1")
                await h.send(link, b"over-the-relay")
                return await h.recv_exactly(link, 2)

            async def b():
                link = await h.accept(cb)
                data = await h.recv_exactly(link, 14)
                await h.send(link, b"ok")
                return link.peer, data

            return await h.gather(a(), b())

        assert self.harness().run(script) == [b"ok", ("node0", b"over-the-relay")]

    def test_large_transfer_is_chunked(self):
        payload = bytes(i % 251 for i in range(3 * MAX_MSG + 17))

        async def script(h, ca, cb):
            link = await h.open(ca, "node1")
            _, data = await h.gather(
                h.send(link, payload),
                h.recv_exactly(await h.accept(cb), len(payload)))
            return data, h.relay.forwarded_messages

        data, frames = self.harness().run(script)
        assert data == payload
        assert frames == 1 + 4  # the OPEN, then ceil(len / MAX_MSG) messages

    def test_unknown_destination_reported(self):
        async def script(h, ca, cb):
            link = await h.open(ca, "ghost")
            with pytest.raises(RelayError, match="unknown destination"):
                await h.recv(link, 10)
            return ca.connected

        assert self.harness().run(script)

    def test_duplicate_registration_rejected(self):
        async def script(h, ca, cb):
            twin = h.client("node0")  # collides with ca
            with pytest.raises(RelayError, match="registration rejected"):
                await h.connect(twin)
            # the first registration is untouched
            link = await h.open(cb, "node0")
            return twin.connected, (await h.accept(ca)).peer, link.peer

        assert self.harness().run(script) == (False, "node1", "node0")

    def test_multiple_channels_are_independent(self):
        async def script(h, ca, cb):
            l1 = await h.open(ca, "node1")
            l2 = await h.open(ca, "node1")
            await h.send(l2, b"second")
            await h.send(l1, b"first!")
            r1 = await h.accept(cb)
            r2 = await h.accept(cb)
            return await h.recv_exactly(r1, 6), await h.recv_exactly(r2, 6)

        # Channels are accepted in open order; payloads stay on their
        # channel even though they were sent in the opposite order.
        assert self.harness().run(script) == (b"first!", b"second")

    def test_close_propagates_eof(self):
        async def script(h, ca, cb):
            link = await h.open(ca, "node1")
            await h.send(link, b"bye")
            link.close()
            peer = await h.accept(cb)
            return await h.recv_exactly(peer, 3), await h.recv(peer, 10)

        assert self.harness().run(script) == (b"bye", b"")

    def test_relay_counts_forwarded_traffic(self):
        async def script(h, ca, cb):
            link = await h.open(ca, "node1", payload=b"tag")
            await h.send(link, b"x" * 1000)
            await h.recv_exactly(await h.accept(cb), 1000)
            return h.relay.forwarded_messages, h.relay.forwarded_bytes

        # payload bytes, on either backend, and the same in the metric
        assert self.harness().run(script) == (2, 1003)
        assert sum(c.value for c in obs.metrics().instruments(
            "relay.forwarded_bytes_total")) == 1003

    def test_open_payload_tag_delivered(self):
        async def script(h, ca, cb):
            await h.open(ca, "node1", payload=b"data:42")
            return (await h.accept(cb)).open_payload

        assert self.harness().run(script) == b"data:42"

    def test_open_under_a_context_is_one_trace_through_the_relay(self):
        recorder = obs.TraceRecorder()
        ctx = TraceContext.new()

        async def script(h, ca, cb):
            link = await h.open(ca, "node1", ctx=ctx)
            accepted = await h.accept(cb)
            await h.send(link, b"12345")
            await h.recv_exactly(accepted, 5)
            link.close()
            await h.until(lambda: len(h.relay.flight) == 4)
            return accepted.ctx, [r["name"] for r in h.relay.flight.records()]

        previous = obs.set_tracer(recorder)
        try:
            accepted_ctx, notes = self.harness().run(script)
        finally:
            obs.set_tracer(previous)
        assert accepted_ctx == ctx
        # (by trace: a collected simulator of an earlier test may close its
        # own routes into whichever recorder is current)
        (span,) = [s for s in recorder.spans("relay.route")
                   if s.get("trace_id") == ctx.ids()["trace_id"]]
        assert span["parent_id"] == ctx.ids()["span_id"]
        assert span["attrs"]["outcome"] == "ok" and span["attrs"]["bytes"] == 5
        assert notes == ["relay.register", "relay.register",
                         "relay.route.open", "relay.route.closed"]


    def test_a_gossip_partner_that_never_answers_costs_one_bounded_round(self):
        """The partner accepts the dial and says nothing: the round ends at
        the reply deadline, the next one begins, routed traffic still flows.
        (Before the deadline was shared, the simulator's loop parked in this
        read for good.)"""
        cfg = MeshConfig(gossip_jitter=0.0)
        budget = _PEER_IO_TIMEOUT + 2 * cfg.gossip_interval

        async def script(h, ca, cb):
            relay, begins = h.relay, []
            begin = relay.gossip_begin

            def counted():
                begins.append(relay.clock())
                return begin()

            relay.gossip_begin = counted
            relay.enable_mesh("r1", {"mute": await h.mute_peer()}, seed=1,
                              config=cfg)
            await h.until(lambda: len(begins) >= 2, timeout=20 * budget)
            link = await h.open(ca, "node1")
            await h.send(link, b"still-routing")
            served = await h.recv_exactly(await h.accept(cb), 13)
            return begins[1] - begins[0], served

        gap, served = self.harness().run(script)
        assert gap <= budget and served == b"still-routing"


@pytest.mark.livenet
class TestRelayLive(RelayCases):
    harness = LiveRelay


# The simulator runs keep the ids these cases have always had.
_SIM = RelayCases()


def test_register_and_open_link():
    _SIM.test_register_and_open_link()


def test_large_transfer_is_chunked():
    _SIM.test_large_transfer_is_chunked()


def test_unknown_destination_reported():
    _SIM.test_unknown_destination_reported()


def test_duplicate_registration_rejected():
    _SIM.test_duplicate_registration_rejected()


def test_multiple_channels_are_independent():
    _SIM.test_multiple_channels_are_independent()


def test_close_propagates_eof():
    _SIM.test_close_propagates_eof()


def test_relay_counts_forwarded_traffic():
    _SIM.test_relay_counts_forwarded_traffic()


def test_open_payload_tag_delivered():
    _SIM.test_open_payload_tag_delivered()


def test_open_under_a_context_is_one_trace_through_the_relay():
    _SIM.test_open_under_a_context_is_one_trace_through_the_relay()


def test_a_gossip_partner_that_never_answers_costs_one_bounded_round():
    _SIM.test_a_gossip_partner_that_never_answers_costs_one_bounded_round()


def test_reflector_reports_observed_address():
    inet = Internet(seed=3)
    public = inet.add_public_host("pub")
    reflector = ReflectorServer(public, 3478)
    reflector.start()
    client = inet.add_public_host("client")
    result = {}

    async def proc():
        from repro.simnet.sockets import connect

        sock = await connect(client, reflector.addr, lport=7777)
        raw = await sock.recv_exactly(32)
        result["observed"] = raw.decode().strip()
        sock.close()

    drive(inet.sim, proc())
    assert result["observed"] == f"{client.ip}:7777"
    assert reflector.probes == 1
