"""Knob surfaces: plan targets reaching a real running stack.

StackKnobs binds onto live driver objects, so these tests build the
real things — a rebalancing parallel driver over simulated TCP links, an
adaptive compression driver, a mux channel pair — and verify that
setting a knob moves the underlying machinery (quiesce/reactivate for
streams, forced modes for compression, credit accounting for the mux
window renegotiation, including the shrink-debt path).
"""

import pytest

from repro import obs
from repro.core.links import TcpLink
from repro.core.utilization import RebalancingParallelDriver
from repro.core.utilization.adaptive import AdaptiveCompressionDriver
from repro.mux import DEFAULT_WINDOW, MuxEndpoint
from repro.obs import MetricsRegistry
from repro.simnet import connect, listen
from repro.simnet.testing import two_public_hosts
from repro.tune import KnobError, StackKnobs, StaticKnobs


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(MetricsRegistry())
    yield
    obs.set_registry(previous)


class TestStaticKnobs:
    def test_get_set_supports(self):
        knobs = StaticKnobs(streams=2, compress="auto")
        assert knobs.supports("streams") and not knobs.supports("rcvbuf")
        knobs.set("streams", 4)
        assert knobs.get("streams") == 4
        assert knobs.as_dict() == {"streams": 4, "compress": "auto"}

    def test_unknown_knob_raises(self):
        knobs = StaticKnobs(streams=2)
        with pytest.raises(KnobError):
            knobs.get("mux_window")
        with pytest.raises(KnobError):
            knobs.set("mux_window", 1)


def _parallel_driver(n=4):
    inet, a, b = two_public_hosts()
    sim = inet.sim
    out = {}

    async def srv():
        listener = listen(b, 5000, backlog=n)
        links = []
        for _ in range(n):
            sock = await listener.accept()
            links.append(TcpLink(sock, "client_server"))
        out["b"] = links

    async def cli():
        links = []
        for _ in range(n):
            sock = await connect(a, (b.ip, 5000))
            links.append(TcpLink(sock, "client_server"))
        out["a"] = links

    sim.process(srv())
    sim.process(cli())
    sim.run(until=30)
    return inet, a, RebalancingParallelDriver(out["a"])


class TestStreamsKnob:
    def test_shrink_quiesces_grow_reactivates(self):
        _inet, _a, driver = _parallel_driver(4)
        knobs = StackKnobs(stack=driver)
        assert knobs.supports("streams") and knobs.get("streams") == 4
        knobs.set("streams", 2)
        assert driver.active_streams == 2
        assert driver.alive_members == 4  # quiesced, not torn down
        knobs.set("streams", 3)
        assert driver.active_streams == 3

    def test_clamped_to_membership(self):
        _inet, _a, driver = _parallel_driver(3)
        knobs = StackKnobs(stack=driver)
        knobs.set("streams", 0)
        assert driver.active_streams == 1
        knobs.set("streams", 99)
        assert driver.active_streams == 3

    def test_found_through_a_wrapping_stack(self):
        inet, a, driver = _parallel_driver(2)
        adaptive = AdaptiveCompressionDriver(driver, a)
        knobs = StackKnobs(stack=adaptive)
        assert knobs.supports("streams") and knobs.supports("compress")
        knobs.set("streams", 1)
        assert driver.active_streams == 1


class TestCompressKnob:
    def test_mode_mapping_round_trips(self):
        inet, a, driver = _parallel_driver(2)
        adaptive = AdaptiveCompressionDriver(driver, a)
        knobs = StackKnobs(stack=adaptive)
        assert knobs.get("compress") == "auto"
        knobs.set("compress", "on")
        assert adaptive.force_mode == "compress"
        assert knobs.get("compress") == "on"
        knobs.set("compress", "off")
        assert adaptive.force_mode == "raw"
        knobs.set("compress", "auto")
        assert adaptive.force_mode is None

    def test_bad_mode_rejected(self):
        inet, a, driver = _parallel_driver(2)
        adaptive = AdaptiveCompressionDriver(driver, a)
        knobs = StackKnobs(stack=adaptive)
        with pytest.raises(KnobError):
            knobs.set("compress", "maybe")


def _mux_pair(window=DEFAULT_WINDOW):
    inet, a, b = two_public_hosts()
    sim = inet.sim
    out = {}

    async def srv():
        listener = listen(b, 5000)
        sock = await listener.accept()
        out["resp"] = await MuxEndpoint.establish(
            TcpLink(sock, "client_server"), MuxEndpoint.RESPONDER,
            window=window, node="resp")

    async def cli():
        sock = await connect(a, (b.ip, 5000))
        out["ini"] = await MuxEndpoint.establish(
            TcpLink(sock, "client_server"), MuxEndpoint.INITIATOR,
            window=window, node="ini")

    sim.process(srv())
    sim.process(cli())
    sim.run(until=30)
    return sim, out["ini"], out["resp"]


class TestMuxWindowKnob:
    def _channel(self, window=1 << 14):
        sim, ini, resp = _mux_pair(window=window)
        out = {}

        async def opener():
            out["tx"] = await ini.open_channel(tag=b"bulk")

        async def acceptor():
            out["rx"] = await resp.accept_channel()

        sim.process(opener())
        sim.process(acceptor())
        sim.run(until=sim.now + 30)
        return sim, out["tx"], out["rx"]

    def test_growth_grants_credit_immediately(self):
        sim, tx, rx = self._channel(window=1 << 14)
        knobs = StackKnobs(mux_channel=rx)
        assert knobs.get("mux_window") == 1 << 14
        knobs.set("mux_window", 1 << 15)
        sim.run(until=sim.now + 5)
        assert rx._rx_window == 1 << 15
        granted = obs.metrics().counter(
            "mux.credit_granted", node="resp", channel=str(rx.channel_id))
        assert granted.value >= (1 << 15) - (1 << 14)
        # The sender saw the extra credit (plus the WINDOW announcement).
        assert tx._tx_credit == 1 << 15
        assert tx.peer_rx_window == 1 << 15

    def test_shrink_is_graceful_debt_not_clawback(self):
        sim, tx, rx = self._channel(window=1 << 15)
        knobs = StackKnobs(mux_channel=rx)
        knobs.set("mux_window", 1 << 14)
        sim.run(until=sim.now + 5)
        assert rx._rx_window == 1 << 14
        assert rx._grant_debt == (1 << 15) - (1 << 14)
        # No credit was revoked from the sender.
        assert tx._tx_credit == 1 << 15

    def test_regrowth_absorbs_outstanding_debt(self):
        sim, tx, rx = self._channel(window=1 << 15)
        knobs = StackKnobs(mux_channel=rx)
        knobs.set("mux_window", 1 << 14)   # debt = 16384
        knobs.set("mux_window", 12 * 1024)  # more debt
        knobs.set("mux_window", 1 << 15)   # regrow: absorbed, no new grant
        sim.run(until=sim.now + 5)
        assert rx._grant_debt == 0
        assert tx._tx_credit == 1 << 15

    def test_retunes_are_counted(self):
        sim, _tx, rx = self._channel()
        knobs = StackKnobs(mux_channel=rx)
        knobs.set("mux_window", 1 << 15)
        knobs.set("mux_window", 1 << 16)
        retunes = obs.metrics().counter(
            "mux.window_retunes_total", node="resp")
        assert retunes.value == 2


class TestUnboundKnobs:
    def test_unbound_surfaces_report_unsupported(self):
        knobs = StackKnobs()
        for name in ("streams", "compress", "replay_buffer",
                     "mux_window", "rcvbuf"):
            assert not knobs.supports(name)
            with pytest.raises(KnobError):
                knobs.get(name)

    def test_rcvbuf_is_recorded_for_reestablishment(self):
        knobs = StackKnobs(rcvbuf=65536)
        assert knobs.get("rcvbuf") == 65536
        knobs.set("rcvbuf", 1 << 17)
        assert knobs.get("rcvbuf") == 1 << 17
