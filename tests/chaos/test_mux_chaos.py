"""Chaos scenarios for the mux subsystem (ISSUE acceptance).

``mux_fanin`` pushes 32 logical channels over a single routed WAN link
through the factory's shared per-peer endpoint; ``mux_starvation`` runs
a bulk stream next to an interactive request/echo conversation on the
same carrier.  Both must come out green on the generic delivery audits,
the registry-wide credit-conservation invariant and their own fairness
post-checks, and the reports must be byte-identical across reruns.
"""

import asyncio
import types

import pytest

from repro import obs
from repro.chaos import run_chaos
from repro.chaos.invariants import _mux_violations
from repro.chaos.live import _live_invariants
from repro.livenet import live_connect, live_listen
from repro.livenet.mux import AsyncMuxEndpoint
from repro.mux import DEFAULT_WINDOW, MuxCore, MuxProtocolError
from repro.obs import MetricsRegistry, TraceRecorder


class TestMuxFanin:
    def test_32_channels_over_one_routed_link(self):
        report = run_chaos(
            scenario="mux_fanin", seed=1, plan="", retries=False
        )
        assert report.ok, report.violations
        assert len(report.channels) == 32
        assert all(c["complete"] for c in report.channels)
        assert all(
            c["sent_digest"] == c["received_digest"] for c in report.channels
        )
        # one carrier through the relay moved every payload byte
        total = sum(c["sent_bytes"] for c in report.channels)
        assert report.stats["relay_forwarded_bytes"] >= total

    def test_report_is_deterministic(self):
        a = run_chaos(scenario="mux_fanin", seed=7, plan="", retries=False)
        b = run_chaos(scenario="mux_fanin", seed=7, plan="", retries=False)
        assert a.to_json() == b.to_json()

    def test_sessions_compose_under_mux(self):
        report = run_chaos(
            scenario="mux_fanin", seed=2, plan="", retries=True, sessions=True
        )
        assert report.ok, report.violations


class TestMuxStarvation:
    def test_interactive_latency_bounded_beside_bulk(self):
        report = run_chaos(
            scenario="mux_starvation", seed=1, plan="", retries=False
        )
        assert report.ok, report.violations
        names = {c["name"] for c in report.channels}
        assert names == {"bulk", "interactive"}
        assert all(c["complete"] for c in report.channels)


class TestMuxInvariants:
    def test_conservation_violation_detected(self):
        reg = MetricsRegistry()
        reg.counter("mux.tx_bytes", node="a", channel="1").inc(1000)
        reg.counter("mux.rx_bytes", node="b", channel="1").inc(900)
        out = _mux_violations(reg)
        assert any("conservation" in v for v in out)

    def test_credit_overrun_detected(self):
        reg = MetricsRegistry()
        sent = DEFAULT_WINDOW + 1
        reg.counter("mux.tx_bytes", node="a", channel="1").inc(sent)
        reg.counter("mux.rx_bytes", node="b", channel="1").inc(sent)
        out = _mux_violations(reg)
        assert any("credit overrun" in v for v in out)

    def test_granted_credit_raises_the_bound(self):
        reg = MetricsRegistry()
        sent = DEFAULT_WINDOW + 500
        reg.counter("mux.tx_bytes", node="a", channel="1").inc(sent)
        reg.counter("mux.rx_bytes", node="b", channel="1").inc(sent)
        # the window the channel opened with is its first grant
        reg.counter("mux.credit_granted", node="b", channel="1").inc(
            DEFAULT_WINDOW + 500)
        assert _mux_violations(reg) == []

    def _small_window_transfer(self, overspend: int):
        """4 KiB-window channel between two bare cores; the sender's
        ledger is tampered with by ``overspend`` bytes of credit."""
        reg = MetricsRegistry()
        previous = obs.set_registry(reg)
        try:
            a = MuxCore(MuxCore.INITIATOR, node="a")
            b = MuxCore(MuxCore.RESPONDER, node="b")

            def pump():
                for src, dst in ((a, b), (b, a), (a, b)):
                    while (frame := src.next_frame()) is not None:
                        dst.feed(frame)

            tx, _ = a.open(window=4096)
            pump()
            rx = b.accept()
            pump()
            assert rx._rx_window == DEFAULT_WINDOW and tx._tx_credit > 4096
            # b -> a is the 4 KiB direction: a opened with window=4096
            rx._tx_credit += overspend
            rx.write(b"o" * (4096 + overspend))
            try:
                pump()
            except MuxProtocolError:
                assert overspend  # the receiver noticed too
                b.next_frame()  # the frame was written: its turn is accounted
            assert rx._tx_buffered == 0
        finally:
            obs.set_registry(previous)
        return _mux_violations(reg)

    def test_exact_window_on_a_small_channel_is_clean(self):
        assert self._small_window_transfer(0) == []

    def test_one_byte_over_a_small_window_is_flagged(self):
        """The check is ``sent <= granted`` per channel, not ``<= the
        default window + grants``: a 4 KiB-window channel overspent by one
        byte used to pass until it had sent 64 KiB."""
        out = self._small_window_transfer(1)
        assert any("channel 1 credit overrun on b" in v for v in out), out


@pytest.mark.livenet
class TestLiveMuxInvariants:
    """Live runs feed the mux invariants for real: both bindings emit the
    counters ``_mux_violations`` reads, because one core emits them."""

    TOTAL = 300_000  # several windows, so credit has to be granted back

    @pytest.fixture
    def live_run_obs(self):
        """A muxed loopback transfer, captured in a scoped registry."""
        registry, recorder = MetricsRegistry(), TraceRecorder()
        previous = obs.set_registry(registry), obs.set_tracer(recorder)

        async def transfer():
            listener = await live_listen()
            socks = await asyncio.gather(
                live_connect(listener.addr), listener.accept())
            listener.close()
            alice, bob = await asyncio.gather(
                AsyncMuxEndpoint.establish(
                    socks[0], AsyncMuxEndpoint.INITIATOR, node="alice"),
                AsyncMuxEndpoint.establish(
                    socks[1], AsyncMuxEndpoint.RESPONDER, node="bob"))
            try:
                for _ in range(2):
                    tx, rx = await asyncio.gather(
                        alice.open_channel(), bob.accept_channel())
                    _, data = await asyncio.gather(
                        tx.send_all(b"m" * self.TOTAL),
                        rx.recv_exactly(self.TOTAL))
                    assert data == b"m" * self.TOTAL
            finally:
                alice.close()
                bob.close()

        try:
            asyncio.run(asyncio.wait_for(transfer(), timeout=30.0))
            yield registry, recorder
        finally:
            obs.set_registry(previous[0])
            obs.set_tracer(previous[1])

    @staticmethod
    def _violations(registry, recorder):
        scenario = types.SimpleNamespace(proxies={})
        workload = types.SimpleNamespace(errors=[], audits=[])
        return _live_invariants(scenario, workload, registry, recorder, 0)

    def test_transfer_populates_the_counters_and_conserves(self, live_run_obs):
        registry, recorder = live_run_obs
        for ch in ("1", "3"):
            tx = registry.counter("mux.tx_bytes", node="alice", channel=ch)
            rx = registry.counter("mux.rx_bytes", node="bob", channel=ch)
            granted = registry.counter(
                "mux.credit_granted", node="bob", channel=ch)
            assert tx.value == rx.value == self.TOTAL
            assert granted.value > 0
            assert tx.value <= granted.value
        assert self._violations(registry, recorder) == []

    def test_a_perturbed_counter_trips_the_live_invariant(self, live_run_obs):
        registry, recorder = live_run_obs
        registry.counter("mux.rx_bytes", node="bob", channel="3").inc(1)
        out = self._violations(registry, recorder)
        assert any("channel 3 conservation broken" in v for v in out), out
        registry.counter("mux.tx_bytes", node="alice", channel="3").inc(1)
        assert self._violations(registry, recorder) == []
        # bytes that both arrived and were counted, but were never granted
        registry.counter("mux.tx_bytes", node="alice", channel="1").inc(10**6)
        registry.counter("mux.rx_bytes", node="bob", channel="1").inc(10**6)
        out = self._violations(registry, recorder)
        assert any("channel 1 credit overrun on alice" in v for v in out), out
