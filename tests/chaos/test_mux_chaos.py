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
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_overrun_names_only_the_node_that_overran(self):
        """Two senders share channel 7; ``a`` granted 100 and ``b`` 50, so
        each may send what the *other* granted."""
        reg = MetricsRegistry()
        reg.counter("mux.credit_granted", node="a", channel="7").inc(100)
        reg.counter("mux.credit_granted", node="b", channel="7").inc(50)
        reg.counter("mux.tx_bytes", node="a", channel="7").inc(50)
        reg.counter("mux.tx_bytes", node="b", channel="7").inc(101)
        reg.counter("mux.rx_bytes", node="a", channel="7").inc(101)
        reg.counter("mux.rx_bytes", node="b", channel="7").inc(50)
        assert _mux_violations(reg) == [
            "mux: channel 7 credit overrun on b: "
            "101 bytes sent, 100 granted by the peer"
        ]

    def test_delivered_but_never_sent_breaks_conservation(self):
        reg = MetricsRegistry()
        reg.counter("mux.rx_bytes", node="b", channel="9").inc(10)
        assert _mux_violations(reg) == [
            "mux: channel 9 conservation broken: 0 bytes sent, 10 delivered"
        ]


def _mux_violations_before(registry: MetricsRegistry) -> list[str]:
    """``_mux_violations`` as it was before it read each family in one pass
    into per-channel groups: the oracle the differential below compares
    against (only its two sorts are gone: the caller sorts every violation)."""
    tx: dict = {}
    rx: dict = {}
    tx_by_node: dict = {}
    granted: dict = {}
    for counter in registry.instruments("mux.tx_bytes"):
        ch = counter.labels.get("channel", "?")
        node = counter.labels.get("node", "?")
        tx[ch] = tx.get(ch, 0) + counter.value
        tx_by_node[(node, ch)] = tx_by_node.get((node, ch), 0) + counter.value
    for counter in registry.instruments("mux.rx_bytes"):
        ch = counter.labels.get("channel", "?")
        rx[ch] = rx.get(ch, 0) + counter.value
    for counter in registry.instruments("mux.credit_granted"):
        ch = counter.labels.get("channel", "?")
        node = counter.labels.get("node", "?")
        granted[(node, ch)] = granted.get((node, ch), 0) + counter.value
    granted_by_ch: dict = {}
    for (node, ch), value in granted.items():
        granted_by_ch[ch] = granted_by_ch.get(ch, 0) + value
    out = []
    for ch in set(tx) | set(rx):
        sent, got = tx.get(ch, 0), rx.get(ch, 0)
        if sent != got:
            out.append(
                f"mux: channel {ch} conservation broken: "
                f"{sent} bytes sent, {got} delivered"
            )
    for (node, ch), sent in tx_by_node.items():
        allowed = granted_by_ch.get(ch, 0) - granted.get((node, ch), 0)
        if sent > allowed:
            out.append(
                f"mux: channel {ch} credit overrun on {node}: "
                f"{sent} bytes sent, {allowed} granted by the peer"
            )
    return out


#: few nodes and channels, so channels get several senders, senders that
#: also grant, rx without tx and tx without a grant; ``None`` leaves the
#: label off (the ``"?"`` default); ``lane`` makes two counters of one
#: (node, channel), which both versions must add up
_LEDGER_ENTRIES = st.lists(
    st.tuples(
        st.sampled_from(["mux.tx_bytes", "mux.rx_bytes", "mux.credit_granted"]),
        st.sampled_from(["a", "b", "relay", None]),
        st.sampled_from(["1", "2", "17", "bulk", "", None]),
        st.sampled_from([None, "x", "y"]),
        st.sampled_from([0, 1, 100, 101, 65536, 65537]),
    ),
    max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(_LEDGER_ENTRIES)
def test_mux_violations_agree_with_the_version_before(entries):
    reg = MetricsRegistry()
    for family, node, channel, lane, amount in entries:
        labels = {"node": node, "channel": channel, "lane": lane}
        labels = {k: v for k, v in labels.items() if v is not None}
        reg.counter(family, **labels).inc(amount)
    assert sorted(_mux_violations(reg)) == sorted(_mux_violations_before(reg))


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
