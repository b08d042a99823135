"""Brokered connection factory: spec negotiation + stacked channels."""

import pytest

from repro.core.factory import BrokeredConnectionFactory, TlsConfig
from repro.core.scenarios import GridScenario
from repro.core.utilization.spec import StackSpec
from repro.security import CertificateAuthority, Identity


def _run_channel(kind_a, kind_b, spec, payload, tls=False, seed=11, until=300):
    # Parametrized specs stay strings (readable test IDs); the factory
    # itself gets the typed form.
    spec = StackSpec.parse(spec) if isinstance(spec, str) else spec
    sc = GridScenario(seed=seed)
    sc.add_site("A", kind_a)
    sc.add_site("B", kind_b)
    node_a = sc.add_node("A", "a")
    node_b = sc.add_node("B", "b")
    tls_a = tls_b = None
    if tls:
        ca = CertificateAuthority("grid-root")
        ka, cert_a = ca.issue_identity("a")
        kb, cert_b = ca.issue_identity("b")
        tls_a = TlsConfig([ca.certificate], Identity(ka, [cert_a]))
        tls_b = TlsConfig([ca.certificate], Identity(kb, [cert_b]))
    res = {}

    async def run_a():
        await node_a.start()
        while not node_b.relay_client.connected:
            await sc.sim.timeout(0.05)
        service = await node_a.open_service_link("b")
        factory = BrokeredConnectionFactory(node_a, tls_a)
        channel = await factory.connect(service, node_b.info, spec=spec)
        await channel.send_message(payload)
        res["echo"] = await channel.recv_message()
        res["channel"] = channel

    async def run_b():
        await node_b.start()
        _peer, service = await node_b.accept_service_link()
        factory = BrokeredConnectionFactory(node_b, tls_b)
        channel = await factory.accept(service)
        msg = await channel.recv_message()
        res["received"] = msg
        await channel.send_message(msg)

    sc.sim.process(run_a())
    sc.sim.process(run_b())
    sc.run(until=until)
    return res


PAYLOAD = bytes(range(256)) * 64


class TestFactory:
    @pytest.mark.parametrize(
        "spec",
        ["tcp_block", "parallel:2", "parallel:4", "compress|tcp_block",
         "compress|parallel:4", "adaptive|tcp_block"],
    )
    def test_specs_between_firewalled_sites(self, spec):
        res = _run_channel("firewall", "firewall", spec, PAYLOAD)
        assert res["echo"] == PAYLOAD
        assert res["received"] == PAYLOAD

    def test_parallel_streams_each_brokered(self):
        res = _run_channel("firewall", "cone_nat", "parallel:3", PAYLOAD)
        assert res["echo"] == PAYLOAD

    def test_tls_stack_authenticates(self):
        res = _run_channel("firewall", "firewall", "tls|tcp_block", PAYLOAD, tls=True)
        assert res["echo"] == PAYLOAD
        from repro.core.utilization import TlsDriver, find_driver

        tls = find_driver(res["channel"].driver, TlsDriver)
        assert tls.peer_subject == "b"

    def test_tls_over_compression_over_striping(self):
        res = _run_channel(
            "open", "broken_nat", "compress|tls|parallel:2", PAYLOAD, tls=True
        )
        assert res["echo"] == PAYLOAD

    def test_tls_without_config_rejected(self):
        # The ValueError raised inside the initiator process propagates out
        # of the simulation run.
        with pytest.raises(ValueError, match="TlsConfig"):
            _run_channel("open", "open", "tls|tcp_block", PAYLOAD, tls=False)


class TestStandaloneSessionWindow:
    """Negotiated replay-window flow control for non-mux sessions (PR 8).

    The service-link agreement frame carries each side's budget share;
    both ends clamp the replay buffer to the min, so N concurrent
    standalone sessions split the node's buffer budget instead of each
    retaining the full static default.
    """

    @staticmethod
    def _open_channels(n, spec_str):
        from repro.core.factory import SESSION_BUFFER_BUDGET  # noqa: F401

        spec = StackSpec.parse(spec_str)
        sc = GridScenario(seed=23)
        sc.add_site("A", "open")
        sc.add_site("B", "firewall")
        node_a = sc.add_node("A", "a")
        node_b = sc.add_node("B", "b")
        windows = []

        async def run_a():
            await node_a.start()
            while not node_b.relay_client.connected:
                await sc.sim.timeout(0.05)
            factory = BrokeredConnectionFactory(node_a)
            for _ in range(n):
                service = await node_a.open_service_link("b")
                channel = await factory.connect(service, node_b.info, spec=spec)
                await channel.send_message(b"probe")
                session = channel.driver.link
                windows.append(session.config.max_buffer)

        async def run_b():
            await node_b.start()
            factory = BrokeredConnectionFactory(node_b)
            for _ in range(n):
                _peer, service = await node_b.accept_service_link()
                channel = await factory.accept(service)
                await channel.recv_message()

        sc.sim.process(run_a())
        sc.sim.process(run_b())
        sc.run(until=300)
        return windows, node_a, node_b

    def test_single_session_capped_by_budget_share(self):
        from repro.core.factory import SESSION_BUFFER_BUDGET

        # spec asks for 8 MiB, but the whole-node budget is 4 MiB
        windows, node_a, node_b = self._open_channels(
            1, f"tcp_block|session:buf={8 << 20}"
        )
        assert windows == [SESSION_BUFFER_BUDGET]
        # both ends agreed on the same clamp
        assert {s.config.max_buffer for s in node_b.sessions} == {
            SESSION_BUFFER_BUDGET
        }

    def test_concurrent_sessions_split_the_budget(self):
        from repro.core.factory import SESSION_BUFFER_BUDGET

        windows, _, _ = self._open_channels(3, f"tcp_block|session:buf={8 << 20}")
        # each later session is offered a smaller share: budget / (live+1)
        assert windows == [
            SESSION_BUFFER_BUDGET // 1,
            SESSION_BUFFER_BUDGET // 2,
            SESSION_BUFFER_BUDGET // 3,
        ]

    def test_spec_cap_still_wins_when_smaller(self):
        windows, _, _ = self._open_channels(1, "tcp_block|session:buf=131072")
        assert windows == [131072]
