"""The brokered factory's ``tls`` handshake deadline, on both runtimes.

A peer that accepts the data link and then says nothing must fail the
connect once :data:`~repro.core.factory.TLS_HANDSHAKE_DEADLINE` has
passed, not park the dialler for good.  The live run shortens the
deadline; the simulated one waits the real constant in simulated time.
"""

import types

import pytest

from repro.core import factory as factory_module
from repro.core.factory import BrokeredConnectionFactory, TlsConfig
from repro.core.utilization import StackSpec, build_stack
from repro.security import CertificateAuthority

from ..dual import LiveHarness, SimHarness

CA = CertificateAuthority("deadline-root")


@pytest.fixture(
    params=[SimHarness, pytest.param(LiveHarness, marks=pytest.mark.livenet)],
    ids=["sim", "live"],
)
def h(request):
    return request.param()


def test_a_silent_peer_fails_the_handshake_at_the_deadline(h, monkeypatch):
    if isinstance(h, LiveHarness):
        monkeypatch.setattr(factory_module, "TLS_HANDSHAKE_DEADLINE", 0.2)
    deadline = factory_module.TLS_HANDSHAKE_DEADLINE

    async def script(h, ini, _silent):
        node = types.SimpleNamespace(runtime=h.runtime)
        factory = BrokeredConnectionFactory(node, TlsConfig([CA.certificate]))
        stack = build_stack(StackSpec.tcp().with_tls(), [ini])
        start = h.now()
        with pytest.raises(TimeoutError):
            await factory._maybe_tls(stack, client=True)
        return h.now() - start

    elapsed = h.run(script)
    assert deadline <= elapsed < deadline + 1.0
