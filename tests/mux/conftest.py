"""The mux flavour of the one-script-two-bindings harness.

``tests/dual.py`` connects two raw links on either backend; the harnesses
here establish a mux endpoint pair over them — :class:`SimHarness` with
the simulator binding (:class:`repro.mux.MuxEndpoint`),
:class:`LiveHarness` with the asyncio binding
(:class:`repro.livenet.mux.AsyncMuxEndpoint`) — and hand those to the
script instead.
"""

import pytest

from repro import obs
from repro.livenet.mux import AsyncMuxEndpoint
from repro.mux import DEFAULT_WINDOW, MuxEndpoint
from repro.obs.metrics import MetricsRegistry

from .. import dual


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(MetricsRegistry())
    yield
    obs.set_registry(previous)


class SimHarness(dual.SimHarness):
    """Scripts get ``(h, initiator endpoint, responder endpoint)``."""

    def run(self, script, *, establish=True, until=600,
            window=DEFAULT_WINDOW, scheduler_a=None):
        async def main(h, ini, resp):
            ends = [ini, resp]
            if establish:
                ends[:] = await self.gather(
                    self.establish(ini, MuxEndpoint.INITIATOR, node="ini",
                                   window=window, scheduler=scheduler_a),
                    self.establish(resp, MuxEndpoint.RESPONDER,
                                   node="resp", window=window))
            return await script(self, *ends)

        return super().run(main, until=until)

    def establish(self, link, role, **kw):
        return MuxEndpoint.establish(link, role, **kw)

    def open(self, endpoint, **kw):
        return endpoint.open_channel(**kw)

    def accept(self, endpoint, **kw):
        return endpoint.accept_channel(**kw)

    @staticmethod
    def carrier(endpoint):
        return endpoint.link


class LiveHarness(dual.LiveHarness):
    """Scripts get ``(h, initiator endpoint, responder endpoint)``."""

    def run(self, script, *, establish=True, until=None,
            window=DEFAULT_WINDOW, scheduler_a=None):
        async def main(h, client, server):
            ends = [client, server]
            try:
                if establish:
                    ends[:] = await self.gather(
                        self.establish(client, AsyncMuxEndpoint.INITIATOR,
                                       node="ini", window=window,
                                       scheduler=scheduler_a),
                        self.establish(server, AsyncMuxEndpoint.RESPONDER,
                                       node="resp", window=window))
                return await script(self, *ends)
            finally:
                for end in ends:
                    end.close()

        return super().run(main)

    def establish(self, sock, role, **kw):
        return AsyncMuxEndpoint.establish(sock, role, **kw)

    def open(self, endpoint, **kw):
        return endpoint.open_channel(**kw)

    def accept(self, endpoint, **kw):
        return endpoint.accept_channel(**kw)

    @staticmethod
    def carrier(endpoint):
        return endpoint.link
