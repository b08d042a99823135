"""One test script, two mux bindings.

The protocol-level endpoint tests are written once as ``async def``
scripts against a small harness; :class:`SimHarness` runs them over the
simulator binding (:class:`repro.mux.MuxEndpoint`), :class:`LiveHarness`
over the asyncio binding (:class:`repro.livenet.mux.AsyncMuxEndpoint`) on
real loopback sockets.

The sim side works because ``await`` only forwards whatever the awaited
object yields: wrapping a simulator generator in an object whose
``__await__`` does ``yield from`` lets a coroutine carry simulator events
up to the process that drives it, so one script body suits both.
"""

import asyncio

import pytest

from repro import obs
from repro.core.links import TcpLink, transport_errors
from repro.core.wire import recv_frame, send_frame
from repro.livenet.mux import AsyncMuxEndpoint
from repro.livenet.wire import read_frame, write_frame
from repro.mux import DEFAULT_WINDOW, MuxEndpoint
from repro.obs.metrics import MetricsRegistry
from repro.simnet import connect, listen
from repro.simnet.engine import all_of
from repro.simnet.testing import two_public_hosts

from ..livenet.conftest import LIVENET_DEADLINE, socket_pairs


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(MetricsRegistry())
    yield
    obs.set_registry(previous)


class _Steps:
    """Awaitable view of a simulator generator."""

    def __init__(self, gen):
        self._gen = gen

    def __await__(self):
        return (yield from self._gen)


def _drive(coro):
    """Simulator process body that runs a coroutine to completion."""
    return (yield from coro.__await__())


class SimHarness:
    """Runs a script over two simulated hosts and one TCP connection."""

    def run(self, script, *, establish=True, until=600,
            window=DEFAULT_WINDOW, scheduler_a=None):
        inet, a, b = two_public_hosts()
        self.sim = inet.sim
        self.carrier_errors = transport_errors()
        links = {}

        def srv():
            sock = yield from listen(b, 5000).accept()
            links["resp"] = TcpLink(sock, "client_server")

        def cli():
            sock = yield from connect(a, (b.ip, 5000))
            links["ini"] = TcpLink(sock, "client_server")

        self.sim.process(srv())
        self.sim.process(cli())
        self.sim.run(until=30)
        ends = [links["ini"], links["resp"]]

        async def main():
            if establish:
                ends[:] = await self.gather(
                    self.establish(ends[0], MuxEndpoint.INITIATOR, node="ini",
                                   window=window, scheduler=scheduler_a),
                    self.establish(ends[1], MuxEndpoint.RESPONDER,
                                   node="resp", window=window))
            await script(self, *ends)

        done = self.sim.process(_drive(main()))
        self.sim.run(until=until)
        assert done.triggered, "script never finished (deadlock?)"
        return done.value

    def now(self):
        return self.sim.now

    def sleep(self, seconds):
        def steps():
            yield self.sim.timeout(seconds)
        return _Steps(steps())

    def gather(self, *coros):
        procs = [self.sim.process(_drive(c)) for c in coros]

        def steps():
            yield all_of(self.sim, procs)
            return [p.value for p in procs]
        return _Steps(steps())

    def spawn(self, coro):
        self.sim.process(_drive(coro))

    def establish(self, link, role, **kw):
        return _Steps(MuxEndpoint.establish(link, role, **kw))

    def open(self, endpoint, **kw):
        return _Steps(endpoint.open_channel(**kw))

    def accept(self, endpoint, **kw):
        return _Steps(endpoint.accept_channel(**kw))

    def send(self, stream, data):
        return _Steps(stream.send_all(data))

    def recv(self, stream, maxbytes):
        return _Steps(stream.recv(maxbytes))

    def recv_exactly(self, stream, n):
        return _Steps(stream.recv_exactly(n))

    def send_frame(self, stream, body):
        return _Steps(send_frame(stream, body))

    def recv_frame(self, stream):
        return _Steps(recv_frame(stream))

    @staticmethod
    def carrier(endpoint):
        return endpoint.link


class LiveHarness:
    """Runs a script in a fresh event loop over one loopback connection.

    ``sleep`` takes the script's (simulated-scale) seconds and waits a
    hundredth of that: every script that sleeps does so only to let the
    other side reach a state it then holds indefinitely.
    """

    carrier_errors = (EOFError, OSError)

    def run(self, script, *, establish=True, until=None,
            window=DEFAULT_WINDOW, scheduler_a=None):
        self._spawned = []

        async def main():
            async with socket_pairs() as ((client,), (server,)):
                ends = [client, server]
                try:
                    if establish:
                        ends[:] = await asyncio.gather(
                            AsyncMuxEndpoint.establish(
                                client, AsyncMuxEndpoint.INITIATOR, node="ini",
                                window=window, scheduler=scheduler_a),
                            AsyncMuxEndpoint.establish(
                                server, AsyncMuxEndpoint.RESPONDER,
                                node="resp", window=window))
                    return await script(self, *ends)
                finally:
                    for task in self._spawned:
                        task.cancel()
                    for end in ends:
                        end.close()

        return asyncio.run(asyncio.wait_for(main(), timeout=LIVENET_DEADLINE))

    def now(self):
        return asyncio.get_running_loop().time()

    def sleep(self, seconds):
        return asyncio.sleep(seconds / 100)

    def gather(self, *coros):
        return asyncio.gather(*coros)

    def spawn(self, coro):
        self._spawned.append(asyncio.ensure_future(coro))  # keep a reference

    def establish(self, sock, role, **kw):
        return AsyncMuxEndpoint.establish(sock, role, **kw)

    def open(self, endpoint, **kw):
        return endpoint.open_channel(**kw)

    def accept(self, endpoint, **kw):
        return endpoint.accept_channel(**kw)

    def send(self, stream, data):
        return stream.send_all(data)

    def recv(self, stream, maxbytes):
        return stream.recv(maxbytes)

    def recv_exactly(self, stream, n):
        return stream.recv_exactly(n)

    def send_frame(self, stream, body):
        return write_frame(stream, body)

    def recv_frame(self, stream):
        return read_frame(stream)

    @staticmethod
    def carrier(endpoint):
        return endpoint.sock
