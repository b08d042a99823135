"""One test script, two bindings.

Protocol-level tests of a subsystem with a sans-IO core are written once
as ``async def`` scripts against a small harness; :class:`SimHarness` runs
them over the simulator binding, :class:`LiveHarness` over the asyncio
binding on real loopback sockets.  The base classes hand the script two
connected raw links; a subsystem's tests subclass them to put its own
layer on top (``tests/mux/conftest.py`` establishes mux endpoints,
``tests/core/test_session.py`` builds session pairs); :class:`SimRelay`
and :class:`LiveRelay` hand it two clients registered at one relay.

The sim side works because ``await`` only forwards whatever the awaited
object yields: wrapping a simulator generator in an object whose
``__await__`` does ``yield from`` lets a coroutine carry simulator events
up to the process that drives it, so one script body suits both.
"""

import asyncio
import contextlib
import inspect

from repro.core.links import TcpLink, transport_errors
from repro.core.relay import RelayClient, RelayServer
from repro.core.runtime import ASYNCIO, SimRuntime
from repro.core.wire import recv_frame, send_frame
from repro.livenet.relay import LiveRelayClient, LiveRelayServer
from repro.livenet.transport import live_listen
from repro.simnet import Internet, connect, listen
from repro.simnet.engine import all_of
from repro.simnet.testing import two_public_hosts

from .livenet.conftest import LIVENET_DEADLINE, eventually, socket_pairs


class _Steps:
    """Awaitable view of a simulator generator."""

    def __init__(self, gen):
        self._gen = gen

    def __await__(self):
        return (yield from self._gen)


def _drive(coro):
    """Simulator process body that runs a coroutine to completion: a native
    one through ``__await__``; a generator-based one (a driver method) is
    its own steps."""
    return (yield from (coro if inspect.isgenerator(coro) else coro.__await__()))


class _FrameIO:
    """``core.wire``'s frame IO is a generator-based coroutine: the same
    call is awaitable on both bindings."""

    def send_frame(self, stream, body):
        return send_frame(stream, body)

    def recv_frame(self, stream):
        return recv_frame(stream)


class SimHarness(_FrameIO):
    """Runs a script over two simulated hosts and one TCP connection."""

    def setup(self):
        """``(simulator, initiator's end, responder's end)``."""
        inet, a, b = two_public_hosts()
        links = {}

        def srv():
            sock = yield from listen(b, 5000).accept()
            links["resp"] = TcpLink(sock, "client_server")

        def cli():
            sock = yield from connect(a, (b.ip, 5000))
            links["ini"] = TcpLink(sock, "client_server")

        inet.sim.process(srv())
        inet.sim.process(cli())
        inet.sim.run(until=30)
        return inet.sim, links["ini"], links["resp"]

    def run(self, script, *, until=600):
        self.sim, ini, resp = self.setup()
        self.runtime = SimRuntime(self.sim)
        self.carrier_errors = transport_errors()
        done = self.sim.process(_drive(script(self, ini, resp)))
        self.sim.run(until=self.sim.now + until)
        assert done.triggered, "script never finished (deadlock?)"
        return done.value

    def now(self):
        return self.runtime.now()

    def sleep(self, seconds):
        return self.runtime.sleep(seconds)

    async def until(self, predicate, timeout=60.0, step=0.01):
        """Wait (in simulated time) for state with no awaitable edge."""
        deadline = self.sim.now + timeout
        while not predicate():
            assert self.sim.now < deadline, f"never became true: {predicate!r}"
            await self.sleep(step)

    def gather(self, *coros):
        procs = [self.sim.process(_drive(c)) for c in coros]

        def steps():
            yield all_of(self.sim, procs)
            return [p.value for p in procs]
        return _Steps(steps())

    def spawn(self, coro, name="script"):
        return self.runtime.spawn(_drive(coro), name)

    def send(self, stream, data):
        return _Steps(stream.send_all(data))

    def recv(self, stream, maxbytes):
        return _Steps(stream.recv(maxbytes))

    def recv_exactly(self, stream, n):
        return _Steps(stream.recv_exactly(n))


class LiveHarness(_FrameIO):
    """Runs a script in a fresh event loop over one loopback connection.

    ``sleep`` takes the script's (simulated-scale) seconds and waits a
    hundredth of that: every script that sleeps does so only to let the
    other side reach a state it then holds indefinitely.
    """

    carrier_errors = (EOFError, OSError)
    runtime = ASYNCIO

    def setup(self):
        """Async context manager yielding the two connected ends."""
        return socket_pairs()

    def run(self, script, *, until=None):
        self._spawned = []

        async def main():
            async with self.setup() as ((client,), (server,)):
                try:
                    return await script(self, client, server)
                finally:
                    for task in self._spawned:
                        task.cancel()

        return asyncio.run(asyncio.wait_for(main(), timeout=LIVENET_DEADLINE))

    def now(self):
        return self.runtime.now()

    def sleep(self, seconds):
        return self.runtime.sleep(seconds / 100)

    def until(self, predicate, timeout=60.0, step=None):
        return eventually(predicate, timeout=timeout / 10)

    def gather(self, *coros):
        return asyncio.gather(*coros)

    def spawn(self, coro, name="script"):
        self._spawned.append(self.runtime.spawn(coro, name))  # keep a reference
        return self._spawned[-1]

    def send(self, stream, data):
        return stream.send_all(data)

    def recv(self, stream, maxbytes):
        return stream.recv(maxbytes)

    def recv_exactly(self, stream, n):
        return stream.recv_exactly(n)


class _RelayCalls:
    """A relay client's calls are generator-based coroutines: awaitable on
    both bindings as they are."""

    def connect(self, client):
        return client.connect()

    def open(self, client, peer, **kw):
        return client.open_link(peer, **kw)

    def accept(self, client):
        return client.accept_link()


class SimRelay(_RelayCalls, SimHarness):
    """Scripts get ``(h, node0's client, node1's client)``, both registered
    at ``h.relay`` on the simulator."""

    def setup(self):
        self.inet = Internet(seed=1)
        self.relay = RelayServer(self.inet.add_public_host("relay"), 4000)
        self.relay.start()
        clients = [self.client(f"node{i}") for i in range(2)]
        for client in clients:
            self.inet.sim.process(client.connect())
        self.inet.sim.run(until=30)
        return (self.inet.sim, *clients)

    def client(self, node_id):
        """A client of ``h.relay`` that has not registered yet."""
        host = self.inet.add_public_host(f"host-{len(self.inet.net.hosts)}")
        return RelayClient(host, node_id, self.relay.addr)

    async def mute_peer(self):
        """Address of a listener that accepts and then says nothing."""
        host = self.inet.add_public_host("mute")
        listener, held = listen(host, 4100), []

        def hold():
            while True:
                held.append((yield from listener.accept()))

        self.spawn(hold(), "mute-peer")
        return (host.ip, 4100)


class LiveRelay(_RelayCalls, LiveHarness):
    """Scripts get ``(h, node0's client, node1's client)``, both registered
    at ``h.relay`` on loopback."""

    @contextlib.asynccontextmanager
    async def setup(self):
        self.relay = await LiveRelayServer().start()
        self._clients = []
        try:
            a = await self.client("node0").connect()
            b = await self.client("node1").connect()
            yield (a,), (b,)
        finally:
            for client in self._clients:
                client.close()
            self.relay.close()

    def client(self, node_id):
        self._clients.append(LiveRelayClient(node_id, self.relay.addr))
        return self._clients[-1]

    async def mute_peer(self):
        """Address of a listener that accepts and then says nothing."""
        listener, held = await live_listen(), []
        self._clients.append(listener)  # closed with the clients

        async def hold():
            while True:
                held.append(await listener.accept())

        self.spawn(hold(), "mute-peer")
        return listener.addr
