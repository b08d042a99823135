"""Live relay: the routed-messages relay over real sockets.

:mod:`repro.core.relay` is the binding of :mod:`repro.core.relay_core` —
the loops that move its frames — for both backends; the subclasses here
name the asyncio runtime and keep what is establishment on real sockets:
listening, dialling under a deadline, task bookkeeping.  A public machine
runs :class:`LiveRelayServer`; nodes keep a :class:`LiveRelayClient`
connection and multiplex :class:`LiveRoutedLink` streams over it;
:class:`LiveMeshRelayClient` is :mod:`repro.mesh.client`'s mesh client
over one :class:`LiveRelayClient` per relay, so a mid-stream relay kill
fails over to a survivor exactly as in the simulator.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.relay import _PEER_IO_TIMEOUT, RelayClient, RelayServer, RoutedLink
from ..core.relay_core import RelayError
from ..core.runtime import ASYNCIO
from ..mesh.client import MeshRelayClient
from ..mesh.config import MeshConfig
from .transport import Addr, live_connect, live_listen

__all__ = [
    "LiveRelayServer",
    "LiveRelayClient",
    "LiveRoutedLink",
    "LiveMeshRelayClient",
    "LiveRelayError",
]


class LiveRelayError(RelayError, ConnectionError):
    """A relay's refusal as the live stack sees it: also a dead transport,
    so the session and mux layers recover from it like from any other."""


async def _task(steps):
    """Root of every task started here: per-layer attribution
    (``benchmarks/perf``) follows the file a task's coroutine is defined in."""
    return await steps


class _Tasks:
    """The asyncio runtime, with the tasks spawned tracked for cancelling."""

    runtime = ASYNCIO

    def _spawn(self, steps, name: str):
        task = self.runtime.spawn(_task(steps), name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _cancel_tasks(self) -> None:
        for task in list(self._tasks):
            task.cancel()


class LiveRelayServer(_Tasks, RelayServer):
    """asyncio relay server (optionally one member of a relay mesh)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, name: str = "relay"):
        #: accept loop, gossip loop, one per connection, one per dialled trunk
        self._tasks: set = set()
        super().__init__(host, port, name)

    @property
    def addr(self) -> Addr:
        return self._listener.addr

    def _dial(self, addr: Addr):
        return self.runtime.bounded(live_connect(addr), _PEER_IO_TIMEOUT)

    async def start(self) -> "LiveRelayServer":
        self._listener = await live_listen(self.host, self.port)
        # Pin the OS-assigned port so a restart after a kill rebinds the
        # address every client and peer relay already knows.
        self.port = self._listener.port
        self._spawn(self._accept_loop(), "relay-accept")
        self.started()
        return self

    def stop(self) -> None:
        """Crash/stop the relay: drop every session and stop accepting."""
        self._cancel_tasks()
        super().stop()

    def close(self) -> None:
        self.stop()

    def enable_mesh(self, relay_id: str, peers: dict, seed,
                    config: Optional[MeshConfig] = None,
                    clock: Optional[Callable[[], float]] = None) -> None:
        """``clock`` lets a harness supply run-relative time so detector
        timestamps line up with its fault-plan timeline."""
        if clock is not None:
            self.clock = clock
        super().enable_mesh(relay_id, peers, seed, config)


class LiveRoutedLink(RoutedLink):
    """A virtual stream over the live relay."""


class LiveRelayClient(_Tasks, RelayClient):
    """A node's live connection to the relay."""

    link_class = LiveRoutedLink
    link_error = LiveRelayError

    def __init__(self, node_id: str, relay_addr: Addr, host=None, **kwargs):
        self._tasks: set = set()
        # no keepalive unless asked: loopback has no conntrack to keep warm
        kwargs.setdefault("keepalive", 0)
        super().__init__(host, node_id, relay_addr, **kwargs)

    def _dial(self, addr: Addr):
        return self.runtime.bounded(live_connect(addr), _PEER_IO_TIMEOUT)

    def close(self) -> None:
        super().close()
        self._cancel_tasks()


class _MeshLinkListener:
    """The listener surface (``accept``/``close``/``addr``) over routed links.

    Lets :class:`~repro.livenet.session.AsyncSessionListener` sit on top
    of a :class:`LiveMeshRelayClient`, so survivable sessions run over
    relay-routed streams — including RESUME re-dials that land on a
    *different* relay than the one that died.
    """

    def __init__(self, mesh_client: "LiveMeshRelayClient"):
        self.mesh_client = mesh_client

    @property
    def addr(self) -> Addr:
        return ("mesh", 0)

    async def accept(self) -> LiveRoutedLink:
        return await self.mesh_client.accept_link()

    def close(self) -> None:
        pass  # the mesh client owns its own lifecycle


class LiveMeshRelayClient(MeshRelayClient):
    """:class:`~repro.mesh.client.MeshRelayClient` over one
    :class:`LiveRelayClient` per relay, on the asyncio runtime."""

    runtime = ASYNCIO
    client_class = LiveRelayClient

    def __init__(self, node_id: str, relays: dict[str, Addr], seed=0,
                 config: Optional[MeshConfig] = None):
        super().__init__(None, node_id, relays, seed=seed, config=config,
                         keepalive=0)

    def link_listener(self) -> _MeshLinkListener:
        """An ``AsyncSessionListener``-compatible listener over routed links."""
        return _MeshLinkListener(self)
