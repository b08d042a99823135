"""Live Ibis Name Service: the registry server over real sockets.

The protocol is :mod:`repro.ipl.registry`'s — the same state machine, the
same per-connection loop, the same client
(``RegistryClient(None, addr, connector=...)``); only the accept loop is
bound to asyncio here.
"""

from __future__ import annotations

from typing import Tuple

from ..core.runtime import ASYNCIO
from ..ipl.registry import RegistryState, serve_session
from .transport import live_listen

__all__ = ["LiveRegistryServer"]

Addr = Tuple[str, int]


class LiveRegistryServer:
    """asyncio name service reusing the simulated server's request logic."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        # The IO-free state machine shared with the simulated server.
        self.state = RegistryState()
        self._listener = None
        self._task = None
        #: one task per connected client, cancelled on close
        self._sessions: set = set()

    @property
    def addr(self) -> Addr:
        return self._listener.addr

    @property
    def nodes(self) -> dict:
        return self.state.nodes

    async def start(self) -> "LiveRegistryServer":
        self._listener = await live_listen(self.host, self.port)
        self._task = ASYNCIO.spawn(self._accept_loop(), "registry-accept")
        return self

    async def _accept_loop(self) -> None:
        while True:
            sock = await self._listener.accept()
            task = ASYNCIO.spawn(serve_session(self.state, sock), "registry-session")
            self._sessions.add(task)
            task.add_done_callback(self._sessions.discard)

    def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
        for task in list(self._sessions):
            task.cancel()  # serve_session closes the connection
        if self._listener is not None:
            self._listener.close()
