"""Live Ibis Name Service: the registry protocol over real sockets.

Byte-compatible with :mod:`repro.ipl.registry` (same ops, same frames) —
a node could in principle talk to either; only the IO binding differs.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.addressing import EndpointInfo
from ..ipl.registry import (
    OP_ELECT,
    OP_LEAVE,
    OP_LIST,
    OP_LOOKUP_NODE,
    OP_LOOKUP_PORT,
    OP_REGISTER,
    OP_REGISTER_PORT,
    OP_UNREGISTER_PORT,
    ST_OK,
    RegistryError,
    RegistryState,
)
from ..util.framing import ByteReader, ByteWriter, FrameError
from .transport import LiveSocket, live_connect, live_listen
from .wire import WireError, read_frame, write_frame

__all__ = ["LiveRegistryServer", "LiveRegistryClient"]

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

    @property
    def addr(self) -> Addr:
        return self._listener.addr

    @property
    def nodes(self) -> dict:
        return self.state.nodes

    async def start(self) -> "LiveRegistryServer":
        import asyncio

        self._listener = await live_listen(self.host, self.port)
        self._task = asyncio.ensure_future(self._accept_loop())
        return self

    async def _accept_loop(self) -> None:
        import asyncio

        while True:
            sock = await self._listener.accept()
            asyncio.ensure_future(self._session(sock))

    async def _session(self, sock: LiveSocket) -> None:
        registered: Optional[str] = None
        try:
            while True:
                body = await read_frame(sock)
                self.state.requests += 1
                reply, registered = self.state._handle(body, registered)
                await write_frame(sock, reply)
        except (EOFError, FrameError, WireError, ConnectionError):
            pass
        finally:
            if registered is not None:
                self.state._drop_node(registered)
            sock.close()

    def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
        if self._listener is not None:
            self._listener.close()


class LiveRegistryClient:
    """asyncio registry client (same wire calls as the sim client)."""

    def __init__(self, registry_addr: Addr):
        self.registry_addr = registry_addr
        self._sock: Optional[LiveSocket] = None

    async def connect(self) -> "LiveRegistryClient":
        self._sock = await live_connect(self.registry_addr)
        return self

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    async def _call(self, body: bytes) -> ByteReader:
        if self._sock is None:
            raise RegistryError("registry client not connected")
        await write_frame(self._sock, body)
        reply = await read_frame(self._sock)
        reader = ByteReader(reply)
        if reader.u8() == ST_OK:
            return reader
        raise RegistryError(reader.lp_str())

    async def register(self, name: str, info: EndpointInfo) -> None:
        await self._call(
            ByteWriter().u8(OP_REGISTER).lp_str(name).lp_bytes(info.encode()).getvalue()
        )

    async def leave(self, name: str) -> None:
        await self._call(ByteWriter().u8(OP_LEAVE).lp_str(name).getvalue())

    async def lookup_node(self, name: str) -> EndpointInfo:
        reader = await self._call(
            ByteWriter().u8(OP_LOOKUP_NODE).lp_str(name).getvalue()
        )
        return EndpointInfo.decode(reader.lp_bytes())

    async def register_port(self, port_name: str, owner: str) -> None:
        await self._call(
            ByteWriter()
            .u8(OP_REGISTER_PORT)
            .lp_str(port_name)
            .lp_str(owner)
            .getvalue()
        )

    async def unregister_port(self, port_name: str) -> None:
        await self._call(
            ByteWriter().u8(OP_UNREGISTER_PORT).lp_str(port_name).getvalue()
        )

    async def lookup_port(self, port_name: str):
        reader = await self._call(
            ByteWriter().u8(OP_LOOKUP_PORT).lp_str(port_name).getvalue()
        )
        owner = reader.lp_str()
        return owner, EndpointInfo.decode(reader.lp_bytes())

    async def elect(self, election: str, candidate: str) -> str:
        reader = await self._call(
            ByteWriter().u8(OP_ELECT).lp_str(election).lp_str(candidate).getvalue()
        )
        return reader.lp_str()

    async def list_nodes(self) -> list:
        reader = await self._call(ByteWriter().u8(OP_LIST).getvalue())
        return [reader.lp_str() for _ in range(reader.u32())]
