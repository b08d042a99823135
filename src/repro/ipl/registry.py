"""The Ibis Name Service (paper §5).

"A registry, called Ibis Name Service, is provided to locate receive
ports, allowing to bootstrap connections."

The registry runs on a publicly reachable host.  Nodes keep a persistent
bootstrap connection to it (dialled directly, or through a SOCKS proxy on
severely firewalled sites) and use it to:

* register themselves with their :class:`~repro.core.addressing.EndpointInfo`
  (so peers can run the Figure 4 decision tree);
* register / unregister / look up named receive ports;
* run elections (first candidate wins — the Ibis election primitive).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.addressing import EndpointInfo
from ..core.wire import WireError, recv_frame, send_frame
from ..simnet.packet import Addr
from ..simnet.sockets import SimSocket, connect, listen
from ..util.framing import ByteReader, ByteWriter, FrameError

__all__ = [
    "RegistryServer",
    "RegistryClient",
    "RegistryState",
    "RegistryError",
    "serve_session",
]

OP_REGISTER = 1
OP_LEAVE = 2
OP_LOOKUP_NODE = 3
OP_REGISTER_PORT = 4
OP_UNREGISTER_PORT = 5
OP_LOOKUP_PORT = 6
OP_ELECT = 7
OP_LIST = 8

ST_OK = 0
ST_ERR = 1


class RegistryError(Exception):
    """Name-service failure (unknown name, duplicate registration, ...)."""


class RegistryState:
    """The IO-free name-service state machine.

    Both the simulated and the live (asyncio) registry servers bind this
    to their transport; requests and replies are opaque frame bodies.
    """

    def __init__(self):
        # node name -> encoded EndpointInfo
        self.nodes: dict[str, bytes] = {}
        # port name -> node name
        self.ports: dict[str, str] = {}
        # election name -> winner
        self.elections: dict[str, str] = {}
        self.requests = 0

    def _drop_node(self, name: str) -> None:
        self.nodes.pop(name, None)
        for port, owner in list(self.ports.items()):
            if owner == name:
                del self.ports[port]

    def _handle(self, body: bytes, registered: Optional[str]):
        r = ByteReader(body)
        op = r.u8()
        ok = lambda payload=b"": ByteWriter().u8(ST_OK).raw(payload).getvalue()
        err = lambda msg: ByteWriter().u8(ST_ERR).lp_str(msg).getvalue()

        if op == OP_REGISTER:
            name = r.lp_str()
            info = r.lp_bytes()
            if name in self.nodes:
                return err(f"node {name!r} already registered"), registered
            self.nodes[name] = info
            return ok(), name
        if op == OP_LEAVE:
            name = r.lp_str()
            self._drop_node(name)
            return ok(), None if registered == name else registered
        if op == OP_LOOKUP_NODE:
            name = r.lp_str()
            info = self.nodes.get(name)
            if info is None:
                return err(f"unknown node {name!r}"), registered
            return ok(ByteWriter().lp_bytes(info).getvalue()), registered
        if op == OP_REGISTER_PORT:
            port_name = r.lp_str()
            owner = r.lp_str()
            if port_name in self.ports:
                return err(f"port {port_name!r} already registered"), registered
            if owner not in self.nodes:
                return err(f"owner {owner!r} not registered"), registered
            self.ports[port_name] = owner
            return ok(), registered
        if op == OP_UNREGISTER_PORT:
            port_name = r.lp_str()
            self.ports.pop(port_name, None)
            return ok(), registered
        if op == OP_LOOKUP_PORT:
            port_name = r.lp_str()
            owner = self.ports.get(port_name)
            if owner is None:
                return err(f"unknown port {port_name!r}"), registered
            info = self.nodes[owner]
            payload = ByteWriter().lp_str(owner).lp_bytes(info).getvalue()
            return ok(payload), registered
        if op == OP_ELECT:
            election = r.lp_str()
            candidate = r.lp_str()
            winner = self.elections.setdefault(election, candidate)
            return ok(ByteWriter().lp_str(winner).getvalue()), registered
        if op == OP_LIST:
            w = ByteWriter().u32(len(self.nodes))
            for name in self.nodes:
                w.lp_str(name)
            return ok(w.getvalue()), registered
        return err(f"unknown op {op}"), registered


async def serve_session(state: RegistryState, sock):
    """One client connection's request loop, on either backend: a
    malformed or oversized frame ends that connection, not the server."""
    registered: Optional[str] = None
    try:
        while True:
            body = await recv_frame(sock)
            state.requests += 1
            reply, registered = state._handle(body, registered)
            await send_frame(sock, reply)
    except (EOFError, FrameError, WireError, ConnectionError):
        pass
    finally:
        if registered is not None:
            state._drop_node(registered)
        sock.close()


class RegistryServer:
    """The simulated name-service process."""

    def __init__(self, host, port: int = 4100):
        self.host = host
        self.port = port
        self.state = RegistryState()

    # Back-compat accessors used throughout tests and benchmarks.
    @property
    def nodes(self) -> dict:
        return self.state.nodes

    @property
    def ports(self) -> dict:
        return self.state.ports

    @property
    def elections(self) -> dict:
        return self.state.elections

    @property
    def requests(self) -> int:
        return self.state.requests

    @property
    def addr(self) -> Addr:
        return (self.host.ip, self.port)

    def start(self) -> None:
        listener = listen(self.host, self.port, backlog=64)

        async def accept_loop():
            while True:
                sock = await listener.accept()
                self.host.sim.process(
                    serve_session(self.state, sock), name="registry-session"
                )

        self.host.sim.process(accept_loop(), name="registry-accept")


class RegistryClient:
    """A node's persistent connection to the name service, on either
    backend: ``connector(host, addr)`` dials it (the simulator's
    ``connect`` by default; the live runtime passes ``live_connect``)."""

    def __init__(self, host, registry_addr: Addr, connector: Optional[Callable] = None):
        self.host = host
        self.registry_addr = registry_addr
        self.connector = connector
        self._sock: Optional[SimSocket] = None

    async def connect(self):
        if self.connector is not None:
            self._sock = await self.connector(self.host, self.registry_addr)
        else:
            self._sock = await connect(self.host, self.registry_addr)
        return self

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    async def _call(self, body: bytes):
        if self._sock is None:
            raise RegistryError("registry client not connected")
        await send_frame(self._sock, body)
        reply = await recv_frame(self._sock)
        r = ByteReader(reply)
        if r.u8() == ST_OK:
            return r
        raise RegistryError(r.lp_str())

    # -- operations ------------------------------------------------------------
    async def register(self, name: str, info: EndpointInfo):
        body = (
            ByteWriter().u8(OP_REGISTER).lp_str(name).lp_bytes(info.encode()).getvalue()
        )
        await self._call(body)

    async def leave(self, name: str):
        await self._call(ByteWriter().u8(OP_LEAVE).lp_str(name).getvalue())

    async def lookup_node(self, name: str):
        r = await self._call(
            ByteWriter().u8(OP_LOOKUP_NODE).lp_str(name).getvalue()
        )
        return EndpointInfo.decode(r.lp_bytes())

    async def register_port(self, port_name: str, owner: str):
        body = (
            ByteWriter()
            .u8(OP_REGISTER_PORT)
            .lp_str(port_name)
            .lp_str(owner)
            .getvalue()
        )
        await self._call(body)

    async def unregister_port(self, port_name: str):
        await self._call(
            ByteWriter().u8(OP_UNREGISTER_PORT).lp_str(port_name).getvalue()
        )

    async def lookup_port(self, port_name: str):
        """Returns ``(owner_node_id, owner_EndpointInfo)``."""
        r = await self._call(
            ByteWriter().u8(OP_LOOKUP_PORT).lp_str(port_name).getvalue()
        )
        owner = r.lp_str()
        info = EndpointInfo.decode(r.lp_bytes())
        return owner, info

    async def elect(self, election: str, candidate: str):
        r = await self._call(
            ByteWriter().u8(OP_ELECT).lp_str(election).lp_str(candidate).getvalue()
        )
        return r.lp_str()

    async def list_nodes(self):
        r = await self._call(ByteWriter().u8(OP_LIST).getvalue())
        return [r.lp_str() for _ in range(r.u32())]
