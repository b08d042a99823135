"""Live (asyncio, real-socket) backend.

The same protocol suite as the simulator — block framing, striping,
compression flags, relay protocol, TLS records — bound to real TCP
connections, demonstrating that the architecture is not simulation-bound.
"""

# The four Async* names are core.utilization's own classes: the drivers are
# written once.  benchmarks/perf/stacks.py imports them from here; they
# retire with the PR that next edits it.
from ..core.utilization import BlockChannel as AsyncBlockChannel
from ..core.utilization import CompressionDriver as AsyncCompressionDriver
from ..core.utilization import TcpBlockDriver as AsyncTcpBlockDriver
from ..core.utilization import TlsDriver as AsyncTlsDriver
from .drivers import AsyncParallelStreamsDriver
from .proxy import ChaosTcpProxy, ProxyStats
from .registry import LiveRegistryServer
from .relay import (
    LiveMeshRelayClient,
    LiveRelayClient,
    LiveRelayServer,
    LiveRoutedLink,
)
from .runtime import LiveIbis, LiveIbisError
from .session import AsyncSessionError, AsyncSessionLink, AsyncSessionListener
from .transport import (
    LiveListener,
    LiveSocket,
    live_connect,
    live_connect_simultaneous,
    live_listen,
    set_connect_hook,
)

__all__ = [
    "LiveSocket",
    "LiveListener",
    "live_connect",
    "live_listen",
    "live_connect_simultaneous",
    "set_connect_hook",
    "ChaosTcpProxy",
    "ProxyStats",
    "AsyncSessionLink",
    "AsyncSessionListener",
    "AsyncSessionError",
    "AsyncTcpBlockDriver",
    "AsyncParallelStreamsDriver",
    "AsyncCompressionDriver",
    "AsyncTlsDriver",
    "AsyncBlockChannel",
    "LiveRelayServer",
    "LiveRelayClient",
    "LiveRoutedLink",
    "LiveMeshRelayClient",
    "LiveRegistryServer",
    "LiveIbis",
    "LiveIbisError",
]
