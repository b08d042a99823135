"""Link utilization drivers (paper §4): composable block transforms.

``TCP_Block`` aggregation, parallel TCP streams, zlib compression (static
and adaptive) and TLS — assembled into stacks by
:mod:`~repro.core.utilization.stack` and fronted to applications by
:class:`~repro.core.utilization.stream.BlockChannel`.
"""

from .adaptive import AdaptiveCompressionDriver
from .base import Driver, DriverError, FilterDriver
from .compression import CompressionDriver
from .parallel import (
    DEFAULT_FRAGMENT,
    ParallelStreamsDriver,
    RebalancingParallelDriver,
)
from .spec import FILTERING, NETWORKING, SESSION, LayerSpec, StackSpec, StackSpecError
from .stack import (
    build_stack,
    find_driver,
    iter_drivers,
    links_required,
    parse_stack,
)
from .stream import DEFAULT_BLOCK, BlockChannel
from .tcp_block import TcpBlockDriver
from .tls import TlsDriver

__all__ = [
    "Driver",
    "FilterDriver",
    "DriverError",
    "TcpBlockDriver",
    "ParallelStreamsDriver",
    "RebalancingParallelDriver",
    "DEFAULT_FRAGMENT",
    "CompressionDriver",
    "AdaptiveCompressionDriver",
    "TlsDriver",
    "BlockChannel",
    "DEFAULT_BLOCK",
    "parse_stack",
    "links_required",
    "build_stack",
    "iter_drivers",
    "find_driver",
    "StackSpec",
    "LayerSpec",
    "StackSpecError",
    "NETWORKING",
    "FILTERING",
    "SESSION",
]
