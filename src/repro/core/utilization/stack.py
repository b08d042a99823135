"""Driver-stack assembly (paper §5.1).

"NetIbis has been designed to make the communication paths between send
and receive ports completely configurable, either by configuration file or
by run-time properties."

Specs are :class:`~repro.core.utilization.spec.StackSpec` values (typed,
immutable, validated).  The string form, e.g.::

    "compress|parallel:4|tcp_block"
    "tls|tcp_block"
    "adaptive|parallel:8:fragment=8192|tcp_block|session"

is only a *wire format*: it is what travels over the service link (so
"driver assembly consistency on both endpoints" holds — §5.2) and is
parsed explicitly with :meth:`StackSpec.parse` at the receiving end.
Exactly one layer is a networking driver (``tcp_block`` or ``parallel``);
everything above is filtering; an optional ``session`` layer below it is
handled at establishment time (the factory wraps the links in
:class:`~repro.core.session.SessionLink` before assembly, so
:func:`build_stack` sees it only as part of the spec).
:func:`links_required` tells the factory how many data links to
establish; :func:`build_stack` assembles the tree on both endpoints.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ... import obs
from .adaptive import AdaptiveCompressionDriver
from .base import Driver, DriverError, FilterDriver
from .compression import CompressionDriver
from .parallel import (
    DEFAULT_FRAGMENT,
    ParallelStreamsDriver,
    RebalancingParallelDriver,
)
from .spec import FILTERING, NETWORKING, SESSION, LayerSpec, StackSpec, StackSpecError
from .tcp_block import TcpBlockDriver
from .tls import TlsDriver

__all__ = [
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


def _typed(spec: StackSpec) -> StackSpec:
    if not isinstance(spec, StackSpec):
        raise TypeError(
            f"expected StackSpec, got {type(spec).__name__}; the string form "
            f"is wire-only — use StackSpec.parse(...) or the typed builders"
        )
    return spec


def parse_stack(spec: StackSpec) -> list[tuple[str, dict]]:
    """Flatten a spec into the ``[(layer_name, params), ...]`` form."""
    return [(layer.name, layer.params) for layer in _typed(spec).layers]


def links_required(spec: StackSpec) -> int:
    """How many established data links the spec's networking layer needs."""
    return _typed(spec).links_required


def build_stack(
    spec: StackSpec,
    links: Sequence,
    host=None,
    parallel: tuple = (ParallelStreamsDriver, RebalancingParallelDriver),
) -> Driver:
    """Assemble the driver tree over established ``links``, on either
    backend.

    ``parallel`` is the ``(striping, rebalancing)`` classes: the striping
    drivers start tasks, so the live backend passes its subclasses of them,
    which name the asyncio runtime.  ``host`` is the simulated host whose CPU the
    filters charge; the live backend has none, and without its clock
    ``adaptive`` builds the wire-identical :class:`CompressionDriver`.

    TLS layers are created un-handshaken; retrieve them with
    :func:`find_driver` and run ``handshake_client``/``handshake_server``
    before moving data.
    """
    parsed = _typed(spec)
    bottom = parsed.bottom
    if bottom.name == "tcp_block":
        if len(links) != 1:
            raise StackSpecError(f"tcp_block needs exactly 1 link, got {len(links)}")
        driver: Driver = TcpBlockDriver(links[0])
    else:
        streams = int(bottom.get("streams", 2))
        if len(links) != streams:
            raise StackSpecError(f"parallel:{streams} needs {streams} links, got {len(links)}")
        cls = parallel[bool(int(bottom.get("rebalance", 0)))]
        driver = cls(
            links, host=host, fragment=int(bottom.get("fragment", DEFAULT_FRAGMENT))
        )
    for layer in reversed(parsed.filters):
        if layer.name == "adaptive" and host is not None:
            driver = AdaptiveCompressionDriver(
                driver,
                host,
                level=int(layer.get("level", 1)),
                probe_every=int(layer.get("probe", 16)),
            )
        elif layer.name in ("compress", "adaptive"):
            driver = CompressionDriver(driver, host=host, level=int(layer.get("level", 1)))
        elif layer.name == "tls":
            driver = TlsDriver(driver, host=host)
    obs.event(
        "stack.built",
        spec=str(parsed),
        links=len(links),
        drivers=",".join(type(d).__name__ for d in iter_drivers(driver)),
    )
    return driver


def iter_drivers(stack: Driver):
    """Top-down iteration over a driver tree."""
    node = stack
    while True:
        yield node
        if isinstance(node, FilterDriver):
            node = node.child
        else:
            return


def find_driver(stack: Driver, cls) -> Optional[Driver]:
    """First driver of type ``cls`` in the tree, or None."""
    for node in iter_drivers(stack):
        if isinstance(node, cls):
            return node
    return None
