"""Driver model for link utilization (paper §4, §5.1, Figure 6).

"The communication paths are built using one or more drivers organized as
a driver tree.  Each driver provides one single added value, either a
filtering capability ... or a networking capability ...  NetIbis drivers
have uniform interfaces which makes them interchangeable, allowing to
compose complex communication stacks."

A driver moves *blocks* (byte strings).  Networking drivers sit at the
bottom and own one or more established links; filtering drivers wrap a
sub-driver and transform blocks in flight.  Composition is free-form:
``compression`` over ``parallel streams`` over any establishment method —
the paper's headline capability.

One source serves both backends: ``send_block``/``recv_block`` are
``async def`` coroutines, which a simulator process and an asyncio task
both drive.  A driver that charges simulated CPU does so only when it
was given a ``host``; the live backend passes none.
"""

from __future__ import annotations

from ... import obs

__all__ = ["Driver", "FilterDriver", "DriverError", "BlockMeters"]


class DriverError(RuntimeError):
    """Driver protocol failure."""


class BlockMeters:
    """One direction of a networking driver's ``driver.bytes_total`` and
    ``driver.block_bytes``, bound once so a block costs no registry lookup."""

    __slots__ = ("_bytes", "_sizes")

    def __init__(self, driver: str, direction: str):
        reg = obs.metrics()
        self._bytes = reg.counter(
            "driver.bytes_total", driver=driver, direction=direction
        )
        self._sizes = reg.histogram(
            "driver.block_bytes", driver=driver, direction=direction
        )

    def record(self, nbytes: int) -> None:
        self._bytes.inc(nbytes)
        self._sizes.observe(nbytes)


class Driver:
    """Uniform block-oriented driver interface."""

    #: short name used in stack specifications
    name = "driver"

    async def send_block(self, block: bytes):
        """Push one block down the stack."""
        raise NotImplementedError

    async def recv_block(self):
        """Pull the next block up the stack; raises EOFError at stream end."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the underlying links."""
        raise NotImplementedError

    def abort(self) -> None:
        self.close()


class FilterDriver(Driver):
    """A filtering driver wrapping a single sub-driver."""

    def __init__(self, child: Driver):
        self.child = child

    def close(self) -> None:
        self.child.close()

    def abort(self) -> None:
        self.child.abort()
