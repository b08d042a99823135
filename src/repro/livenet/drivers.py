"""Striping on the live backend: the shared drivers, on the asyncio runtime.

Every driver is :mod:`repro.core.utilization`'s own class, awaited instead
of ``yield from``-ed; the striping ones start per-stream tasks, so their
live subclasses name the runtime those run on.
"""

from __future__ import annotations

from ..core.runtime import ASYNCIO
from ..core.utilization.parallel import (
    ParallelStreamsDriver,
    RebalancingParallelDriver,
)

__all__ = ["AsyncParallelStreamsDriver", "AsyncRebalancingParallelDriver"]


async def _task(steps):
    """Root of every striping task: per-layer attribution
    (``benchmarks/perf``) follows the file a task's coroutine is defined in."""
    return await steps


class _Live:
    runtime = ASYNCIO

    def _spawn(self, steps, name: str):
        return self.runtime.spawn(_task(steps), name)


class AsyncParallelStreamsDriver(_Live, ParallelStreamsDriver):
    """Striping over N live sockets."""


class AsyncRebalancingParallelDriver(_Live, RebalancingParallelDriver):
    """Striping over N live sockets that survives member death."""
