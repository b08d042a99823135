"""Striping on the live backend: the shared drivers, on the asyncio runtime.

Every driver is :mod:`repro.core.utilization`'s own class; the striping
ones start per-stream tasks, so their live subclasses name the runtime
those run on.
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
    (``benchmarks/perf``) follows the file a task's coroutine is defined in.
    A task cancelled before its first step never awaits ``steps``, so the
    spawner closes ``steps`` once the task is done: unrun, not unawaited."""
    return await steps


class _Live:
    runtime = ASYNCIO

    def _spawn(self, steps, name: str):
        task = self.runtime.spawn(_task(steps), name)
        task.add_done_callback(lambda _task: steps.close())  # see _task
        return task


class AsyncParallelStreamsDriver(_Live, ParallelStreamsDriver):
    """Striping over N live sockets."""


class AsyncRebalancingParallelDriver(_Live, RebalancingParallelDriver):
    """Striping over N live sockets that survives member death."""
