"""Channel multiplexing on the live (asyncio) backend.

:mod:`repro.mux.endpoint` is the binding — HELLO exchange, pumps, parking,
spans and flight notes — for both backends; the subclasses here name the
asyncio runtime and keep what differs on real sockets: the error class,
task bookkeeping, and how a protocol violation is answered.
"""

from __future__ import annotations

from ..core.runtime import ASYNCIO
from ..mux.endpoint import MuxChannel, MuxEndpoint

__all__ = ["AsyncMuxEndpoint", "AsyncMuxChannel", "LiveMuxError"]


class LiveMuxError(Exception):
    """Live mux endpoint failure."""


async def _task(steps):
    """Root of every task an endpoint starts: per-layer attribution
    (``benchmarks/perf``) follows the file a task's coroutine is defined in.
    A task cancelled before its first step never awaits ``steps``, so the
    spawner closes ``steps`` once the task is done: unrun, not unawaited."""
    return await steps


class AsyncMuxChannel(MuxChannel):
    """One logical stream over a shared live socket."""


class AsyncMuxEndpoint(MuxEndpoint):
    """Multiplexes logical channels over one live stream."""

    channel_class = AsyncMuxChannel
    closed_error = LiveMuxError
    runtime = ASYNCIO

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tasks: set = set()

    def _spawn(self, steps, name: str):
        task = self.runtime.spawn(_task(steps), name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        task.add_done_callback(lambda _task: steps.close())  # see _task
        return task

    def close(self) -> None:
        if not self._closed:
            super().close()
            for task in self._tasks:
                task.cancel()

    def _violation(self) -> None:
        # close, not abort: on a session carrier abort() only kills the
        # current transport and the session would resume under us
        self.link.close()
