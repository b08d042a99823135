"""What a protocol binding asks of whatever runs it.

The bindings of the three sans-IO cores (:mod:`repro.mux.endpoint`,
:mod:`repro.core.relay`, :mod:`repro.core.session`) are written once, as
``async def`` coroutines: an asyncio task runs them, and so does a
simulator process, which only forwards what they ``await`` down to the
simulator's events.  What they need beyond the streams they are handed
is here, implemented twice, and its waiting methods are the leaves of
every ``await`` chain: generator-based coroutines (``types.coroutine``)
that yield the runtime's own event or future; ``docs/PROTOCOLS.md``
has the table (an ``unpark`` with nobody parked is not remembered: a
hint, the woken waiter re-checks; an ``event`` speaks ``asyncio.Future``'s
names on both).  A sim class derives its runtime from what it is given
(``link.sim``, ``host.sim``); a live subclass names :data:`ASYNCIO`.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from functools import cached_property
from types import coroutine
from typing import Generator

from ..simnet.engine import Event, Simulator, with_timeout

__all__ = ["SimRuntime", "AsyncioRuntime", "ASYNCIO", "Bound"]


class _Queue:
    """FIFO of items; ``get`` parks while there is none."""

    def __init__(self, runtime):
        self._runtime, self._items, self._waiters = runtime, deque(), {}

    def put(self, item) -> None:
        self._items.append(item)
        self._runtime.unpark(self._waiters, "put")

    @coroutine
    def get(self) -> Generator:
        while not self._items:
            yield from self._runtime.park(self._waiters, "put")
        return self._items.popleft()


class _Runtime:
    @staticmethod
    def unpark(waiters: dict, key) -> None:
        for event in waiters.pop(key, ()):
            if not event.done():  # else: cancelled while parked
                event.set_result(None)

    def queue(self) -> _Queue:
        return _Queue(self)


class SimRuntime(_Runtime):
    """The simulator as a runtime: processes, events and simulated time."""

    def __init__(self, sim: Simulator):
        self.sim = sim

    def now(self) -> float:
        return self.sim.now

    def spawn(self, coro, name: str):
        return self.sim.process(coro, name=name)

    @staticmethod
    def cancel(task) -> None:
        if task.is_alive:
            task.interrupt("cancelled")

    @coroutine
    def park(self, waiters: dict, key) -> Generator:
        event = Event(self.sim)
        waiters.setdefault(key, []).append(event)
        yield event

    def event(self) -> Event:
        return Event(self.sim)

    @coroutine
    def wait(self, event: Event) -> Generator:
        return (yield event)

    @coroutine
    def sleep(self, seconds: float) -> Generator:
        yield self.sim.timeout(seconds)

    @coroutine
    def bounded(self, coro, seconds: float) -> Generator:
        return (yield from with_timeout(self.sim, coro, seconds))


class AsyncioRuntime(_Runtime):
    """The running asyncio event loop as a runtime."""

    now = staticmethod(time.monotonic)

    @staticmethod
    def spawn(coro, name: str) -> asyncio.Task:
        return asyncio.create_task(coro, name=name)

    @staticmethod
    def cancel(task: asyncio.Future) -> None:
        task.cancel()  # a finished task ignores it

    @coroutine
    def park(self, waiters: dict, key) -> Generator:
        future = asyncio.get_running_loop().create_future()
        waiters.setdefault(key, []).append(future)
        yield from future

    @staticmethod
    def event() -> asyncio.Future:
        return asyncio.get_running_loop().create_future()

    @coroutine
    def wait(self, event: asyncio.Future) -> Generator:
        return (yield from event)

    @coroutine
    def sleep(self, seconds: float) -> Generator:
        yield from asyncio.sleep(seconds)

    @coroutine
    def bounded(self, coro, seconds: float) -> Generator:
        # not asyncio.wait_for: before 3.12 it can return a result its
        # caller's cancel raced, and the cancel is lost
        loop = asyncio.get_running_loop()
        task = loop.create_task(coro)
        expired = False

        def expire():
            nonlocal expired
            expired = task.cancel()

        timer = loop.call_later(seconds, expire)
        try:
            return (yield from task)
        except asyncio.CancelledError:
            if not expired:
                raise
            raise TimeoutError(f"operation timed out after {seconds}s") from None
        finally:
            timer.cancel()


ASYNCIO = AsyncioRuntime()


class Bound:
    """Mixin of a binding: its runtime is the simulator's, from ``self.sim``,
    unless a (live) subclass names another; ``_spawn`` starts a task on it."""

    @cached_property
    def runtime(self) -> SimRuntime:
        return SimRuntime(self.sim)

    def _spawn(self, coro, name: str):
        return self.runtime.spawn(coro, name)
