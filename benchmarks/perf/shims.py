"""Timing shims: per-layer accounting taken from outside ``src/``.

Nothing in the program is instrumented.  The traced pass rebuilds each
live stack with a :class:`TimedDriver` / :class:`TimedLink` between every
two layers and runs every asyncio task through a step wrapper, so every
nanosecond of a traced window is charged to exactly one owner:

* the innermost open span of the task that is on the CPU (a span is one
  call into a layer's public function, so this is that layer's self
  time: the call's duration minus its child spans, minus the time the
  task was suspended),
* else the layer whose module defined the running task's coroutine (the
  mux pumps, the session reader, the relay's per-client loops: work a
  layer does in its own tasks, outside any call from above),
* else ``bench.event_loop`` — the time between task steps: the selector,
  socket read callbacks and ``StreamReader.feed_data``.

A suspended task is charged nothing: whoever runs meanwhile is.  With one
thread that is what makes the books close — the charges of a window sum
to its wall time exactly — and what makes ``self_share`` the share a
faster layer could save.
"""

from __future__ import annotations

import asyncio
import collections.abc
import contextlib
import contextvars
import re
import time
from collections import defaultdict
from typing import Callable, Optional

from repro.livenet import relay as relay_module

__all__ = [
    "Tracer",
    "NoShims",
    "Span",
    "TimedDriver",
    "TimedLink",
    "FlipLink",
    "LOOP_LAYER",
    "BENCH_LAYER",
    "layer_of_code",
]

LOOP_LAYER = "bench.event_loop"
BENCH_LAYER = "bench"

#: the span a task is in (a Span or its task's _Root); each task has its
#: own copy of the context, so this is a per-task span stack
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perf_span")

_MODULE_OF_PATH = re.compile(r"[/\\]repro[/\\](\w+)[/\\](\w+)\.py$")


def layer_of_code(filename: str) -> str:
    """The layer that owns a task, from where its coroutine was defined."""
    match = _MODULE_OF_PATH.search(filename)
    if match is None:
        return BENCH_LAYER
    layer = ".".join(match.groups())
    # the only task drivers.py starts is the striping writer
    return "livenet.drivers.parallel" if layer == "livenet.drivers" else layer


class _Root:
    """Pseudo-span at the bottom of a task's stack: the task's own time."""

    __slots__ = ("layer", "id", "cpu_ns")

    def __init__(self, layer: str):
        self.layer = layer
        self.id = None
        self.cpu_ns = 0


class Span:
    """One call into a layer's public function."""

    __slots__ = (
        "id", "parent", "layer", "op", "start", "end",
        "bytes_in", "bytes_out", "cpu_ns", "task", "_tracer", "_token",
    )

    def __init__(self, tracer: "Tracer", layer: str, op: str, bytes_in: int):
        self._tracer = tracer
        self.layer = layer
        self.op = op
        self.bytes_in = bytes_in
        self.bytes_out = 0
        self.cpu_ns = 0

    def __enter__(self) -> "Span":
        tracer = self._tracer
        above = _CURRENT.get(tracer.loop_root)
        self.id = tracer.next_id
        tracer.next_id += 1
        self.parent = above.id
        # a span with no parent was opened by a task's own loop: name it
        self.task = above.layer if above.id is None else None
        self._token = _CURRENT.set(self)
        self.start = tracer.switch(self)
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        _CURRENT.reset(self._token)
        self.end = tracer.switch(_CURRENT.get(tracer.loop_root))
        tracer.close_span(self)

    def record(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "layer": self.layer,
            "op": self.op, "start": self.start, "end": self.end,
            "bytes_in": self.bytes_in, "bytes_out": self.bytes_out,
            "cpu_ns": self.cpu_ns, "task": self.task,
        }


class _Stepped(collections.abc.Coroutine):
    """Runs a coroutine, charging each of its steps to its current span."""

    __slots__ = ("_coro", "_tracer", "_root")

    def __init__(self, coro, tracer: "Tracer"):
        self._coro = coro
        self._tracer = tracer
        self._root: Optional[_Root] = None

    def _resume(self) -> None:
        if self._root is None:
            code = getattr(self._coro, "cr_code", None) or getattr(
                self._coro, "gi_code", None
            )
            self._root = _Root(
                layer_of_code(code.co_filename) if code else BENCH_LAYER
            )
            # runs inside the task's own context: start its stack afresh,
            # whatever span the creating task happened to be in
            _CURRENT.set(self._root)
        self._tracer.switch(_CURRENT.get())

    def send(self, value):
        self._resume()
        try:
            return self._coro.send(value)
        finally:
            self._tracer.switch(self._tracer.loop_root)

    def throw(self, *args):
        self._resume()
        try:
            return self._coro.throw(*args)
        finally:
            self._tracer.switch(self._tracer.loop_root)

    def close(self):
        return self._coro.close()

    def __await__(self):
        return self

    def __repr__(self) -> str:
        return f"<stepped {self._coro!r}>"


class LayerTotals:
    __slots__ = ("calls", "pump_calls", "bytes_in", "bytes_out")

    def __init__(self):
        self.calls = self.pump_calls = self.bytes_in = self.bytes_out = 0


class Tracer:
    """Collects spans and the exclusive per-layer CPU ledger of a window."""

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        max_spans: int = 20_000,
    ):
        self.clock = clock
        self.max_spans = max_spans
        self.loop_root = _Root(LOOP_LAYER)
        self.next_id = 1
        self._target = self.loop_root
        self._last = clock()
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.dropped = 0
        self.cpu_ns: dict[str, int] = defaultdict(int)
        self.totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
        self.active = False
        self.window_ns = 0

    # -- the ledger ----------------------------------------------------------
    def switch(self, target) -> int:
        """Charge the time since the last switch, then make ``target`` the owner."""
        now = self.clock()
        if self.active:
            elapsed = now - self._last
            self._target.cpu_ns += elapsed
            self.cpu_ns[self._target.layer] += elapsed
        self._last = now
        self._target = target
        return now

    def start(self) -> None:
        """Open the accounting window (stacks are already established)."""
        self.reset()
        self._window_start = self.switch(self._target)
        self.active = True

    def stop(self) -> None:
        self.window_ns = self.switch(self._target) - self._window_start
        self.active = False

    def close_span(self, span: Span) -> None:
        if not self.active:
            return
        totals = self.totals[span.layer]
        totals.calls += 1
        totals.bytes_in += span.bytes_in
        totals.bytes_out += span.bytes_out
        if span.task not in (None, BENCH_LAYER):
            # opened by a layer's own pump/reader task, not by a call
            # chain from the application
            self.totals[span.task].pump_calls += 1
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1

    def span(self, layer: str, op: str, bytes_in: int = 0) -> Span:
        return Span(self, layer, op, bytes_in)

    def shares(self) -> dict[str, float]:
        """Each owner's share of the window; sums to 1 by construction."""
        return {k: v / self.window_ns for k, v in self.cpu_ns.items()}

    # -- interposition --------------------------------------------------------
    def install(self, loop: asyncio.AbstractEventLoop) -> None:
        """Route every task of ``loop`` through the step wrapper."""
        loop.set_task_factory(self._task_factory)

    def _task_factory(self, loop, coro, **kwargs):
        return asyncio.Task(_Stepped(coro, self), loop=loop, **kwargs)

    def driver(self, inner):
        return TimedDriver(inner, self)

    def link(self, inner):
        return TimedLink(inner, self)

    def listener(self, inner):
        return TimedListener(inner, self)

    def channel(self, inner):
        return TimedChannel(inner, self)

    @contextlib.contextmanager
    def relay_transport(self):
        """Put the shim under the relay, which dials and listens for itself.

        ``LiveRelayClient.connect`` and ``LiveRelayServer.start`` take no
        socket, so the boundary below them is reached through the names
        they look up: ``relay.live_connect`` and ``relay.live_listen``.
        """
        connect, listen = relay_module.live_connect, relay_module.live_listen

        async def shimmed_connect(addr, *args, **kwargs):
            return self.link(await connect(addr, *args, **kwargs))

        async def shimmed_listen(*args, **kwargs):
            return self.listener(await listen(*args, **kwargs))

        relay_module.live_connect = shimmed_connect
        relay_module.live_listen = shimmed_listen
        try:
            yield
        finally:
            relay_module.live_connect = connect
            relay_module.live_listen = listen


class NoShims:
    """The untraced pass: every interposition point is the identity."""

    @staticmethod
    def driver(inner):
        return inner

    link = listener = channel = driver
    relay_transport = staticmethod(contextlib.nullcontext)


class TimedDriver:
    """The ``AsyncDriver`` interface, timing calls into ``inner``."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self._tracer = tracer
        self.layer = f"livenet.drivers.{inner.name}"

    async def send_block(self, block: bytes) -> None:
        with self._tracer.span(self.layer, "send_block", len(block)):
            await self.inner.send_block(block)

    async def recv_block(self) -> bytes:
        with self._tracer.span(self.layer, "recv_block") as span:
            block = await self.inner.recv_block()
            span.bytes_out = len(block)
            return block

    def close(self) -> None:
        self.inner.close()


class TimedLink:
    """The ``LiveSocket`` shape, timing calls into ``inner``.

    ``inner`` is whatever a layer hands upward as a byte stream: a
    ``LiveSocket``, an ``AsyncMuxChannel``, an ``AsyncSessionLink`` or a
    ``LiveRoutedLink``; the span is charged to the module that defines it.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self._tracer = tracer
        self.layer = type(inner).__module__.removeprefix("repro.")

    async def send_all(self, data: bytes) -> None:
        with self._tracer.span(self.layer, "send_all", len(data)):
            await self.inner.send_all(data)

    async def recv(self, maxbytes: int) -> bytes:
        with self._tracer.span(self.layer, "recv") as span:
            data = await self.inner.recv(maxbytes)
            span.bytes_out = len(data)
            return data

    async def recv_exactly(self, n: int) -> bytes:
        with self._tracer.span(self.layer, "recv_exactly") as span:
            data = await self.inner.recv_exactly(n)
            span.bytes_out = len(data)
            return data

    def close(self) -> None:
        self.inner.close()

    def abort(self) -> None:
        self.inner.abort()

    def write_eof(self) -> None:
        self.inner.write_eof()


class TimedListener:
    """A listener whose accepted streams come out wrapped."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self._tracer = tracer

    @property
    def addr(self):
        return self.inner.addr

    @property
    def port(self):
        return self.inner.port

    async def accept(self) -> TimedLink:
        return TimedLink(await self.inner.accept(), self._tracer)

    def close(self) -> None:
        self.inner.close()


class TimedChannel:
    """``AsyncBlockChannel.send_message/recv_message``, timed."""

    layer = "livenet.drivers.channel"

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self._tracer = tracer

    async def send_message(self, payload: bytes) -> None:
        with self._tracer.span(self.layer, "send_message", len(payload)):
            await self.inner.send_message(payload)

    async def recv_message(self) -> bytes:
        with self._tracer.span(self.layer, "recv_message") as span:
            payload = await self.inner.recv_message()
            span.bytes_out = len(payload)
            return payload

    def close(self) -> None:
        self.inner.close()


class FlipLink:
    """Selftest fault: flips the last byte of the ``nth`` ``send_all``."""

    def __init__(self, inner, nth: int):
        self.inner = inner
        self._countdown = nth

    async def send_all(self, data: bytes) -> None:
        self._countdown -= 1
        if self._countdown == 0:
            data = data[:-1] + bytes([data[-1] ^ 0x01])
        await self.inner.send_all(data)

    def __getattr__(self, name):
        return getattr(self.inner, name)
