"""The runtime protocol (``repro.core.runtime``), one suite for both.

Every case is one ``async def`` script run through ``tests/dual.py``'s
harnesses: on :class:`SimRuntime` inside a simulator process, on
:class:`AsyncioRuntime` inside an event loop.  ``h.sleep`` is the
harness's (the live one scales simulated-size seconds down); everything
under test goes through ``h.runtime``.
"""

import asyncio
import inspect

import pytest

from repro.core import runtime as runtime_module
from repro.core.links import BufferedLink, Link
from repro.core.relay import RelayClient, RoutedLink
from repro.core.retry import retrying
from repro.core.session import SessionLink
from repro.mux.endpoint import MuxChannel, MuxEndpoint

from ..dual import LiveHarness, SimHarness

both = pytest.mark.parametrize(
    "harness",
    [SimHarness, pytest.param(LiveHarness, marks=pytest.mark.livenet)],
    ids=["sim", "live"],
)


async def _get(queue):
    """``bounded`` takes a native coroutine (asyncio's ``create_task``
    takes no other), and ``get`` is a leaf."""
    return await queue.get()


def _parker(rt, waiters, key, log, tag):
    async def steps():
        await rt.park(waiters, key)
        log.append(tag)
    return steps()


@both
def test_park_then_wake(harness):
    async def script(h, _a, _b):
        rt, waiters, log = h.runtime, {}, []
        h.spawn(_parker(rt, waiters, "k", log, "woken"))
        await h.sleep(1)
        parked = list(log)
        rt.unpark(waiters, "k")
        await h.sleep(1)
        return parked, log, waiters

    assert harness().run(script) == ([], ["woken"], {})


@both
def test_wake_then_park_does_not_return_early(harness):
    """A wake with nobody parked is a hint nobody heard, not a token."""
    async def script(h, _a, _b):
        rt, waiters, log = h.runtime, {}, []
        rt.unpark(waiters, "k")
        h.spawn(_parker(rt, waiters, "k", log, "woken"))
        await h.sleep(1)
        early = list(log)
        rt.unpark(waiters, "k")
        await h.sleep(1)
        return early, log

    assert harness().run(script) == ([], ["woken"])


@both
def test_two_parkers_on_one_key_both_resume_and_other_keys_stay(harness):
    async def script(h, _a, _b):
        rt, waiters, log = h.runtime, {}, []
        h.spawn(_parker(rt, waiters, "k", log, 1))
        h.spawn(_parker(rt, waiters, "k", log, 2))
        h.spawn(_parker(rt, waiters, "other", log, 3))
        await h.sleep(1)
        rt.unpark(waiters, "k")
        await h.sleep(1)
        return log, sorted(waiters)

    assert harness().run(script) == ([1, 2], ["other"])


@both
def test_a_parker_that_gave_up_does_not_break_the_next_unpark(harness):
    """The deadline cancels (asyncio) or interrupts (sim) the parked steps;
    what they left in the table must not trip the waker."""
    async def script(h, _a, _b):
        rt, waiters, log = h.runtime, {}, []
        with pytest.raises(TimeoutError):
            await rt.bounded(_parker(rt, waiters, "k", log, "gave up"), 0.01)
        h.spawn(_parker(rt, waiters, "k", log, "second"))
        await h.sleep(1)
        rt.unpark(waiters, "k")
        await h.sleep(1)
        return log

    assert harness().run(script) == ["second"]


@both
def test_bounded_returns_the_value_or_the_builtin_timeout(harness):
    async def script(h, _a, _b):
        rt, cleaned = h.runtime, []

        async def quick():
            await rt.sleep(0.001)
            return "value"

        async def stuck():
            try:
                await rt.park({}, "never")
            finally:
                cleaned.append("finally ran")

        value = await rt.bounded(quick(), 5.0)
        with pytest.raises(TimeoutError) as caught:
            await rt.bounded(stuck(), 0.01)
        return value, type(caught.value) is TimeoutError, cleaned

    assert harness().run(script) == ("value", True, ["finally ran"])


@both
def test_bounded_passes_the_steps_own_failure_through(harness):
    async def script(h, _a, _b):
        async def failing():
            await h.runtime.sleep(0.001)
            raise KeyError("from the steps")

        with pytest.raises(KeyError, match="from the steps"):
            await h.runtime.bounded(failing(), 5.0)
        return True

    assert harness().run(script)


@both
def test_event_carries_the_value_decided_at_wake_time(harness):
    async def script(h, _a, _b):
        rt = h.runtime
        ready, failed = rt.event(), rt.event()
        ready.set_result("already there")
        failed.set_exception(KeyError("refused"))
        first = await rt.wait(ready)
        with pytest.raises(KeyError, match="refused"):
            await rt.wait(failed)
        later, box = rt.event(), ["early"]

        async def waker():
            await h.sleep(1)
            later.set_result(box[0])  # what the waiter gets is fixed here ...
            box[0] = "late"        # ... not when it resumes

        h.spawn(waker())
        return first, ready.done(), later.done(), await rt.wait(later)

    assert harness().run(script) == ("already there", True, False, "early")


@both
def test_queue_is_fifo_with_a_getter_parked_before_the_put(harness):
    async def script(h, _a, _b):
        queue, got = h.runtime.queue(), []

        async def getter():
            for _ in range(3):
                got.append(await queue.get())

        h.spawn(getter())
        await h.sleep(1)  # the getter is parked on an empty queue
        for item in "abc":
            queue.put(item)
        await h.sleep(1)
        queue.put("kept")  # nobody waiting: held for the next get
        return got, await queue.get()

    assert harness().run(script) == (["a", "b", "c"], "kept")


@both
def test_a_getter_that_gave_up_loses_no_item(harness):
    async def script(h, _a, _b):
        rt = h.runtime
        queue = rt.queue()
        with pytest.raises(TimeoutError):
            await rt.bounded(_get(queue), 0.01)
        queue.put("item")
        return await rt.bounded(_get(queue), 5.0)

    assert harness().run(script) == "item"


@both
def test_spawn_carries_its_name_and_now_moves(harness):
    async def script(h, _a, _b):
        rt = h.runtime

        async def steps():
            await rt.sleep(0.001)

        t0 = rt.now()
        handle = rt.spawn(steps(), "conformance-steps")
        await h.sleep(1)
        name = handle.get_name() if hasattr(handle, "get_name") else handle.name
        return name, rt.now() > t0

    assert harness().run(script) == ("conformance-steps", True)


@both
def test_cancel_stops_a_task_and_ignores_a_finished_one(harness):
    async def script(h, _a, _b):
        rt = h.runtime

        async def steps():
            try:
                await rt.park({}, "never")
            except BaseException:
                return "stopped"

        task = rt.spawn(steps(), "conformance-cancel")
        await h.sleep(1)
        rt.cancel(task)
        got = await rt.wait(task)
        rt.cancel(task)
        return got

    assert harness().run(script) == "stopped"


@pytest.mark.livenet
def test_a_cancel_that_races_the_result_of_bounded_is_not_lost():
    """Before 3.12 ``asyncio.wait_for`` can return a result its caller's
    cancel raced, and the cancel is lost: a stopped relay's gossip task
    then slept on past the relay's ``stop``."""
    rt = runtime_module.ASYNCIO

    async def main():
        event = rt.event()

        async def waited():
            await rt.wait(event)

        async def steps():
            try:
                await rt.bounded(waited(), 10)
            except asyncio.CancelledError:
                return "cancelled"
            return "lost"

        task = rt.spawn(steps(), "conformance-race")
        for _ in range(3):
            await asyncio.sleep(0)  # parked in bounded
        event.set_result(None)
        rt.cancel(task)
        return await task

    assert asyncio.run(main()) == "cancelled"


# -- the mechanism itself -----------------------------------------------------

_WAITING = {
    MuxChannel: ("send_all", "recv"),
    MuxEndpoint: ("establish", "open_channel", "accept_channel"),
    RelayClient: ("connect", "wait_connected", "open_link", "accept_link"),
    RoutedLink: ("send_all", "recv"),
    SessionLink: ("send_all", "recv"),
    Link: ("recv_exactly",),
    BufferedLink: ("recv", "recv_exactly"),
    runtime_module.SimRuntime: ("park", "wait", "sleep", "bounded"),
    runtime_module.AsyncioRuntime: ("park", "wait", "sleep", "bounded"),
    runtime_module._Queue: ("get",),
}

#: the awaitable leaves: what they yield is the runtime's own event or
#: future, so a simulator process and an asyncio task each receive theirs
_LEAVES = {
    getattr(cls, name)
    for cls in (runtime_module.SimRuntime, runtime_module.AsyncioRuntime)
    for name in ("park", "wait", "sleep", "bounded")
} | {runtime_module._Queue.get}


@pytest.mark.parametrize(
    "fn",
    [pytest.param(retrying, id="retrying")]
    + [pytest.param(getattr(cls, name), id=f"{cls.__name__}.{name}")
       for cls, names in _WAITING.items() for name in names],
)
def test_every_waiting_method_is_a_generator_based_coroutine(fn):
    """One dialect: every waiting method of the shared bindings is an
    ``async def``, and only the runtime's leaves are real generator
    functions flagged by ``types.coroutine`` (the decorator then adds no
    wrapper).  ``tests/core/test_drivers_dual.py`` holds the drivers to
    the same rule."""
    fn = getattr(fn, "__func__", fn)  # a classmethod's function
    if fn in _LEAVES:
        assert inspect.isgeneratorfunction(fn)
        assert fn.__code__.co_flags & inspect.CO_ITERABLE_COROUTINE
    else:
        assert inspect.iscoroutinefunction(fn)


def test_the_runtime_protocol_is_small():
    """``connect``/``listen`` and fault hooks wait for a caller (ROADMAP
    item 4); what is here each has one in ``src/``."""
    public = {name for name in dir(runtime_module.SimRuntime)
              if not name.startswith("_")} - {"sim"}
    assert public == {"now", "spawn", "cancel", "park", "unpark", "event",
                      "wait", "sleep", "bounded", "queue"}
    assert public == {name for name in dir(runtime_module.AsyncioRuntime)
                      if not name.startswith("_")}
