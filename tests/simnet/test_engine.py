"""Unit tests for the discrete-event engine."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simnet.engine import (
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    StopSimulation,
    all_of,
    any_of,
)


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(1.5)
        log.append(sim.now)
        yield sim.timeout(0.5)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [1.5, 2.0]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    log = []

    def proc(name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in "abcd":
        sim.process(proc(name))
    sim.run()
    assert log == list("abcd")


def test_timeout_value():
    sim = Simulator()
    out = []

    def proc():
        value = yield sim.timeout(1.0, value="hello")
        out.append(value)

    sim.process(proc())
    sim.run()
    assert out == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    def trigger():
        yield sim.timeout(3.0)
        ev.succeed(42)

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert got == [42]


def test_event_fail_propagates_into_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_raises_from_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody home"))
    with pytest.raises(RuntimeError, match="nobody home"):
        sim.run()


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_process_is_waitable_event():
    sim = Simulator()
    out = []

    def child():
        yield sim.timeout(2.0)
        return "result"

    def parent():
        value = yield sim.process(child())
        out.append((sim.now, value))

    sim.process(parent())
    sim.run()
    assert out == [(2.0, "result")]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run()
    assert caught == ["child died"]


def test_unwaited_process_exception_raises_from_run():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("unhandled")

    sim.process(child())
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        sim.run()


def test_interrupt_wakes_waiting_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as i:
            log.append((sim.now, i.cause))

    def interrupter(proc):
        yield sim.timeout(1.0)
        proc.interrupt("wake up")

    proc = sim.process(sleeper())
    sim.process(interrupter(proc))
    sim.run()
    assert log == [(1.0, "wake up")]


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(0.1)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_any_of_triggers_on_first():
    sim = Simulator()
    out = []

    def proc():
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(5.0, value="slow")
        result = yield any_of(sim, [t1, t2])
        out.append((sim.now, list(result.values())))

    sim.process(proc())
    sim.run()
    assert out == [(1.0, ["fast"])]


def test_all_of_waits_for_all():
    sim = Simulator()
    out = []

    def proc():
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(5.0, value="b")
        result = yield all_of(sim, [t1, t2])
        out.append((sim.now, sorted(result.values())))

    sim.process(proc())
    sim.run()
    assert out == [(5.0, ["a", "b"])]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    out = []

    def proc():
        result = yield all_of(sim, [])
        out.append(result)

    sim.process(proc())
    sim.run()
    assert out == [{}]


def test_run_until_bound():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()
    assert fired == [10.0]


def test_call_later_and_call_at():
    sim = Simulator()
    log = []
    sim.call_later(2.0, lambda: log.append(("later", sim.now)))
    sim.call_at(1.0, lambda: log.append(("at", sim.now)))
    sim.run()
    assert log == [("at", 1.0), ("later", 2.0)]


def test_call_at_past_rejected():
    sim = Simulator()
    sim.call_later(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(1.0, lambda: None)


def test_run_until_triggered_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(3.0)
        return 99

    assert sim.run_until_triggered(sim.process(proc())) == 99


def test_run_until_triggered_raises_when_drained():
    sim = Simulator()
    ev = sim.event()  # never triggered
    with pytest.raises(SimulationError):
        sim.run_until_triggered(ev, limit=10.0)


def test_stop_ends_run():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(1.0)
        log.append("first")
        sim.stop()
        yield sim.timeout(1.0)
        log.append("second")

    sim.process(proc())
    sim.run()
    assert log == ["first"]
    sim.run()
    assert log == ["first", "second"]


def test_nested_yield_from_generators():
    sim = Simulator()
    out = []

    def inner():
        yield sim.timeout(1.0)
        return "inner-value"

    def outer():
        value = yield from inner()
        out.append((sim.now, value))

    sim.process(outer())
    sim.run()
    assert out == [(1.0, "inner-value")]


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        log = []

        def proc(n):
            for i in range(n):
                yield sim.timeout(0.5 * n)
                log.append((sim.now, n, i))

        for n in (1, 2, 3):
            sim.process(proc(n))
        sim.run()
        return log

    assert build() == build()


# -- bare call entries (call_later / call_at) ---------------------------------
#
# A timer call sits on the heap as a bare ``(when, seq, fn, args)`` next to
# the ``Event`` entries; the contract is that nothing but the allocation
# changed: one sequence counter, the same timestamps, the same exits.


@pytest.mark.parametrize(
    "order", list(itertools.permutations(["call", "timeout", "event"]))
)
def test_bare_calls_and_events_due_together_fire_in_scheduling_order(order):
    sim = Simulator()
    sim.run(until=2.5)
    log = []
    schedule = {
        "call": lambda: sim.call_later(0.0, log.append, "call"),
        "timeout": lambda: sim.timeout(0.0).add_callback(
            lambda ev: log.append("timeout")
        ),
        "event": lambda: sim.event().succeed().add_callback(
            lambda ev: log.append("event")
        ),
    }
    for kind in order:
        schedule[kind]()
    sim.call_at(2.5, log.append, "last")
    sim.run()
    assert log == [*order, "last"]
    assert sim.now == 2.5


def test_call_later_and_call_at_return_nothing():
    sim = Simulator()
    assert sim.call_later(1.0, lambda: None) is None
    assert sim.call_at(1.0, lambda: None) is None
    assert sim.pending == 2


_times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(now=_times, delay=_times)
def test_call_later_fires_at_the_timestamp_the_event_path_computed(now, delay):
    # what call_later -> call_at -> Event -> _schedule(when - now) summed
    # to before the bare entries; not always ``now + delay`` to the bit
    sim = Simulator()
    sim.run(until=now)
    fired = []
    sim.call_later(delay, lambda: fired.append(sim.now))
    sim.call_at(now + delay, lambda: fired.append(sim.now))
    sim.run()
    when = now + delay
    assert fired == [now + (when - now)] * 2


def test_call_later_into_the_past_rejected():
    sim = Simulator()
    sim.run(until=3.0)
    with pytest.raises(ValueError):
        sim.call_later(-1.0, lambda: None)
    assert sim.pending == 0


def test_exception_from_a_bare_call_leaves_run_reenterable():
    sim = Simulator()
    log = []

    def boom():
        raise RuntimeError("boom")

    sim.call_later(1.0, boom)
    sim.call_later(2.0, log.append, "after")
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert sim.now == 1.0 and sim.pending == 1
    sim.run()
    assert log == ["after"] and sim.now == 2.0


def test_run_until_stops_before_a_bare_call_at_the_heap_head():
    sim = Simulator()
    log = []
    sim.call_later(1.0, log.append, "one")
    sim.call_later(2.0, log.append, "two")
    sim.run(until=1.5)
    assert log == ["one"] and sim.now == 1.5 and sim.pending == 1
    sim.run(until=2.0)  # an entry due exactly at the bound still fires
    assert log == ["one", "two"] and sim.now == 2.0


def test_stop_simulation_from_a_bare_call_ends_run_quietly():
    sim = Simulator()
    log = []

    def halt():
        raise StopSimulation()

    sim.call_later(1.0, halt)
    sim.call_later(1.0, log.append, "same instant, later turn")
    sim.run(until=10.0)
    # stopped where it was: the clock is not advanced to ``until``
    assert log == [] and sim.now == 1.0 and sim.pending == 1
    sim.call_later(0.5, sim.stop)
    sim.call_later(1.0, log.append, "after stop()")
    sim.run()
    assert log == ["same instant, later turn"] and sim.now == 1.5
    sim.run()
    assert log[-1] == "after stop()" and sim.pending == 0
