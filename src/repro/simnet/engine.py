"""Discrete-event simulation engine.

This is the substrate clock for the whole simulated wide-area network.  It
provides a simpy-flavoured, generator-based process model:

* :class:`Simulator` owns the event heap and the simulated clock.
* :class:`Event` is a one-shot occurrence that processes can wait on.
* :class:`Process` drives a generator or a coroutine; every value it yields
  (or, under ``await``, passes up from an awaited :class:`Event` or
  generator-based coroutine) must be an :class:`Event`, and the process
  resumes when that event triggers.
* :class:`Timeout` triggers after a fixed amount of simulated time.
* :func:`any_of` / :func:`all_of` compose events.
* :meth:`Simulator.call_later` / :meth:`~Simulator.call_at` /
  :meth:`~Simulator.call_exact` run a plain callable at a time: a bare
  heap entry, no event to wait on or cancel (:class:`Timer` adds
  cancellation).  Every link hop of a packet is one of these, so they
  are the hot path -- see docs/SIMNET.md, "The hot loop".

The engine is fully deterministic: events scheduled for the same timestamp
fire in schedule order (a monotonically increasing sequence number breaks
ties), so simulation runs are reproducible bit-for-bit given the same seed
for any randomized component.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(proc(sim, "b", 2.0))
>>> _ = sim.process(proc(sim, "a", 1.0))
>>> sim.run()
>>> log
[(1.0, 'a'), (2.0, 'b')]
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "any_of",
    "all_of",
    "with_timeout",
    "Timer",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation engine."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Simulator.run` early."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`.  Triggering schedules the event's
    callbacks to run at the current simulation time (they run from the event
    loop, never re-entrantly from ``succeed``/``fail`` callers).

    Processes wait on events by yielding them.  If an event fails and no
    waiter marks it ``defused``, the exception propagates into every waiting
    process (or, if nothing waits, out of :meth:`Simulator.run`).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused", "_scheduled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: set to True by a waiter that handled the failure
        self.defused = False
        self._scheduled = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, 0.0)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed with exception ``exc``."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self.sim._schedule(self, 0.0)
        return self

    # asyncio.Future's names for the same three things, so a waker written
    # once for both runtimes (repro.core.runtime) handles either
    set_result = succeed
    set_exception = fail

    def done(self) -> bool:
        return self._value is not _PENDING

    def __await__(self):
        """``await event`` in a coroutine a process drives is ``yield
        event`` in a generator: the process receives the event itself."""
        return (yield self)

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- waiting ----------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event has already been processed, the callback runs
        immediately.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay)


class Initialize(Event):
    """Internal: starts a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        sim._schedule(self, 0.0)


class Process(Event):
    """Drives a generator, or a coroutine, through the simulation.

    The process *is* an event: it triggers when the generator returns
    (successfully, with the generator's return value) or raises (failed).
    Other processes can therefore wait for a process by yielding it.
    """

    __slots__ = ("_gen", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(f"process requires a generator or coroutine, got {gen!r}")
        super().__init__(sim)
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        exc = Interrupt(cause)
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        hurry = Event(self.sim)
        hurry._ok = False
        hurry._value = exc
        hurry.defused = True
        hurry.callbacks.append(self._resume)
        self.sim._schedule(hurry, 0.0)

    # -- engine plumbing ----------------------------------------------------
    def _resume(self, event: Event) -> None:
        sim = self.sim
        sim.active_process = self
        self._waiting_on = None
        try:
            while True:
                if event._ok:
                    target = self._gen.send(event._value)
                else:
                    event.defused = True
                    target = self._gen.throw(event._value)
                if not isinstance(target, Event):
                    exc = SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}"
                    )
                    try:
                        self._gen.throw(exc)
                    except StopIteration as stop:
                        self._finish_ok(stop.value)
                        return
                    except BaseException as err:
                        self._finish_fail(err)
                        return
                    raise exc
                if target.sim is not sim:
                    raise SimulationError("event belongs to another simulator")
                if target.callbacks is not None:
                    # Pending: park until the event is processed.
                    target.callbacks.append(self._resume)
                    self._waiting_on = target
                    return
                # Already processed: continue driving inline.
                event = target
        except StopIteration as stop:
            self._finish_ok(stop.value)
        except BaseException as err:
            self._finish_fail(err)
        finally:
            sim.active_process = None

    def _finish_ok(self, value: Any) -> None:
        self._ok = True
        self._value = value
        self.sim._schedule(self, 0.0)

    def _finish_fail(self, err: BaseException) -> None:
        self._ok = False
        self._value = err
        self.sim._schedule(self, 0.0)


class Condition(Event):
    """Triggers when ``predicate(events)`` over the triggered subset holds.

    Used through :func:`any_of` and :func:`all_of`.  The condition's value is
    a dict mapping each triggered event to its value (insertion-ordered by
    the original event order).
    """

    __slots__ = ("events", "_predicate", "_done")

    def __init__(
        self,
        sim: "Simulator",
        events: Iterable[Event],
        predicate: Callable[[list[Event], int], bool],
    ):
        super().__init__(sim)
        self.events = list(events)
        self._predicate = predicate
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
            ev.add_callback(self._check)

    def _collect(self) -> dict:
        return {
            ev: ev._value
            for ev in self.events
            if ev.triggered and ev.processed
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok and not event.defused:
                # A late failure with nobody to handle it: defuse it here so
                # it does not crash the run; the condition owner already got
                # its result.
                event.defused = True
            return
        self._done += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._predicate(self.events, self._done):
            self.succeed(self._collect())


def any_of(sim: "Simulator", events: Iterable[Event]) -> Condition:
    """Event that triggers as soon as any of ``events`` triggers."""
    return Condition(sim, events, lambda evs, done: done >= 1)


def all_of(sim: "Simulator", events: Iterable[Event]) -> Condition:
    """Event that triggers when all of ``events`` have triggered."""
    return Condition(sim, events, lambda evs, done: done >= len(evs))


class Timer:
    """A cancellable/restartable one-shot timer on the simulation clock.

    Unlike a raw :meth:`Simulator.call_later`, a Timer can be cancelled or
    restarted; stale firings are suppressed by a generation counter.
    """

    __slots__ = ("sim", "fn", "_gen", "deadline")

    def __init__(self, sim: "Simulator", fn: Callable[[], None]):
        self.sim = sim
        self.fn = fn
        self._gen = 0
        self.deadline: Optional[float] = None

    def start(self, delay: float) -> None:
        self._gen += 1
        gen = self._gen
        self.deadline = self.sim.now + delay
        self.sim.call_later(delay, self._fire, gen)

    def cancel(self) -> None:
        self._gen += 1
        self.deadline = None

    @property
    def running(self) -> bool:
        return self.deadline is not None

    def _fire(self, gen: int) -> None:
        if gen != self._gen:
            return
        self.deadline = None
        self.fn()


def with_timeout(sim: "Simulator", gen: Generator, seconds: float):
    """Run ``gen`` as a process, bounded by a deadline.

    Yields from within a process.  Returns the generator's value, raises its
    exception, or raises :class:`TimeoutError` once ``seconds`` elapse (the
    inner process is interrupted).
    """
    proc = sim.process(gen)
    deadline = sim.timeout(seconds)
    result = yield any_of(sim, [proc, deadline])
    if proc in result:
        return result[proc]
    if proc.is_alive:
        proc.interrupt("timeout")
        try:
            yield proc
        except (Interrupt, Exception):
            pass
    raise TimeoutError(f"operation timed out after {seconds}s")


class Simulator:
    """The event loop: owns the clock and the pending-event heap."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: list = []
        self._seq = 0
        self.active_process: Optional[Process] = None
        self._running = False

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event (trigger it with succeed/fail)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start driving ``gen`` as a simulation process."""
        return Process(self, gen, name)

    def call_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``when``.

        Nothing is returned and no :class:`Event` is built: the heap entry
        is the bare ``(when, seq, fn, args)``.  Use :class:`Timer` for a
        call that may be cancelled, :meth:`timeout` for one to wait on.
        """
        now = self.now
        if when < now:
            raise ValueError(f"call_at into the past: {when} < {now}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (now + (when - now), seq, fn, args))

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        ``call_at(now + delay)`` written out: TCP's timers restart it per
        segment, and delegating would add two Python frames each time.
        """
        now = self.now
        when = now + delay
        if when < now:
            raise ValueError(f"call_at into the past: {when} < {now}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (now + (when - now), seq, fn, args))

    def call_exact(self, when: float, fn: Callable, args) -> None:
        """Run ``fn(*args)`` at ``when`` to the last bit.

        For a caller that computed ``when`` itself with the expression
        ``call_later`` would have used at a later ``now`` (a link pushes a
        packet's arrival when it is queued).  ``args`` is kept, not copied:
        a mutable sequence is read when the entry fires.
        """
        if when < self.now:
            raise ValueError(f"call_exact into the past: {when} < {self.now}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (when, seq, fn, args))

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, None, event))

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so follow-up ``run`` calls
        observe a monotone clock.

        This loop is the simulator's hot path.  A heap entry is either
        ``(when, seq, fn, args)`` -- a bare call -- or ``(when, seq, None,
        event)``; both kinds draw ``seq`` from the one counter, so entries
        due at the same instant fire in the order they were scheduled.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        limit = float("inf") if until is None else until
        try:
            while heap:
                if heap[0][0] > limit:
                    self.now = until
                    return
                self.now, _seq, fn, arg = heappop(heap)
                if fn is not None:
                    fn(*arg)
                    continue
                callbacks = arg.callbacks
                arg.callbacks = None
                for cb in callbacks:
                    cb(arg)
                if not arg._ok and not arg.defused:
                    # Nobody handled the failure: surface it.
                    raise arg._value
            if until is not None and until > self.now:
                self.now = until
        except StopSimulation:
            return
        finally:
            self._running = False

    def run_until_triggered(self, event: Event, limit: float = 1e9) -> Any:
        """Run until ``event`` triggers; return its value.

        Raises the event's exception if it failed, and
        :class:`SimulationError` if the simulation drains or hits ``limit``
        first.
        """
        event.add_callback(lambda ev: (_ for _ in ()).throw(StopSimulation()))
        self.run(until=self.now + limit)
        if not event.triggered:
            raise SimulationError(
                f"simulation ended at t={self.now} before event triggered"
            )
        if not event.ok:
            event.defused = True
            raise event.value
        return event.value

    def stop(self) -> None:
        """Stop the current :meth:`run` after the active callback."""
        ev = Event(self)
        ev._ok = False
        ev._value = StopSimulation()
        ev.defused = False
        self._schedule(ev, 0.0)

    @property
    def pending(self) -> int:
        """Number of events still scheduled (public; don't touch ``_heap``).

        This is the blessed resource-leak probe: after a scenario is torn
        down and drained, a non-zero ``pending`` means timers or sockets
        leaked.  The chaos invariants read it on both simulation tiers.
        """
        return len(self._heap)

    def __del__(self) -> None:
        # A process whose run ended, or was never run, before it started:
        # close its coroutine, or Python reports a process that never ran
        # as a lost ``await``.  The simulator is older than every process
        # on it, so the collector finalizes it before their coroutines.
        for entry in self._heap:
            if type(entry[3]) is Initialize:
                entry[3].callbacks[0].__self__._gen.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self.now} pending={len(self._heap)}>"
