"""Canary rollout gate: stage a config change, watch SLOs, roll back.

The ROADMAP's staged-rollout item, closed on top of the telemetry
plane: a :class:`CanaryRollout` applies a :class:`ConfigChange` to a
*canary subset* of targets, then watches the
:class:`~repro.obs.telemetry.TelemetryAggregator`'s SLO monitors over a
**bake window**.  Any breach that *starts* on a canary source after the
change was applied trips an automatic **rollback**; a clean bake
**promotes** the change to the remaining targets.  The driver is
backend-agnostic the same way the telemetry publisher is:
:meth:`CanaryRollout.run` polls on whichever runtime it is handed
(:mod:`repro.core.runtime`), over the synchronous
:meth:`CanaryRollout.poll` state machine.

States::

    pending --start()--> canary --breach--> rolled_back   (terminal)
                            \\----bake elapsed--> promoted (terminal)

Nothing here knows what a "config" is: a :class:`ConfigChange` is a
pair of callables over opaque targets (a tuner policy swap, a mux
scheduler swap, a session-window change), so the same gate drives sim
scenarios, live scenarios and — later — real deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import coroutine
from typing import Callable, Iterable, Optional

from repro import obs

__all__ = ["ConfigChange", "CanaryRollout", "RolloutError"]

#: default bake window (seconds in the rollout's clock domain)
DEFAULT_BAKE = 10.0

#: default poll interval
DEFAULT_POLL = 0.5


class RolloutError(Exception):
    """Invalid rollout-state transition or configuration."""


@dataclass
class ConfigChange:
    """A named, reversible configuration change over opaque targets.

    ``apply(target)`` switches one target to the new configuration;
    ``revert(target)`` restores the previous one.  Both must be
    idempotent enough to survive being called once per target.
    """

    name: str
    apply: Callable[[object], None]
    revert: Callable[[object], None]
    attrs: dict = field(default_factory=dict)


class CanaryRollout:
    """Stage ``change`` on canaries, gate promotion on SLO health.

    ``targets`` maps target id -> opaque target object; ``canaries``
    names the subset to stage first.  ``sources`` optionally maps a
    target id to the telemetry source names its health is read from
    (default: the target id itself) — breaches on *non-canary* sources
    never trip a rollback, they are the control group.
    """

    def __init__(
        self,
        change: ConfigChange,
        aggregator: obs.TelemetryAggregator,
        targets: dict,
        canaries: Iterable[str],
        bake_seconds: float = DEFAULT_BAKE,
        poll_seconds: float = DEFAULT_POLL,
        clock: Optional[Callable[[], float]] = None,
        sources: Optional[dict] = None,
    ):
        self.change = change
        self.aggregator = aggregator
        self.targets = dict(targets)
        self.canaries = list(canaries)
        if not self.canaries:
            raise RolloutError("a rollout needs at least one canary")
        missing = [c for c in self.canaries if c not in self.targets]
        if missing:
            raise RolloutError(f"canaries are not targets: {missing}")
        if bake_seconds <= 0 or poll_seconds <= 0:
            raise RolloutError("bake/poll windows must be positive")
        self.bake_seconds = bake_seconds
        self.poll_seconds = poll_seconds
        self._clock = clock or obs.get_registry().now
        source_map = sources or {}
        self.canary_sources = set()
        for canary in self.canaries:
            mapped = source_map.get(canary, canary)
            if isinstance(mapped, str):
                self.canary_sources.add(mapped)
            else:
                self.canary_sources.update(mapped)
        self.state = "pending"
        self.applied_at: Optional[float] = None
        self.decided_at: Optional[float] = None
        self.trigger: Optional[dict] = None
        self.events: list[dict] = []

    # -- bookkeeping -------------------------------------------------------
    def _event(self, kind: str, **attrs) -> None:
        entry = {"kind": kind, "ts": self._clock(), **attrs}
        self.events.append(entry)
        obs.event(f"rollout.{kind}", change=self.change.name, **attrs)

    @property
    def done(self) -> bool:
        return self.state in ("rolled_back", "promoted")

    def stats(self) -> dict:
        """JSON-able rollout outcome (chaos reports embed this)."""
        return {
            "change": self.change.name,
            "state": self.state,
            "canaries": sorted(self.canaries),
            "applied_at": self.applied_at,
            "decided_at": self.decided_at,
            "bake_seconds": self.bake_seconds,
            "trigger": self.trigger,
            "events": [e["kind"] for e in self.events],
        }

    # -- state machine -----------------------------------------------------
    def start(self) -> None:
        """Apply the change to every canary and open the bake window."""
        if self.state != "pending":
            raise RolloutError(f"cannot start from state {self.state!r}")
        for canary in self.canaries:
            self.change.apply(self.targets[canary])
        self.applied_at = self._clock()
        self.state = "canary"
        self._event("apply", targets=sorted(self.canaries), stage="canary")

    def poll(self) -> str:
        """Advance the gate one step; returns the (possibly new) state.

        While baking: a breach that started on a canary source at or
        after ``applied_at`` reverts the canaries (``rolled_back``); a
        fully elapsed bake window applies the change to the remaining
        targets (``promoted``).
        """
        if self.state != "canary":
            return self.state
        breaches = self.aggregator.breaches_since(
            self.applied_at, sources=self.canary_sources
        )
        if breaches:
            first = breaches[0]
            for canary in self.canaries:
                self.change.revert(self.targets[canary])
            self.state = "rolled_back"
            self.decided_at = self._clock()
            self.trigger = first.as_dict()
            self._event(
                "rollback",
                targets=sorted(self.canaries),
                slo=first.slo,
                source=first.source,
                value=first.value,
                threshold=first.threshold,
            )
            return self.state
        if self._clock() - self.applied_at >= self.bake_seconds:
            rest = [t for t in self.targets if t not in self.canaries]
            for target in rest:
                self.change.apply(self.targets[target])
            self.state = "promoted"
            self.decided_at = self._clock()
            self._event("promote", targets=sorted(rest), stage="fleet")
        return self.state

    # -- drivers -----------------------------------------------------------
    @coroutine
    def run(self, runtime, start_at: float = 0.0):
        """The driver on ``runtime``: waits until ``start_at`` on the
        gate's clock, starts the canary stage, then polls every
        ``poll_seconds`` until a terminal state, which it returns."""
        if start_at > self._clock():
            yield from runtime.sleep(start_at - self._clock())
        self.start()
        while not self.done:
            yield from runtime.sleep(self.poll_seconds)
            self.poll()
        return self.state
