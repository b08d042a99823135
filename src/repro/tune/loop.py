"""LinkTuner: the per-link closed-loop controller.

Every ``interval`` the loop reads one :class:`LinkSignals` sample from
its source, asks the :class:`~repro.tune.planner.TunePlanner` for target
knob values, and applies the deltas — through reversible
:class:`~repro.ops.rollout.ConfigChange` objects, so a tuner action can
be applied directly *or* ride the PR-9 SLO-gated canary machinery
(:func:`gated_apply`).

**Stability.**  Two mechanisms, both per knob:

* a relative *deadband*: a proposed value within ``deadband`` of the
  current one is ignored (integers also need an absolute change of at
  least 1), so planner jitter cannot generate work;
* a *hysteresis window*: after a knob changes, further changes to that
  knob are suppressed until ``hysteresis`` seconds have passed.

The no-oscillation bound follows by construction: for any knob ``k``
and any half-open interval ``[t, t + hysteresis)``, the tuner performs
**at most one** change to ``k`` — the guard compares the current clock
against the last applied change's timestamp before any apply, and the
timestamp is updated on every apply.  The bound is *provable* (it does
not depend on what the signals do) and is enforced as a chaos invariant
by :meth:`LinkTuner.check_no_oscillation`.

The loop is backend-symmetric the way the telemetry plane is:
:meth:`LinkTuner.run` steps on whichever runtime it is handed
(:mod:`repro.core.runtime`), over the synchronous :meth:`LinkTuner.step`.
"""

from __future__ import annotations

from typing import Callable, Optional

from .. import obs
from ..core.runtime import ASYNCIO
from .planner import TunePlanner

__all__ = ["LinkTuner", "TunerDecision", "gated_apply"]

#: default control interval, seconds
DEFAULT_INTERVAL = 1.0

#: default hysteresis window, seconds (>= a few intervals)
DEFAULT_HYSTERESIS = 3.0

#: default relative deadband
DEFAULT_DEADBAND = 0.2


class TunerDecision:
    """One applied knob change (the oscillation invariant's evidence)."""

    __slots__ = ("at", "knob", "old", "new", "gated")

    def __init__(self, at: float, knob: str, old, new, gated: bool = False):
        self.at = at
        self.knob = knob
        self.old = old
        self.new = new
        self.gated = gated

    def as_dict(self) -> dict:
        return {"at": self.at, "knob": self.knob, "old": self.old,
                "new": self.new, "gated": self.gated}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TunerDecision {self.knob} {self.old}->{self.new} "
                f"@{self.at:.2f}>")


class LinkTuner:
    """Continuously adapt one link's knobs from its measured signals."""

    def __init__(
        self,
        source: Callable[[], object],
        knobs,
        planner: Optional[TunePlanner] = None,
        *,
        clock: Callable[[], float],
        interval: float = DEFAULT_INTERVAL,
        hysteresis: float = DEFAULT_HYSTERESIS,
        deadband: float = DEFAULT_DEADBAND,
        apply_via: Optional[Callable] = None,
        route_table=None,
        relay_id: Optional[str] = None,
        name: str = "link",
    ):
        if interval <= 0 or hysteresis <= 0:
            raise ValueError("interval and hysteresis must be positive")
        if not 0 <= deadband < 1:
            raise ValueError(f"deadband must be in [0, 1): {deadband}")
        self.source = source
        self.knobs = knobs
        self.planner = planner or TunePlanner()
        self.clock = clock
        self.interval = interval
        self.hysteresis = hysteresis
        self.deadband = deadband
        #: callable(change, tuner) responsible for applying a ConfigChange;
        #: default applies immediately (see :func:`gated_apply` for the
        #: SLO-gated alternative)
        self.apply_via = apply_via
        self.route_table = route_table
        self.relay_id = relay_id
        self.name = name
        self.decisions: list[TunerDecision] = []
        self.suppressed = 0
        self.samples = 0
        self.last_signals = None
        self.last_plan = None
        self._last_change: dict[str, float] = {}
        self._stopped = False
        reg = obs.metrics()
        self._m_steps = reg.counter("tune.steps_total", link=name)
        self._m_changes = reg.counter("tune.changes_total", link=name)
        self._m_suppressed = reg.counter("tune.suppressed_total", link=name)

    # -- one control step --------------------------------------------------
    def step(self) -> list[TunerDecision]:
        """Observe, plan, apply.  Returns the changes applied this step."""
        self._m_steps.inc()
        signals = self.source()
        if signals is None:
            return []
        self.samples += 1
        self.last_signals = signals
        if self.route_table is not None and self.relay_id is not None:
            # Mesh-aware closed-loop routing: the tuner's path telemetry
            # feeds the route table continuously, not just at selection.
            self.route_table.update_path(
                self.relay_id, signals.rtt, loss=signals.loss_rate
            )
        plan = self.planner.plan(signals)
        self.last_plan = plan
        reg = obs.metrics()
        reg.gauge("tune.capacity_bps", link=self.name).set(
            plan.attrs.get("capacity_bps", 0.0))
        reg.gauge("tune.rtt_seconds", link=self.name).set(signals.rtt)
        applied = []
        for knob, target in plan.knobs():
            decision = self._propose(knob, target)
            if decision is not None:
                applied.append(decision)
        return applied

    def _within_deadband(self, old, new) -> bool:
        if isinstance(old, str) or isinstance(new, str):
            return old == new
        if old == new:
            return True
        if isinstance(old, int) and isinstance(new, int):
            if abs(new - old) < 1:
                return True
        base = max(abs(old), 1e-9)
        return abs(new - old) / base < self.deadband

    def _propose(self, knob: str, target) -> Optional[TunerDecision]:
        if not self.knobs.supports(knob):
            return None
        current = self.knobs.get(knob)
        if self._within_deadband(current, target):
            return None
        now = self.clock()
        last = self._last_change.get(knob)
        if last is not None and now - last < self.hysteresis:
            self.suppressed += 1
            self._m_suppressed.inc()
            return None
        change = self._make_change(knob, current, target)
        gated = self.apply_via is not None
        if gated:
            self.apply_via(change, self)
        else:
            change.apply(self.knobs)
        self._last_change[knob] = now
        decision = TunerDecision(now, knob, current, target, gated=gated)
        self.decisions.append(decision)
        self._m_changes.inc()
        obs.metrics().counter(
            "tune.knob_changes_total", link=self.name, knob=knob).inc()
        if isinstance(target, (int, float)):
            obs.metrics().gauge(
                f"tune.{knob}", link=self.name).set(float(target))
        obs.event("tune.change", link=self.name, knob=knob,
                  old=str(current), new=str(target), gated=gated)
        return decision

    def _make_change(self, knob: str, current, target):
        from ..ops.rollout import ConfigChange

        return ConfigChange(
            name=f"tune:{self.name}:{knob}={target}",
            apply=lambda knobs, k=knob, v=target: knobs.set(k, v),
            revert=lambda knobs, k=knob, v=current: knobs.set(k, v),
            attrs={"knob": knob, "old": current, "new": target},
        )

    # -- drivers -----------------------------------------------------------
    async def run(self, runtime, until: Optional[float] = None):
        """Step every ``interval`` on ``runtime`` until :meth:`stop`, or
        until ``until`` on the tuner's clock."""
        while not self._stopped:
            await runtime.sleep(self.interval)
            if self._stopped or (until is not None and self.clock() >= until):
                return
            self.step()

    def stop(self) -> None:
        self._stopped = True

    # -- reporting / invariants --------------------------------------------
    def stats(self) -> dict:
        """JSON-able tuner outcome (chaos reports embed this)."""
        return {
            "link": self.name,
            "samples": self.samples,
            "changes": len(self.decisions),
            "suppressed": self.suppressed,
            "hysteresis": self.hysteresis,
            "decisions": [d.as_dict() for d in self.decisions],
        }

    def check_no_oscillation(self) -> list:
        """Violations of the per-knob one-change-per-window bound.

        Empty by construction; wired as a chaos post-check so a
        regression in the guard (or a second writer to the same knob)
        surfaces as an invariant failure, not silent flapping.
        """
        out = []
        by_knob: dict[str, list[TunerDecision]] = {}
        for decision in self.decisions:
            by_knob.setdefault(decision.knob, []).append(decision)
        for knob, changes in by_knob.items():
            changes.sort(key=lambda d: d.at)
            for previous, current in zip(changes, changes[1:]):
                gap = current.at - previous.at
                if gap < self.hysteresis - 1e-9:
                    out.append(
                        f"tune: knob {knob!r} changed twice within one "
                        f"hysteresis window ({gap:.3f}s < "
                        f"{self.hysteresis:.3f}s) on link {self.name!r}"
                    )
        return out


def gated_apply(
    aggregator,
    *,
    canary: str,
    bake_seconds: float,
    poll_seconds: float = 0.5,
    runtime=ASYNCIO,
    clock: Optional[Callable[[], float]] = None,
) -> Callable:
    """An ``apply_via`` that rides every change through a canary gate.

    The tuned link *is* the canary: the change is applied to it
    immediately via :meth:`~repro.ops.rollout.CanaryRollout.start`, then
    the gate watches ``aggregator``'s SLOs over the bake window and
    reverts the knob if the change itself breaches them — self-defence
    for a controller acting on a mismeasured path.  The gate runs as a
    task on ``runtime``.  Completed gates are collected on
    ``tuner.rollouts``.
    """
    from ..ops.rollout import CanaryRollout

    def apply(change, tuner) -> None:
        rollout = CanaryRollout(
            change,
            aggregator,
            targets={canary: tuner.knobs},
            canaries=[canary],
            bake_seconds=bake_seconds,
            poll_seconds=poll_seconds,
            clock=clock or tuner.clock,
        )
        if not hasattr(tuner, "rollouts"):
            tuner.rollouts = []
        tuner.rollouts.append(rollout)
        runtime.spawn(rollout.run(runtime), f"tune-gate:{change.name}")

    return apply
