"""Canary-rollout chaos scenarios: the telemetry plane gating a config push.

The end-to-end demonstration the staged-rollout ROADMAP item asks for,
on BOTH backends: a fleet of senders streams into one hub while every
node publishes delta-snapshot telemetry; a
:class:`~repro.ops.rollout.CanaryRollout` pushes a tuner-policy change
to a canary subset and watches the aggregator's throughput SLO over a
bake window.

* ``canary_rollout`` — the pushed policy is deliberately **bad** (a
  trickle pace).  The canaries' windowed throughput collapses, the SLO
  breaches, and the gate must revert the canaries *within the bake
  window* — the control senders never see the bad config.  Post-checks
  pin all of that plus the usual delivery audits and byte conservation.
* ``canary_rollout_good`` — the polarity twin: the pushed policy is an
  **improvement**.  No canary breach may start during the bake, and the
  gate must promote the change to the whole fleet.

Each is one builder that both backends run: the senders and the hub are
nodes whose channels come from the shared factory, and the publishers
and the gate are tasks on the scenario's runtime.  Only the numbers in
:data:`_GEOMETRY` differ, because wall-clock runs have to finish in
seconds; live, every stream crosses the hub's chaos gateway, whose byte
ledger is watched as a conservation-drift SLO.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .. import obs
from ..core.factory import BrokeredConnectionFactory
from ..ops.rollout import CanaryRollout, ConfigChange
from ..tune.planner import TunerPolicy
from .registry import scenario
from .runner import Workload, _accept, _connect, _grid, _spec


#: sender fleet: two canaries, two controls, one hub
_CANARIES = ("c1", "c2")
_CONTROLS = ("s1", "s2")
_SENDERS = _CANARIES + _CONTROLS


class _Geometry(NamedTuple):
    healthy: TunerPolicy
    bad: TunerPolicy
    improved: TunerPolicy
    interval: float
    window: float
    #: throughput objective, B/s: healthy well above, trickle far below
    threshold: float
    sustain: float
    rollout_at: float
    bake: float
    poll: float
    send_end: float
    #: allowed windowed gateway conservation drift: bytes legitimately in
    #: flight inside a gateway (one forwarding chunk per pump direction)
    drift_slack: float = 256 * 1024


#: per backend: simulated seconds, or wall-clock seconds on loopback
_GEOMETRY = {
    "sim": _Geometry(
        healthy=TunerPolicy("healthy", pace=0.05, chunk=8192),    # ~160 KB/s
        bad=TunerPolicy("trickle", pace=0.5, chunk=512),          # ~1 KB/s
        improved=TunerPolicy("improved", pace=0.04, chunk=8192),  # ~205 KB/s
        interval=0.5, window=3.0, threshold=40_000.0, sustain=1.0,
        rollout_at=4.0, bake=10.0, poll=0.5, send_end=20.0,
    ),
    "live": _Geometry(
        healthy=TunerPolicy("healthy", pace=0.02, chunk=16 * 1024),  # ~800 KB/s
        bad=TunerPolicy("trickle", pace=0.2, chunk=1024),            # ~5 KB/s
        improved=TunerPolicy("improved", pace=0.015, chunk=16 * 1024),
        interval=0.1, window=1.0, threshold=100_000.0, sustain=0.3,
        rollout_at=0.8, bake=3.0, poll=0.1, send_end=5.0,
    ),
}


def _policies(healthy: TunerPolicy) -> dict:
    return {node: healthy for node in _SENDERS}


def _rollout_change(
    policies: dict, pushed: TunerPolicy, healthy: TunerPolicy
) -> ConfigChange:
    def apply(node: str) -> None:
        policies[node] = pushed

    def revert(node: str) -> None:
        policies[node] = healthy

    return ConfigChange(f"tuner:{pushed.name}", apply, revert)


def _polarity_checks(wl: Workload, rollout: CanaryRollout, good: bool) -> None:
    """The acceptance criteria, as post-run invariants."""
    scn = wl.scenario

    def check() -> list:
        out = []
        agg = scn.telemetry
        if good:
            if rollout.state != "promoted":
                out.append(
                    f"rollout: healthy config ended {rollout.state!r}, "
                    "expected promoted"
                )
            else:
                baked = [
                    b
                    for b in agg.breaches_since(
                        rollout.applied_at, sources=rollout.canary_sources
                    )
                    if b.started <= rollout.decided_at
                ]
                if baked:
                    out.append(
                        "rollout: healthy config breached during bake: "
                        f"{baked[0].slo} on {baked[0].source}"
                    )
            return out
        if rollout.state != "rolled_back":
            out.append(
                f"rollout: bad config ended {rollout.state!r}, "
                "expected rolled_back"
            )
            return out
        decided = rollout.decided_at - rollout.applied_at
        if decided > rollout.bake_seconds:
            out.append(
                f"rollout: rollback took {decided:.2f}s, outside the "
                f"{rollout.bake_seconds:.1f}s bake window"
            )
        if rollout.trigger is None or (
            rollout.trigger["source"] not in rollout.canary_sources
        ):
            out.append(
                f"rollout: rollback trigger {rollout.trigger!r} is not a "
                "canary breach"
            )
        control = agg.breaches_since(rollout.applied_at, sources=_CONTROLS)
        if control:
            out.append(
                "rollout: control sender breached — the bad config leaked "
                f"past the canaries: {control[0].slo} on {control[0].source}"
            )
        return out

    wl.post_checks.append(check)


def _build_rollout(
    seed: int, retries: bool, sessions: bool, good: bool, backend: str
) -> Workload:
    geo = _GEOMETRY[backend]
    scn = _grid(backend, seed)
    scn.add_site(
        "HUB", "nat_firewall", access_bandwidth=12_500_000.0, access_delay=0.01
    )
    for name in _SENDERS:
        scn.add_site(
            name.upper(), "open", access_bandwidth=2_500_000.0, access_delay=0.01
        )
    hub = scn.add_node("HUB", "hub", auto_reconnect=retries)
    nodes = {
        name: scn.add_node(name.upper(), name, auto_reconnect=retries)
        for name in _SENDERS
    }

    agg = scn.enable_telemetry(interval=geo.interval, window=geo.window)
    agg.add_slo(
        obs.SLO(
            "throughput",
            obs.sli_counter_rate("rollout.sent_bytes_total"),
            threshold=geo.threshold,
            op=">=",
            for_seconds=geo.sustain,
        )
    )
    agg.add_slo(
        obs.SLO(
            "proxy-conservation",
            obs.sli_proxy_drift(),
            threshold=geo.drift_slack,
            op="<=",
        )
    )

    policies = _policies(geo.healthy)
    pushed = geo.improved if good else geo.bad
    rollout = CanaryRollout(
        _rollout_change(policies, pushed, geo.healthy),
        agg,
        targets={name: name for name in _SENDERS},
        canaries=_CANARIES,
        bake_seconds=geo.bake,
        poll_seconds=geo.poll,
        clock=lambda: scn.sim.now,
    )

    wl = Workload(scn)
    spec = _spec(sessions)
    audits = {name: wl.audit(f"rollout-{name}") for name in _SENDERS}

    async def run_sender(name: str):
        node = nodes[name]
        audit = audits[name]
        meter = obs.metrics().counter("rollout.sent_bytes_total", node=name)
        rng = random.Random(f"{seed}:rollout:{name}")
        try:
            await node.start()
            channel = await _connect(
                BrokeredConnectionFactory(node), hub, spec, retries
            )
            await channel.write(name.encode())
            while scn.sim.now < geo.send_end:
                policy = policies[name]
                chunk = rng.randbytes(policy.chunk)
                await channel.write(chunk)
                audit.record_sent(chunk)
                meter.inc(len(chunk))
                await node.runtime.sleep(policy.pace)
            await channel.flush()
            channel.close()
            audit.finish_sender()
            agg.retire(name)
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail(f"sender:{name}", exc)

    async def read_one(channel):
        try:
            name = (await channel.read_exactly(2)).decode()
            while True:
                data = await channel.read(64 * 1024)
                if not data:
                    break
                audits[name].record_received(data)
            channel.close()
            audits[name].finish_receiver()
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("hub-reader", exc)

    async def run_hub():
        try:
            await hub.start()
            factory = BrokeredConnectionFactory(hub)
            for i in range(len(_SENDERS)):
                channel = await _accept(factory, retries)
                scn.spawn(read_one(channel), f"rollout-read-{i}")
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("hub", exc)

    scn.spawn(run_hub(), "rollout-hub")
    for name in _SENDERS:
        scn.spawn(run_sender(name), f"rollout-{name}")
    scn.spawn(rollout.run(scn.runtime, start_at=geo.rollout_at), "rollout-gate")

    _polarity_checks(wl, rollout, good)

    def record_stats() -> list:
        wl.stats["rollout"] = rollout.stats()
        wl.stats["slo_breaches"] = len(agg.breaches)
        return []

    wl.post_checks.append(record_stats)
    return wl


@scenario("canary_rollout", backends=("sim", "live"))
def _build_canary_rollout(
    seed: int, retries: bool, sessions: bool, backend: str = "sim"
) -> Workload:
    """Push a BAD tuner policy to two canaries; the gate must roll back.

    Four senders stream into one hub at a healthy pace while their
    telemetry publishers feed a windowed throughput SLO.  Shortly in
    (t=4s simulated, 0.8s live) the rollout gate applies a trickle
    policy to the canary pair; their windowed rate collapses far below
    the objective, the sustained breach fires, and the gate reverts the
    canaries well inside the bake window.  The controls must stay
    breach-free and every stream must still deliver byte-exactly —
    detection AND containment.
    """
    return _build_rollout(seed, retries, sessions, good=False, backend=backend)


@scenario("canary_rollout_good", backends=("sim", "live"))
def _build_canary_rollout_good(
    seed: int, retries: bool, sessions: bool, backend: str = "sim"
) -> Workload:
    """Push a healthy tuner policy; the gate must bake through and promote.

    The polarity twin of ``canary_rollout``: the pushed policy slightly
    *improves* throughput, no canary breach may start during the bake,
    and after the window elapses the gate applies the change to the
    control senders too.  Together the pair pins that the gate reacts to
    telemetry, not to the act of pushing.
    """
    return _build_rollout(seed, retries, sessions, good=True, backend=backend)
