"""Closed-loop tuner chaos: does the controller adapt, and does it settle?

Three simulated scenarios put a running :class:`~repro.tune.loop.LinkTuner`
through the canonical control-theory stimuli — a mid-transfer path
degradation, a loss burst at constant capacity, and a bandwidth
step-change — and one live-only scenario, ``tune_window``, answers a
latency spike at a :class:`~repro.livenet.proxy.ChaosTcpProxy` gateway
on real asyncio sockets.
Each scenario asserts *polarity* (the knobs move the right way: a slower
path earns fewer bytes in flight, a recovered one re-expands), *loss
response* (a lossy path earns recovery streams while capacity holds) and
*stability* (:meth:`~repro.tune.loop.LinkTuner.check_no_oscillation`
enforces the ≤ 1 change per knob per hysteresis window bound as a chaos
invariant, plus a total-activity cap so the controller provably settles).

The scenarios are built around the fault plans in :data:`TUNE_PLANS`; any
plan works, but the polarity checks only bite when a plan shaped like the
canonical one runs (no faults → no decisions → the activity checks still
pass vacuously, the convergence ones trivially)::

    from repro.chaos import run_chaos
    from repro.chaos.tune import TUNE_PLANS

    report = run_chaos("tune_degrade", seed=3,
                       plan=TUNE_PLANS["tune_degrade"])
    assert report.ok, report.violations

The sim workload: one ``adaptive|parallel:6:rebalance=1`` stack
between two open sites on a 1.25 MB/s WAN, a sender streaming
continuously, and a tuner whose signal source mixes a goodput meter fed
by the receiver, the link's ground-truth loss rate, and the live stack
state (active streams, the adaptive driver's verdict).  The live
workload: a mux bulk+ping channel pair from the shared factory through
the chaos gateway, the tuner renegotiating the *receiver's* credit
window (the mid-stream ``T_WINDOW``/CREDIT path) as a latency fault
moves the BDP.
"""

from __future__ import annotations

import asyncio
import random


from .. import obs
from ..core.factory import BrokeredConnectionFactory
from ..core.runtime import SimRuntime
from ..core.scenarios import GridScenario
from ..core.utilization.spec import StackSpec
from ..obs import TraceContext
from ..tune import GaugeSignalSource, LinkTuner, StackKnobs, TunePlanner
from .registry import scenario
from .runner import Workload, _accept, _connect, _grid

__all__ = ["TUNE_PLANS", "LIVE_TUNE_PLAN"]

#: the canonical fault plans the tune_* polarity checks are designed
#: around (``make chaos-tune`` and the goldens run exactly these)
TUNE_PLANS = {
    "tune_degrade": "wan_degrade@5:site=S,scale=5,for=5",
    "tune_loss_burst": "wan_degrade@5:site=S,scale=1,loss=0.01,for=5",
    "tune_bandwidth_step": "wan_degrade@0.5:site=S,scale=5,for=8",
}

#: the live twin's plan: a latency spike at the gateway moves the BDP two
#: orders of magnitude and back
LIVE_TUNE_PLAN = "latency@1.2:site=HUB,delay=0.08,for=2.5"

# -- shared sim geometry -------------------------------------------------------

#: parallel links in the negotiated stack (= the planner's max_streams,
#: so clamping never masks the planner's real target)
_LINKS = 6
#: the planner's believed per-stream window — *half* the simulated TCP
#: rcvbuf, so a single real stream outruns the planner's single-stream
#: bound and the window-limited escalation ladder genuinely re-expands
_RCVBUF = 32 * 1024
#: declared path RTT (two 15 ms access links; queues stay near empty
#: because wan_degrade scales them with the bandwidth)
_RTT = 0.06
_SITE_BW = 1_250_000.0
_ACCESS_DELAY = 0.015
_CHUNK = 32 * 1024
_READ_CHUNK = 64 * 1024

_INTERVAL = 0.5
_HYSTERESIS = 1.5
_SMOOTH = 2.0
#: after the first payload byte arrives, let slow-start settle before
#: the first control step, so the opening trim is one clean decision
#: instead of a ramp-chasing staircase
_WARMUP = 1.5
#: stricter window-limited threshold than the planner default: the
#: receiver-side goodput meter is bursty at 0.5 s granularity, and a
#: spurious escalation is a spurious stream-count flap
_ESCALATE_AT = 0.85

#: per-scenario timeline: (fault_at, heal_at, send_end) matching the
#: TUNE_PLANS entries above
_TIMELINE = {
    "tune_degrade": (5.0, 10.0, 16.0),
    "tune_loss_burst": (5.0, 10.0, 14.0),
    "tune_bandwidth_step": (0.5, 8.5, 14.0),
}

#: total-decision cap per run — the "it settles" half of convergence
#: (polarity needs ~5 moves; a healthy controller never needs more)
_MAX_DECISIONS = 8


class _RecordingPlanner(TunePlanner):
    """A TunePlanner that keeps ``(at, signals, plan)`` for post-checks."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.history: list = []

    def plan(self, signals):
        plan = super().plan(signals)
        self.history.append((signals.at, signals, plan))
        return plan


class _LateKnobs:
    """Knob surface bound after establishment (the stack does not exist
    when the tuner is built; until it does, every knob is unsupported and
    the loop proposes nothing)."""

    def __init__(self):
        self.target = None

    def bind(self, knobs) -> None:
        self.target = knobs

    def supports(self, name: str) -> bool:
        return self.target is not None and self.target.supports(name)

    def get(self, name: str):
        return self.target.get(name)

    def set(self, name: str, value) -> None:
        self.target.set(name, value)


def _tune_spec(sessions: bool) -> StackSpec:
    spec = StackSpec.parse(f"adaptive|parallel:{_LINKS}:rebalance=1")
    return spec.with_session() if sessions else spec


def _streams_decisions(tuner: LinkTuner) -> list:
    return [d for d in tuner.decisions if d.knob == "streams"]


def _stability_checks(wl: Workload, tuner: LinkTuner) -> None:
    """The invariants every tune_* scenario shares."""

    def check() -> list:
        out = list(tuner.check_no_oscillation())
        if len(tuner.decisions) > _MAX_DECISIONS:
            out.append(
                f"tune: controller did not settle: {len(tuner.decisions)} "
                f"knob changes (cap {_MAX_DECISIONS})"
            )
        if tuner.samples == 0:
            out.append("tune: the tuner never observed a signal sample")
        return out

    def record() -> list:
        wl.stats["tune"] = tuner.stats()
        return []

    wl.post_checks.append(check)
    wl.post_checks.append(record)


def _build_tune_workload(
    seed: int, retries: bool, sessions: bool, name: str
) -> tuple:
    """The shared sim workload: one tuned stack, one continuous stream."""
    scn = GridScenario(seed=seed)
    scn.add_site("S", "open", access_bandwidth=_SITE_BW,
                 access_delay=_ACCESS_DELAY)
    scn.add_site("R", "open", access_bandwidth=_SITE_BW,
                 access_delay=_ACCESS_DELAY)
    sender = scn.add_node("S", "alice", auto_reconnect=retries)
    receiver = scn.add_node("R", "bob", auto_reconnect=retries)

    wl = Workload(scn)
    _fault_at, _heal_at, send_end = _TIMELINE[name]
    # stop deciding when the traffic stops: post-transfer drain produces
    # ghost goodput samples no knob should act on
    tune_until = send_end
    spec = _tune_spec(sessions)
    audit = wl.audit("bulk")
    chunk = random.Random(f"{seed}:chaos:{name}").randbytes(_CHUNK)
    late = _LateKnobs()

    def _loss() -> float:
        link = scn.site_wan_link("S")
        return max(link.a_to_b.loss, link.b_to_a.loss)

    def _streams_active() -> int:
        if not late.supports("streams"):
            return 0
        return late.get("streams")

    source = GaugeSignalSource(
        "wan",
        lambda: scn.sim.now,
        goodput_counter=("tune.rx_bytes_total", {"link": "wan"}),
        providers={
            "rtt": lambda: _RTT,
            "loss_rate": _loss,
            "streams_active": _streams_active,
        },
        smoothing_window=_SMOOTH,
    )
    planner = _RecordingPlanner(
        rcvbuf=_RCVBUF,
        max_streams=_LINKS,
        window_limited_threshold=_ESCALATE_AT,
    )
    tuner = LinkTuner(
        source.read,
        late,
        planner,
        clock=lambda: scn.sim.now,
        interval=_INTERVAL,
        hysteresis=_HYSTERESIS,
        # one-step dithers around the ceil boundary (5<->6) are noise,
        # not signal; 0.25 suppresses them at every base above 4
        deadband=0.25,
        name="wan",
    )

    async def run_tuner():
        # No opinion before the first payload byte: establishment takes a
        # variable slice of the run, and tuning a zero-goodput link would
        # just chase the ramp.
        meter = obs.metrics().counter("tune.rx_bytes_total", link="wan")
        while meter.value <= 0 and scn.sim.now < send_end:
            await scn.sim.timeout(_INTERVAL)
        await scn.sim.timeout(_WARMUP)
        await tuner.run(SimRuntime(scn.sim), until=tune_until)

    async def run_sender():
        try:
            await sender.start()
            factory = BrokeredConnectionFactory(sender)
            channel = await _connect(
                factory, receiver, spec, retries, ctx=TraceContext.new()
            )
            # rcvbuf deliberately unbound: the planner's believed window
            # (32 KiB) differs from the simulated OS buffer on purpose —
            # binding it would let the tuner "fix" the disagreement that
            # powers the escalation ladder
            late.bind(StackKnobs(stack=channel.driver))
            while scn.sim.now < send_end:
                await channel.write(chunk)
                audit.record_sent(chunk)
            await channel.flush()
            channel.close()
            audit.finish_sender()
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("tune-sender", exc)

    async def run_receiver():
        try:
            await receiver.start()
            channel = await _accept(
                BrokeredConnectionFactory(receiver), retries
            )
            meter = obs.metrics().counter("tune.rx_bytes_total", link="wan")
            while True:
                data = await channel.read(_READ_CHUNK)
                if not data:
                    break
                meter.inc(len(data))
                audit.record_received(data)
            channel.close()
            audit.finish_receiver()
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("tune-receiver", exc)

    scn.sim.process(run_sender(), name="chaos-tune-sender")
    scn.sim.process(run_receiver(), name="chaos-tune-receiver")
    scn.sim.process(run_tuner(), name="chaos-tuner")
    _stability_checks(wl, tuner)
    return wl, tuner, planner


@scenario("tune_degrade")
def _build_tune_degrade(seed: int, retries: bool, sessions: bool) -> Workload:
    """Path degradation mid-transfer: shed streams, then re-expand.

    ``wan_degrade`` divides the WAN capacity by 5 for five seconds.  The
    polarity invariant: during the episode the tuner *shrinks* the
    parallel membership toward one stream (fewer bytes in flight on a
    slower path), and after the heal it climbs back via the
    window-limited escalation ladder — a single real stream outruns the
    planner's believed single-stream bound, which is the signal that the
    path has more to give.
    """
    wl, tuner, _planner = _build_tune_workload(
        seed, retries, sessions, "tune_degrade"
    )
    fault_at, heal_at, send_end = _TIMELINE["tune_degrade"]

    def check_polarity() -> list:
        decisions = _streams_decisions(tuner)
        if not decisions:
            return []  # no fault ran (or a plan without one): nothing to say
        out = []
        shed = [
            d for d in decisions
            if fault_at <= d.at <= heal_at + 2.0 and d.new < d.old and d.new <= 2
        ]
        if not shed:
            out.append(
                "tune: no stream shed during the degradation window "
                f"(decisions: {[d.as_dict() for d in decisions]})"
            )
        regrew = [d for d in decisions if d.at > heal_at and d.new > d.old]
        if not regrew:
            out.append("tune: no re-expansion after the path healed")
        if decisions[-1].new < 2:
            out.append(
                f"tune: streams ended at {decisions[-1].new}; the healed "
                "path should have earned re-expansion"
            )
        return out

    wl.post_checks.append(check_polarity)
    return wl


@scenario("tune_loss_burst")
def _build_tune_loss_burst(
    seed: int, retries: bool, sessions: bool
) -> Workload:
    """Loss burst at constant capacity: buy recovery streams, then stop.

    ``wan_degrade`` with ``scale=1`` leaves the bandwidth alone and
    floors the loss at 1% for five seconds.  Polarity: while capacity
    holds, loss argues for *more* streams (the paper's only-loss
    resilience case, via the planner's loss headroom applied before the
    clamp); once the burst ends the extra streams are returned.
    """
    wl, tuner, planner = _build_tune_workload(
        seed, retries, sessions, "tune_loss_burst"
    )
    fault_at, heal_at, _send_end = _TIMELINE["tune_loss_burst"]

    def check_polarity() -> list:
        decisions = _streams_decisions(tuner)
        if not decisions:
            return []
        out = []
        observed = max(
            (sig.loss_rate for at, sig, _p in planner.history
             if fault_at <= at <= heal_at),
            default=0.0,
        )
        if observed < 0.005:
            out.append(
                f"tune: loss burst never reached the signals (saw "
                f"{observed:.4f})"
            )
        grew = [
            d for d in decisions
            if fault_at <= d.at <= fault_at + 3.0
            and d.new > d.old and d.new >= 4
        ]
        if not grew:
            out.append(
                "tune: loss at constant capacity should have bought "
                "recovery streams "
                f"(decisions: {[d.as_dict() for d in decisions]})"
            )
        if decisions[-1].new > 4:
            out.append(
                f"tune: streams ended at {decisions[-1].new}; the loss "
                "headroom should have been returned after the burst"
            )
        return out

    wl.post_checks.append(check_polarity)
    return wl


@scenario("tune_bandwidth_step")
def _build_tune_bandwidth_step(
    seed: int, retries: bool, sessions: bool
) -> Workload:
    """Bandwidth step-change: converge low, then discover the step up.

    The path is degraded from (almost) the start, so the controller's
    first fix point is a single stream on a 250 KB/s link; when the
    capacity steps up 5x mid-transfer, the escalation ladder has to
    *discover* the new ceiling from goodput alone and re-expand.
    """
    wl, tuner, _planner = _build_tune_workload(
        seed, retries, sessions, "tune_bandwidth_step"
    )
    _fault_at, heal_at, _send_end = _TIMELINE["tune_bandwidth_step"]

    def check_polarity() -> list:
        decisions = _streams_decisions(tuner)
        if not decisions:
            return []
        out = []
        low = [d for d in decisions if d.at <= heal_at and d.new <= 2]
        if not low:
            out.append(
                "tune: never converged to a small membership on the "
                "degraded path "
                f"(decisions: {[d.as_dict() for d in decisions]})"
            )
        grew = [d for d in decisions if d.at > heal_at and d.new > d.old]
        if not grew:
            out.append("tune: no expansion after the bandwidth step-up")
        if decisions[-1].new < 2:
            out.append(
                f"tune: streams ended at {decisions[-1].new} after the "
                "step-up; the discovered capacity was never used"
            )
        return out

    wl.post_checks.append(check_polarity)
    return wl


# -- the live credit-window workload -----------------------------------------

_LIVE_WINDOW = 16 * 1024
_LIVE_CHUNK = 4096
_LIVE_PACE = 0.005
_LIVE_PING_EVERY = 0.05
_LIVE_SEND_END = 5.0
_LIVE_FAULT_AT = 1.2
_LIVE_HEAL_AT = 3.7
_LIVE_INTERVAL = 0.1
_LIVE_HYSTERESIS = 0.4
_LIVE_SMOOTH = 0.6


@scenario("tune_window", backends=("live",))
def _build_tune_window(seed: int, retries: bool, sessions: bool) -> Workload:
    """Credit-window renegotiation over real sockets, under a latency spike.

    A mux bulk channel (plus a ping channel supplying RTT) shares one
    carrier through bob's chaos gateway; the tuner owns the *receiver's*
    bulk window.  When the latency fault inflates the RTT two orders of
    magnitude the BDP explodes past the 16 KiB starting window, the
    sender's credit stalls feed ``mux.backpressure_waits``, and the tuner
    must grow the window mid-stream — the ``T_WINDOW``/CREDIT
    renegotiation path crossing a real TCP connection — then hand the
    credit back after the heal.  ``sessions`` is not used: the workload
    moves no stream across a fault.
    """
    scn = _grid("live", seed)
    scn.add_site("A")
    scn.add_site("HUB")
    alice = scn.add_node("A", "alice", auto_reconnect=retries)
    bob = scn.add_node("HUB", "bob", auto_reconnect=retries)

    wl = Workload(scn)
    spec = StackSpec.tcp().with_mux(window=_LIVE_WINDOW)
    audit = wl.audit("bulk")
    chunk = random.Random(f"{seed}:chaos:livetune").randbytes(_LIVE_CHUNK)
    holder: dict = {}
    late = _LateKnobs()

    source = GaugeSignalSource(
        "live",
        lambda: scn.sim.now,
        goodput_counter=("tune.rx_bytes_total", {"link": "live"}),
        stall_counter=("mux.backpressure_waits", {"node": "alice"}),
        providers={"rtt": lambda: holder.get("rtt", 0.0)},
        smoothing_window=_LIVE_SMOOTH,
    )
    planner = TunePlanner(
        min_mux_window=_LIVE_WINDOW, max_mux_window=1 << 20, escalation=2.0,
    )
    tuner = LinkTuner(
        source.read,
        late,
        planner,
        clock=lambda: scn.sim.now,
        interval=_LIVE_INTERVAL,
        hysteresis=_LIVE_HYSTERESIS,
        name="live",
    )

    async def run_bob() -> None:
        try:
            await bob.start()
            factory = BrokeredConnectionFactory(bob)
            bulk = await _accept(factory, retries)
            ping = await _accept(factory, retries)
            late.bind(StackKnobs(mux_channel=bulk.driver.link))

            async def pinger() -> None:
                seq = 0
                while scn.sim.now < _LIVE_SEND_END:
                    t0 = scn.sim.now
                    await ping.write(seq.to_bytes(8, "big"))
                    await ping.flush()
                    echo = await ping.read_exactly(8)
                    if echo != seq.to_bytes(8, "big"):
                        raise AssertionError("ping echo mismatch")
                    holder["rtt"] = max(scn.sim.now - t0, 1e-4)
                    seq += 1
                    await asyncio.sleep(_LIVE_PING_EVERY)
                ping.close()

            ping_task = asyncio.ensure_future(pinger())
            meter = obs.metrics().counter("tune.rx_bytes_total", link="live")
            while True:
                data = await bulk.read(_READ_CHUNK)
                if not data:
                    break
                meter.inc(len(data))
                audit.record_received(data)
            audit.finish_receiver()
            bulk.close()
            await ping_task
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("tune-bob", exc)

    async def run_alice() -> None:
        try:
            await alice.start()
            factory = BrokeredConnectionFactory(alice)
            bulk = await _connect(factory, bob, spec, retries)
            ping = await _connect(factory, bob, spec, retries)
            holder["bulk_alice"] = bulk.driver.link

            async def echo() -> None:
                while True:
                    data = await ping.read(64)
                    if not data:
                        break
                    await ping.write(data)
                    await ping.flush()
                ping.close()

            echo_task = asyncio.ensure_future(echo())
            # unflushed: the channel sends whole 64 KiB blocks, which the
            # 16 KiB window passes on as credit comes back
            while scn.sim.now < _LIVE_SEND_END:
                await bulk.write(chunk)
                audit.record_sent(chunk)
                await asyncio.sleep(_LIVE_PACE)
            await bulk.flush()
            audit.finish_sender()
            bulk.close()
            await echo_task
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("tune-alice", exc)

    async def run_tuner() -> None:
        try:
            await tuner.run(scn.runtime, until=_LIVE_SEND_END + 0.3)
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("tune-tuner", exc)

    def check_polarity() -> list:
        decisions = [d for d in tuner.decisions if d.knob == "mux_window"]
        if not decisions:
            return []  # no fault → BDP never moved → nothing to renegotiate
        out = []
        grew = [
            d for d in decisions
            if _LIVE_FAULT_AT <= d.at <= _LIVE_HEAL_AT + 0.7
            and d.new > d.old and d.new >= 2 * _LIVE_WINDOW
        ]
        if not grew:
            out.append(
                "tune: the latency spike should have grown the credit "
                "window mid-stream "
                f"(decisions: {[d.as_dict() for d in decisions]})"
            )
        shrank = [
            d for d in decisions if d.at >= _LIVE_HEAL_AT and d.new < d.old
        ]
        # a down-step may reach the floor — within the deadband of it, where
        # the controller no longer moves — before the heal: then there is
        # nothing left to hand back after it
        at_floor = decisions[-1].new < _LIVE_WINDOW * (1 + tuner.deadband)
        if not shrank and not at_floor:
            out.append(
                "tune: the credit granted for the spike was never handed "
                "back after the heal "
                f"(decisions: {[d.as_dict() for d in decisions]})"
            )
        if decisions[-1].new > 4 * _LIVE_WINDOW:
            out.append(
                f"tune: window ended at {decisions[-1].new} B on a "
                "sub-millisecond path"
            )
        retunes = obs.metrics().counter(
            "mux.window_retunes_total", node="bob"
        ).value
        if retunes < 2:
            out.append(
                f"tune: expected >=2 live window renegotiations, saw "
                f"{retunes}"
            )
        announced = {d.new for d in decisions}
        peer_view = getattr(holder.get("bulk_alice"), "peer_rx_window", 0)
        if peer_view not in announced:
            out.append(
                f"tune: the sender's view of the window ({peer_view} B) "
                f"matches no announced retune {sorted(announced)} — "
                "T_WINDOW never crossed the wire"
            )
        return out

    wl.post_checks.append(check_polarity)
    _stability_checks(wl, tuner)
    scn.spawn(run_bob(), "chaos-tune-bob")
    scn.spawn(run_alice(), "chaos-tune-alice")
    scn.spawn(run_tuner(), "chaos-tuner")
    return wl
