"""Live-socket chaos: the same seeded fault plans against real endpoints.

The sim runner proves the architecture's robustness claims on a
deterministic network; this module re-runs the same *scenario source* —
one ``(scenario, seed, plan)`` triple, the same :class:`FaultPlan`
grammar, the same :class:`~repro.chaos.runner.Workload` audit machinery,
the same invariant families — against genuine asyncio TCP endpoints::

    from repro.chaos import run_chaos

    report = run_chaos(
        "wan_transfer", seed=7, plan="conn_kill@0.3:site=B",
        sessions=True, backend="live",
    )
    assert report.ok, report.violations

Three pieces make that line work:

* :class:`LiveClock` — the minimal ``sim``-shaped clock surface
  (``now`` / ``call_at`` / ``call_later``) over the asyncio event loop,
  so the unmodified :class:`~repro.chaos.faults.FaultScheduler` arms a
  plan against wall time exactly the way it arms one against simulated
  time.
* :class:`LiveChaosScenario` — the live stand-in for ``GridScenario``:
  it owns the :class:`~repro.livenet.proxy.ChaosTcpProxy` gateways
  (``chaos_proxy(site)`` is the attach point the live fault kinds use),
  the workload tasks and the teardown list.
* :func:`run_live_chaos` — scoped obs registry/recorder, workload
  deadline, drain, the live invariant suite (delivery audits, proxy
  byte conservation, leaked-task probe, obs counter/span agreement) and
  the familiar :class:`~repro.chaos.runner.ChaosReport`.

Determinism caveat: payloads, ids and fault schedules are seeded, but
wall-clock timing is not simulated time — live reports are *replayable*
(same triple, same polarity) without being byte-identical.
"""

from __future__ import annotations

if __name__ == "__main__":  # pragma: no cover - CLI entry
    # ``python -m repro.chaos.live`` executes this file as a *second*
    # copy of the module named ``__main__``.  Dispatch to the CLI before
    # this copy's ``@live_scenario`` registration runs, or it would
    # collide with the canonical import's registration when the goldens
    # module imports ``repro.chaos.live`` properly.
    import sys

    from repro.chaos.goldens import main as _cli_main

    sys.exit(_cli_main(None))

import asyncio
import json
import os
import random
import time
from typing import Callable, Optional, Union

from .. import obs
from ..livenet.proxy import ChaosTcpProxy
from ..livenet.relay import LiveMeshRelayClient, LiveRelayServer
from ..livenet.session import AsyncSessionLink, AsyncSessionListener
from ..livenet.transport import live_connect, live_listen
from ..mesh.config import MeshConfig
from ..obs import MetricsRegistry, TraceContext, TraceRecorder, seed_ids
from ..obs.assemble import assemble, render_text
from .faults import FaultPlan, FaultScheduler, require_backend
from .invariants import _mux_violations, obs_consistency_violations
from .registry import get_scenario, live_scenario
from .runner import ChaosReport, Workload

__all__ = [
    "LiveClock",
    "LiveChaosScenario",
    "run_live_chaos",
]

#: hard cap on a live run's wall-clock deadline — ``run_chaos`` defaults
#: ``until`` to 900 *simulated* seconds, which would be an absurd hang
#: allowance on real sockets
LIVE_DEADLINE_CAP = 120.0

#: settle window after the workload finishes / is cancelled, before the
#: leaked-task probe runs (cancellation needs event-loop cycles)
SETTLE_SECONDS = 0.1

_WRITE_CHUNK = 32 * 1024
_READ_CHUNK = 64 * 1024

#: live wan_transfer geometry: small enough to finish in ~1.5 s on
#: loopback, paced so a fault at t≈0.3 s lands mid-stream
_LIVE_STAGES = 2
_LIVE_STAGE_BYTES = 512 * 1024
_LIVE_PACE = 0.04

#: live mesh geometry: one ~768 KiB stage (~1 s paced), relay kills a few
#: hundred milliseconds in land mid-stream
_LIVE_MESH_BYTES = 768 * 1024
_LIVE_MESH_RELAYS = ("r1", "r2", "r3")

#: wall-clock allowance on top of the configured detection bound — the
#: live gossip loop competes with the event loop's scheduling jitter,
#: which simulated time does not model
_LIVE_DETECT_SLACK = 1.0


def _live_mesh_config() -> MeshConfig:
    """Gossip cadence fast enough to converge within a short live run."""
    return MeshConfig(gossip_interval=0.15, gossip_jitter=0.2, deadline=0.9)


class LiveClock:
    """The ``sim`` surface the fault scheduler needs, on the event loop.

    ``now`` is seconds since the clock was created, so plan timestamps
    (``conn_kill@0.3``) mean "0.3 s into the run" on both backends.
    """

    def __init__(self):
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self._handles: list = []

    @property
    def now(self) -> float:
        return self._loop.time() - self._t0

    def call_at(self, when: float, fn: Callable, *args) -> None:
        self._handles.append(
            self._loop.call_later(max(0.0, when - self.now), fn, *args)
        )

    def call_later(self, delay: float, fn: Callable, *args) -> None:
        self._handles.append(
            self._loop.call_later(max(0.0, delay), fn, *args)
        )

    def cancel_all(self) -> None:
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()


class LiveChaosScenario:
    """A built live workload: proxies, workload tasks, teardown hooks."""

    def __init__(self, seed: int):
        self.seed = seed
        self.sim = LiveClock()
        #: site name -> the gateway proxy the live fault kinds drive
        self.proxies: dict[str, ChaosTcpProxy] = {}
        #: relay id -> LiveRelayServer (mesh scenarios; relay_kill target)
        self.relays: dict[str, object] = {}
        #: relay ids already down when the workload ended (vs. stopped by
        #: shutdown itself) — the survivor-agreement check reads this
        self.down_at_shutdown: list[str] = []
        #: node tag -> arbitrary endpoint object (report/debug material)
        self.nodes: dict[str, object] = {}
        #: streaming telemetry (populated by :meth:`enable_telemetry`)
        self.telemetry = None
        self.telemetry_log = None
        self.telemetry_publishers: list = []
        self._tasks: list[asyncio.Task] = []
        self._closers: list[Callable[[], None]] = []

    # -- builder surface ---------------------------------------------------
    async def add_proxy(self, site: str, target) -> ChaosTcpProxy:
        """Interpose a chaos gateway in front of ``target`` for ``site``."""
        proxy = ChaosTcpProxy(
            target, name=f"gw-{site}", seed=self.seed
        )
        await proxy.start()
        self.proxies[site] = proxy
        return proxy

    def spawn(self, coro, name: str) -> asyncio.Task:
        """Track a top-level workload task (awaited against the deadline)."""
        task = asyncio.ensure_future(coro)
        try:
            task.set_name(name)
        except AttributeError:  # pragma: no cover - very old asyncio
            pass
        self._tasks.append(task)
        return task

    def add_closer(self, fn: Callable[[], None]) -> None:
        """Register teardown (listeners, links) run by :meth:`shutdown`."""
        self._closers.append(fn)

    def enable_telemetry(
        self, interval: float = 0.1, window: float = 1.0, sources=None
    ):
        """Start telemetry publishers for named metric selections.

        ``sources`` maps source name -> ``select(name, labels)``
        predicate over the scoped registry (default: one ``proxies``
        source streaming the ``proxy.*`` byte ledger).  Publishers run
        as their own asyncio tasks — *not* workload tasks, so
        :meth:`wait` never blocks on them — ticking on wall time with
        record timestamps in :class:`LiveClock` seconds, and are stopped
        (with a final flush) first thing in :meth:`shutdown`.
        """
        registry = obs.get_registry()
        self.telemetry = obs.TelemetryAggregator(window=window)
        self.telemetry_log = obs.TelemetryLog()
        if sources is None:
            sources = {
                "proxies": lambda name, labels: name.startswith("proxy.")
            }
        for source, select in sorted(sources.items()):
            pub = obs.TelemetryPublisher(
                registry,
                source,
                interval=interval,
                clock=lambda: self.sim.now,
                select=select,
            )
            pub.add_sink(self.telemetry_log)
            pub.add_sink(self.telemetry.ingest)
            pub.start_async()
            self.telemetry_publishers.append(pub)
        return self.telemetry

    # -- fault attach point ------------------------------------------------
    def chaos_proxy(self, site: str) -> ChaosTcpProxy:
        try:
            return self.proxies[site]
        except KeyError:
            raise ValueError(
                f"scenario has no chaos proxy for site {site!r}; "
                f"have {sorted(self.proxies)}"
            ) from None

    # -- runner surface ----------------------------------------------------
    async def wait(self, deadline: float) -> list[str]:
        """Await every workload task; returns deadline violations."""
        if not self._tasks:
            return []
        done, pending = await asyncio.wait(self._tasks, timeout=deadline)
        out = []
        for task in pending:
            task.cancel()
            out.append(
                f"deadline: task {task.get_name()} still running after "
                f"{deadline:.1f}s"
            )
        return out

    def shutdown(self) -> None:
        # Publishers first (cancelling their tasks, flushing one final
        # delta) so the capture ends on the workload's true final state.
        for pub in self.telemetry_publishers:
            pub.stop(flush=True)
        self.sim.cancel_all()
        # Which relays the *faults* killed (and never restarted), recorded
        # before teardown stops the rest.
        self.down_at_shutdown = sorted(
            rid for rid, server in self.relays.items() if not server.running
        )
        for task in self._tasks:
            task.cancel()
        for fn in self._closers:
            try:
                fn()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
        for server in self.relays.values():
            server.stop()
        for proxy in self.proxies.values():
            proxy.close()

    def chaos_stats(self) -> dict:
        stats: dict = {}
        for site, proxy in sorted(self.proxies.items()):
            for key, value in proxy.stats.as_dict().items():
                stats[f"proxy.{site}.{key}"] = value
        for rid, server in sorted(self.relays.items()):
            stats[f"relay.{rid}.forwarded"] = server.forwarded_messages
            stats[f"relay.{rid}.trunk_tx"] = server.trunk_tx
            stats[f"relay.{rid}.trunk_rx"] = server.trunk_rx
        if self.relays:
            stats["mesh_deaths"] = sum(
                len(server.mesh.deaths)
                for server in self.relays.values()
                if server.mesh is not None
            )
        if self.telemetry_log is not None:
            stats["telemetry_records"] = len(self.telemetry_log)
            stats["telemetry_breaches"] = len(self.telemetry.breaches)
        return stats


# -- the live wan_transfer workload --------------------------------------------


@live_scenario("wan_transfer")
async def _build_live_wan_transfer(
    seed: int, retries: bool, sessions: bool
) -> Workload:
    """Two paced staged transfers through a chaos gateway, on real sockets.

    The live twin of the sim ``wan_transfer``: alice streams two seeded
    payload stages to bob, every byte crossing the site-B gateway — here
    the in-process :class:`ChaosTcpProxy` standing where the sim puts
    B's NAT+firewall campus gateway.  The sender paces its writes so a
    fault scheduled a few hundred milliseconds in lands *mid-stream*.
    With ``sessions`` each stage runs over an :class:`AsyncSessionLink`
    (replay buffer + cumulative acks + reconnect-through-the-gateway),
    so a ``conn_kill`` mid-transfer is survived; without it the RST
    kills the stage and the delivery audit reports the loss.
    """
    scn = LiveChaosScenario(seed)
    wl = Workload(scn)

    listener = await live_listen()
    scn.add_closer(listener.close)
    proxy = await scn.add_proxy("B", listener.addr)

    slistener = None
    if sessions:
        slistener = AsyncSessionListener(listener, node="bob")
        scn.add_closer(slistener.close)

    payloads = [
        random.Random(f"{seed}:chaos:stage{i}").randbytes(_LIVE_STAGE_BYTES)
        for i in range(_LIVE_STAGES)
    ]
    audits = [wl.audit(f"stage{i}") for i in range(_LIVE_STAGES)]
    scn.nodes["alice"] = scn.nodes["bob"] = None

    async def dial():
        return await live_connect(proxy.addr)

    async def send_stage(i: int, payload: bytes, audit) -> None:
        ctx = TraceContext.new()
        t0 = time.time()
        try:
            if sessions:
                link = await AsyncSessionLink.connect(dial, node="alice", ctx=ctx)
                for off in range(0, len(payload), _WRITE_CHUNK):
                    chunk = payload[off : off + _WRITE_CHUNK]
                    await link.send_all(chunk)
                    audit.record_sent(chunk)
                    await asyncio.sleep(_LIVE_PACE)
                await link.aclose()
            else:
                sock = await dial()
                for off in range(0, len(payload), _WRITE_CHUNK):
                    chunk = payload[off : off + _WRITE_CHUNK]
                    await sock.send_all(chunk)
                    audit.record_sent(chunk)
                    await asyncio.sleep(_LIVE_PACE)
                sock.write_eof()
                # barrier: the receiver closes once it has read EOF, so a
                # clean peer close is the closest thing to an app-level ack
                await asyncio.wait_for(sock.recv(1), timeout=10.0)
                sock.close()
            audit.finish_sender()
        except BaseException:
            obs.record_span(
                "chaos.stage", t0, time.time(), ctx=ctx, node="alice",
                stage=f"stage{i}", outcome="error", backend="live",
            )
            raise
        obs.record_span(
            "chaos.stage", t0, time.time(), ctx=ctx, node="alice",
            stage=f"stage{i}", bytes=len(payload), backend="live",
        )

    async def run_sender() -> None:
        try:
            for i, (payload, audit) in enumerate(zip(payloads, audits)):
                await send_stage(i, payload, audit)
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("sender", exc)

    async def receive_stage(audit) -> None:
        if sessions:
            link = await slistener.accept()
            while True:
                data = await link.recv(_READ_CHUNK)
                if not data:
                    break
                audit.record_received(data)
            audit.finish_receiver()
            await link.aclose()
        else:
            sock = await listener.accept()
            while True:
                data = await sock.recv(_READ_CHUNK)
                if not data:
                    break
                audit.record_received(data)
            audit.finish_receiver()
            sock.close()

    async def run_receiver() -> None:
        try:
            for audit in audits:
                await receive_stage(audit)
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("receiver", exc)

    scn.spawn(run_sender(), "chaos-sender")
    scn.spawn(run_receiver(), "chaos-receiver")
    return wl


# -- the live mesh_failover workload -------------------------------------------


def _live_mesh_checks(wl: Workload, cfg: MeshConfig) -> None:
    """Live twins of the sim mesh invariants, with wall-clock slack.

    * every death record on every surviving relay stays within the
      configured detection bound plus :data:`_LIVE_DETECT_SLACK`;
    * every relay a fault killed (and no heal restarted) is declared
      dead in every surviving relay's final view.
    """
    scn = wl.scenario

    def check() -> list:
        out = []
        bound = cfg.detect_bound + _LIVE_DETECT_SLACK
        killed = set(scn.down_at_shutdown)
        for rid in sorted(scn.relays):
            server = scn.relays[rid]
            if server.mesh is None:
                continue
            for dead_id, last_heard, detected in server.mesh.deaths:
                lag = detected - last_heard
                if lag > bound:
                    out.append(
                        f"mesh: {rid} declared {dead_id} dead {lag:.3f}s "
                        f"after its last heartbeat (bound {bound:.3f}s "
                        f"incl. {_LIVE_DETECT_SLACK:.1f}s wall slack)"
                    )
            if rid in killed:
                continue
            for dead_rid in sorted(killed):
                if dead_rid != rid and dead_rid not in server.mesh.dead:
                    out.append(
                        f"mesh: survivor {rid} never declared killed "
                        f"relay {dead_rid} dead"
                    )
        return out

    wl.post_checks.append(check)


@live_scenario("mesh_failover")
async def _build_live_mesh_failover(
    seed: int, retries: bool, sessions: bool
) -> Workload:
    """One mesh-routed transfer across three real relay processes.

    The live twin of the sim ``mesh_failover``: three
    :class:`LiveRelayServer` mesh members gossiping over real sockets,
    both endpoints holding registrations with all of them, and one paced
    seeded payload pinned to relay-routed links.  A ``relay_kill`` on
    the carrying relay EOFs the routed stream mid-transfer; with
    ``sessions`` the replay window re-dials through the
    :class:`LiveMeshRelayClient` route table, lands on a survivor, and
    RESUMEs with zero loss — without sessions the same kill is fatal and
    the delivery audit reports the hole.  A converge task holds the run
    open until the survivors have declared the killed relays dead, so
    the bounded-detection and survivor-agreement post-checks measure the
    real gossip, not the teardown.
    """
    scn = LiveChaosScenario(seed)
    wl = Workload(scn)
    cfg = _live_mesh_config()

    addrs: dict[str, tuple] = {}
    for rid in _LIVE_MESH_RELAYS:
        server = LiveRelayServer(name=rid)
        await server.start()
        scn.relays[rid] = server
        addrs[rid] = ("127.0.0.1", server.port)
    for rid, server in scn.relays.items():
        peers = {pid: addr for pid, addr in addrs.items() if pid != rid}
        server.enable_mesh(
            rid, peers, seed=seed, config=cfg, clock=lambda: scn.sim.now
        )

    alice = LiveMeshRelayClient("alice", addrs, seed=seed, config=cfg)
    bob = LiveMeshRelayClient("bob", addrs, seed=seed, config=cfg)
    await alice.connect()
    await bob.connect()
    scn.add_closer(alice.close)
    scn.add_closer(bob.close)
    scn.nodes["alice"] = alice
    scn.nodes["bob"] = bob

    slistener = None
    if sessions:
        slistener = AsyncSessionListener(bob.link_listener(), node="bob")
        scn.add_closer(slistener.close)

    payload = random.Random(f"{seed}:chaos:mesh").randbytes(_LIVE_MESH_BYTES)
    audit = wl.audit("mesh")

    async def dial():
        return await alice.open_link("bob", payload=b"session")

    async def run_sender() -> None:
        ctx = TraceContext.new()
        t0 = time.time()
        try:
            if sessions:
                link = await AsyncSessionLink.connect(
                    dial, node="alice", ctx=ctx
                )
                for off in range(0, len(payload), _WRITE_CHUNK):
                    chunk = payload[off : off + _WRITE_CHUNK]
                    await link.send_all(chunk)
                    audit.record_sent(chunk)
                    await asyncio.sleep(_LIVE_PACE)
                await link.aclose()
            else:
                link = await alice.open_link("bob")
                for off in range(0, len(payload), _WRITE_CHUNK):
                    chunk = payload[off : off + _WRITE_CHUNK]
                    await link.send_all(chunk)
                    audit.record_sent(chunk)
                    await asyncio.sleep(_LIVE_PACE)
                link.close()
            audit.finish_sender()
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            obs.record_span(
                "chaos.stage", t0, time.time(), ctx=ctx, node="alice",
                stage="mesh", outcome="error", backend="live",
            )
            wl.fail("sender", exc)
            return
        obs.record_span(
            "chaos.stage", t0, time.time(), ctx=ctx, node="alice",
            stage="mesh", bytes=len(payload), backend="live",
        )

    async def run_receiver() -> None:
        try:
            if sessions:
                link = await slistener.accept()
                while True:
                    data = await link.recv(_READ_CHUNK)
                    if not data:
                        break
                    audit.record_received(data)
                audit.finish_receiver()
                await link.aclose()
            else:
                link = await bob.accept_link()
                while True:
                    data = await link.recv(_READ_CHUNK)
                    if not data:
                        break
                    audit.record_received(data)
                audit.finish_receiver()
                link.close()
        except BaseException as exc:  # noqa: BLE001 - reported as a violation
            wl.fail("receiver", exc)

    data_tasks = [
        scn.spawn(run_sender(), "mesh-sender"),
        scn.spawn(run_receiver(), "mesh-receiver"),
    ]

    async def run_converge() -> None:
        # Hold the run open (bounded) until every survivor has declared
        # every killed relay dead; the post-check then judges the result.
        await asyncio.gather(*data_tasks, return_exceptions=True)
        give_up = scn.sim.now + cfg.detect_bound + _LIVE_DETECT_SLACK + 1.0
        while scn.sim.now < give_up:
            down = {r for r, s in scn.relays.items() if not s.running}
            if all(
                down - {rid} <= set(server.mesh.dead)
                for rid, server in scn.relays.items()
                if server.running and server.mesh is not None
            ):
                return
            await asyncio.sleep(0.05)

    scn.spawn(run_converge(), "mesh-converge")
    _live_mesh_checks(wl, cfg)
    return wl


# -- the runner ----------------------------------------------------------------


def _live_invariants(
    scn: LiveChaosScenario,
    wl: Workload,
    registry: MetricsRegistry,
    recorder: TraceRecorder,
    leaked: list,
) -> list[str]:
    violations = [f"process: {e}" for e in wl.errors]
    for audit in wl.audits:
        violations.extend(audit.violations())
    for site, proxy in sorted(scn.proxies.items()):
        if not proxy.stats.conserved():
            s = proxy.stats
            violations.append(
                f"resources: proxy {site} byte accounting broken: "
                f"{s.bytes_in} in != {s.bytes_forwarded} forwarded + "
                f"{s.bytes_dropped} dropped + {s.bytes_lost} lost"
            )
    if leaked:
        violations.append(
            f"resources: {len(leaked)} tasks still running after teardown: "
            + ", ".join(leaked)
        )
    violations.extend(_mux_violations(registry))
    violations.extend(obs_consistency_violations(registry, recorder))
    return violations


async def _run_live(
    sdef, seed: int, parsed: FaultPlan, retries: bool, sessions: bool,
    deadline: float,
) -> tuple:
    wl = await sdef.build_live(seed, retries, sessions)
    scn = wl.scenario
    scheduler = FaultScheduler(scn, parsed)
    scheduler.arm()
    deadline_errors = await scn.wait(deadline)
    wl.errors.extend(deadline_errors)
    await asyncio.sleep(SETTLE_SECONDS)
    scn.shutdown()
    await asyncio.sleep(SETTLE_SECONDS)
    me = asyncio.current_task()
    leaked = sorted(
        t.get_name() for t in asyncio.all_tasks()
        if t is not me and not t.done()
    )
    return wl, scn, scheduler, leaked


def run_live_chaos(
    scenario: str = "wan_transfer",
    seed: int = 1,
    plan: Union[str, FaultPlan] = "",
    retries: bool = True,
    sessions: bool = False,
    until: float = 30.0,
    trace_path: Optional[str] = None,
    export_dir: Optional[str] = None,
    bundle_dir: Optional[str] = None,
    telemetry_path: Optional[str] = None,
) -> ChaosReport:
    """Run a live chaos scenario; returns the usual :class:`ChaosReport`.

    Semantics mirror :func:`~repro.chaos.runner.run_chaos` with
    ``backend="sim"`` — scoped obs, seeded ids, audits, invariants,
    optional trace export and failure bundles — except that the workload
    runs on real sockets under wall-clock fault scheduling, and ``until``
    is a wall-clock deadline (capped at ``LIVE_DEADLINE_CAP``).
    """
    sdef = get_scenario(scenario)
    parsed = plan if isinstance(plan, FaultPlan) else FaultPlan.parse(plan)
    require_backend(parsed, "live")
    deadline = min(float(until), LIVE_DEADLINE_CAP)

    registry = MetricsRegistry()
    recorder = TraceRecorder()
    prev_registry = obs.set_registry(registry)
    prev_recorder = obs.set_tracer(recorder)
    seed_ids(seed)
    try:
        t0 = time.monotonic()
        wl, scn, scheduler, leaked = asyncio.run(
            _run_live(sdef, seed, parsed, retries, sessions, deadline)
        )
        wall = time.monotonic() - t0

        violations = _live_invariants(scn, wl, registry, recorder, leaked)
        for check in wl.post_checks:
            violations.extend(check())
        if len(scheduler.injected) != len(parsed):
            violations.append(
                f"chaos: only {len(scheduler.injected)}/{len(parsed)} "
                "faults fired before the deadline"
            )
        if scn.telemetry_log is not None:
            violations.extend(
                obs.telemetry_violations(scn.telemetry_log.records)
            )
            if telemetry_path is not None:
                scn.telemetry_log.write_jsonl(telemetry_path)
        elif telemetry_path is not None:
            obs.write_telemetry_jsonl(telemetry_path, [])
        stats = dict(scn.chaos_stats())
        stats.update(wl.stats)
        stats.update(
            {
                "wall_seconds": round(wall, 3),
                "session_reconnects": sum(
                    c.value
                    for c in registry.instruments("session.reconnects_total")
                ),
                "session_replayed_bytes": sum(
                    c.value
                    for c in registry.instruments("session.replayed_bytes_total")
                ),
                "trace_records": len(recorder.records),
            }
        )
        report = ChaosReport(
            scenario=scenario,
            seed=seed,
            plan=parsed.spec(),
            retries=retries,
            sessions=sessions,
            fidelity="live",
            backend="live",
            ok=not violations,
            violations=sorted(violations),
            injected=list(scheduler.injected),
            healed=list(scheduler.healed),
            channels=[a.summary() for a in wl.audits],
            errors=list(wl.errors),
            stats=stats,
        )
        if trace_path is not None:
            obs.export_jsonl(trace_path, registry=registry, recorder=recorder)
        if export_dir is not None:
            os.makedirs(export_dir, exist_ok=True)
            obs.export_jsonl(
                os.path.join(export_dir, "run.jsonl"),
                registry=registry,
                recorder=recorder,
            )
        if bundle_dir is not None and not report.ok:
            _write_live_bundle(bundle_dir, report, registry, recorder)
        return report
    finally:
        obs.set_registry(prev_registry)
        obs.set_tracer(prev_recorder)


def _write_live_bundle(
    bundle_dir: str,
    report: ChaosReport,
    registry: MetricsRegistry,
    recorder: TraceRecorder,
) -> str:
    """Postmortem bundle for a failed live run; returns its directory."""
    root = os.path.join(
        bundle_dir, f"{report.scenario}-live-seed{report.seed}"
    )
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "report.json"), "w", encoding="utf-8") as out:
        out.write(report.to_json() + "\n")
    obs.export_jsonl(
        os.path.join(root, "metrics.jsonl"), registry=registry, recorder=recorder
    )
    assembled = assemble(list(recorder.records))
    with open(os.path.join(root, "trace.json"), "w", encoding="utf-8") as out:
        json.dump(assembled, out, indent=2, sort_keys=True)
        out.write("\n")
    with open(os.path.join(root, "trace.txt"), "w", encoding="utf-8") as out:
        out.write(render_text(assembled) + "\n")
    manifest = {
        "scenario": report.scenario,
        "backend": "live",
        "seed": report.seed,
        "plan": report.plan,
        "retries": report.retries,
        "sessions": report.sessions,
        "violations": report.violations,
        "injected": report.injected,
        "healed": report.healed,
        "traces": [t["trace_id"] for t in assembled["traces"]],
        "files": ["report.json", "metrics.jsonl", "trace.json", "trace.txt"],
    }
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as out:
        json.dump(manifest, out, indent=2, sort_keys=True)
        out.write("\n")
    return root


def main(argv=None) -> int:  # pragma: no cover - thin CLI shim
    from .goldens import main as goldens_main

    return goldens_main(argv)
