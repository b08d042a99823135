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

A scenario that runs here is the *same builder* the simulator runs, handed
a :class:`LiveChaosScenario` instead of a ``GridScenario`` (``tune_window``
is the one builder that runs here only); three pieces make that work:

* :class:`LiveClock` — the minimal ``sim``-shaped clock surface
  (``now`` / ``call_at`` / ``call_later``) over the asyncio event loop,
  so the unmodified :class:`~repro.chaos.faults.FaultScheduler` arms a
  plan against wall time exactly the way it arms one against simulated
  time.
* :class:`LiveChaosScenario` — the builder surface of ``GridScenario``
  on real sockets: a site is a :class:`~repro.livenet.proxy.ChaosTcpProxy`
  gateway (``chaos_proxy(site)`` is the attach point the live fault
  kinds use), a node a :class:`~repro.livenet.runtime.LiveNode` that
  advertises its gateway as its one port, plus relays, telemetry and the
  workload tasks.
* :func:`drive_live` — the live drive: ``asyncio.run``, the workload
  deadline, settle, the leaked-task probe and the live invariants (proxy
  byte conservation among them); ``run_chaos``'s shared post-run path
  makes the familiar :class:`~repro.chaos.runner.ChaosReport`.

Determinism caveat: payloads, ids and fault schedules are seeded, but
wall-clock timing is not simulated time — live reports are *replayable*
(same triple, same polarity) without being byte-identical.
"""

from __future__ import annotations

if __name__ == "__main__":  # pragma: no cover - CLI entry
    # ``python -m repro.chaos.live`` executes this file as a *second*
    # copy of the module named ``__main__``.  Dispatch to the CLI before
    # this copy defines classes the canonical import (which the goldens
    # module makes) defines again.
    import sys

    from repro.chaos.goldens import main as _cli_main

    sys.exit(_cli_main(None))

import asyncio
import time
from typing import Callable, Optional

from ..core.runtime import ASYNCIO
from ..core.scenarios import GridScenario
from ..livenet.proxy import ChaosTcpProxy
from ..livenet.relay import LiveRelayServer
from ..livenet.runtime import LiveNode
from ..mesh.config import DEFAULT_MESH_CONFIG
from ..obs import MetricsRegistry, TraceRecorder
from .faults import FaultPlan, FaultScheduler
from .invariants import _mux_violations, obs_consistency_violations
from .runner import Workload

__all__ = [
    "LiveClock",
    "LiveChaosScenario",
]

#: hard cap on a live run's wall-clock deadline — ``run_chaos`` defaults
#: ``until`` to 900 *simulated* seconds, which would be an absurd hang
#: allowance on real sockets
LIVE_DEADLINE_CAP = 120.0

#: settle window after the workload finishes / is cancelled, before the
#: leaked-task probe runs (cancellation needs event-loop cycles)
SETTLE_SECONDS = 0.1

#: how long past the detection bound a mesh run is held open for the
#: survivors to declare the killed relays dead
_CONVERGE_SLACK = 2.0


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


async def _task(steps):
    """Root of a scenario task.  A task cancelled before its first step
    never awaits ``steps``, so :func:`_start` closes ``steps`` once the
    task is done: unrun, not unawaited."""
    return await steps


def _start(steps, name: str) -> asyncio.Task:
    task = ASYNCIO.spawn(_task(steps), name)
    task.add_done_callback(lambda _task: steps.close())
    return task


class LiveChaosScenario:
    """The live stand-in for ``GridScenario``: the same builder surface
    (``add_site`` / ``add_node`` / ``add_relay`` / ``enable_mesh`` /
    ``enable_telemetry`` / ``spawn``) over real sockets.

    A site is a :class:`~repro.livenet.proxy.ChaosTcpProxy` gateway — the
    attach point of the live fault kinds — whatever ``kind`` and access
    link the simulated one would have.  A node is a
    :class:`~repro.livenet.runtime.LiveNode` that advertises its site's
    gateway as its one port, the way a firewall port-forward does; a site
    holds one node.  The builder only declares: :meth:`start` brings the
    relays, gateways and node ports up, then the workload tasks.
    """

    runtime = ASYNCIO
    enable_telemetry = GridScenario.enable_telemetry
    mesh_deaths = GridScenario.mesh_deaths

    def __init__(self, seed: int):
        self.seed = seed
        self.sim = LiveClock()
        #: site name -> the gateway proxy the live fault kinds drive
        self.proxies: dict[str, ChaosTcpProxy] = {}
        #: relay id -> LiveRelayServer ("r1" always; relay_kill target),
        #: each named as ``GridScenario`` names its relay hosts
        self.relays: dict[str, LiveRelayServer] = {"r1": LiveRelayServer()}
        self.mesh_enabled = False
        self.mesh_config = None
        self._topology = None
        #: relay ids already down when the workload ended (vs. stopped by
        #: shutdown itself) — the survivor-agreement check reads this
        self.down_at_shutdown: list[str] = []
        #: node id -> LiveNode
        self.nodes: dict[str, LiveNode] = {}
        #: site name -> its node
        self._sites: dict[str, Optional[LiveNode]] = {}
        #: streaming telemetry (populated by :meth:`enable_telemetry`)
        self.telemetry = None
        self.telemetry_log = None
        self.telemetry_publishers: list = []
        self._started = False
        self._pending: list = []
        self._tasks: list[asyncio.Task] = []
        self._background: list[asyncio.Task] = []

    # -- builder surface ---------------------------------------------------
    def add_site(self, name: str, kind: str = "open", **_access) -> None:
        """Declare site ``name``: a gateway in front of its one node."""
        self._sites[name] = None

    def add_relay(self, relay_id: str, **_access) -> LiveRelayServer:
        if relay_id in self.relays:
            raise ValueError(f"duplicate relay id {relay_id!r}")
        server = self.relays[relay_id] = LiveRelayServer(name=f"relay-{relay_id}")
        return server

    def enable_mesh(self, topology=None, config=None) -> None:
        """Gossip between the relays once they are up (``None``: full mesh)."""
        self.mesh_enabled = True
        self.mesh_config = config
        self._topology = topology

    def add_node(self, site_name: str, node_id: str, auto_reconnect: bool = False,
                 relays=None) -> LiveNode:
        """A node behind site ``site_name``'s gateway.  ``relays`` pins it
        as ``GridScenario.add_node`` does: the primary relay by default,
        ``"all"`` or a list of relay ids for a mesh client."""
        if self._sites[site_name] is not None:
            raise ValueError(f"live site {site_name!r} already has a node")
        relay_addr = None  # the relays' addresses are known at start()
        if relays is not None:
            relay_addr = dict.fromkeys(sorted(self.relays) if relays == "all" else relays)
        node = LiveNode(node_id, relay_addr, auto_reconnect=auto_reconnect,
                        mesh_seed=self.seed, mesh_config=self.mesh_config)
        self._sites[site_name] = self.nodes[node_id] = node
        return node

    def spawn(self, steps, name: str) -> None:
        """A workload task, awaited against the deadline; it starts with
        the scenario."""
        if not self._started:
            self._pending.append((steps, name))
            return
        self._tasks.append(_start(steps, name))

    def _spawn_publisher(self, steps, name: str) -> None:
        self._background.append(_start(steps, name))

    async def start(self) -> None:
        """Relays (and their gossip), gateways and node ports, then the
        workload tasks spawned so far."""
        for server in self.relays.values():
            await server.start()
        addrs = {rid: server.addr for rid, server in sorted(self.relays.items())}
        if self.mesh_enabled:
            for rid, server in sorted(self.relays.items()):
                peer_ids = (set(addrs) - {rid} if self._topology is None
                            else self._topology.get(rid, ()))
                server.enable_mesh(
                    rid, {p: addrs[p] for p in sorted(peer_ids)}, seed=self.seed,
                    config=self.mesh_config, clock=lambda: self.sim.now,
                )
        for site, node in sorted(self._sites.items()):
            if node is None:
                continue
            client = node.relay_client
            for rid, sub in getattr(client, "clients", {"r1": client}).items():
                sub.relay_addr = addrs[rid]
            proxy = self.proxies[site] = ChaosTcpProxy(
                await node.listen(), name=f"gw-{site}", seed=self.seed)
            await proxy.start()
            node.advertise(proxy.addr)
        self._started = True
        for steps, name in self._pending:
            self.spawn(steps, name)
        self._pending.clear()

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
        """Await every workload task; returns deadline violations.

        A mesh run is then held open (bounded) until every surviving
        relay has declared every stopped one dead: a simulated run gets
        that from running on to ``until``."""
        end = self.sim.now + deadline
        out = []
        # a task may spawn more (a hub, one reader per accepted stream)
        while running := [t for t in self._tasks if not t.done()]:
            if self.sim.now >= end:
                for task in running:
                    task.cancel()
                    out.append(
                        f"deadline: task {task.get_name()} still running "
                        f"after {deadline:.1f}s"
                    )
                break
            await asyncio.wait(running, timeout=end - self.sim.now)
        if self.mesh_enabled:
            cfg = self.mesh_config or DEFAULT_MESH_CONFIG
            give_up = self.sim.now + cfg.detect_bound + _CONVERGE_SLACK
            while self.sim.now < give_up and not self._converged():
                await asyncio.sleep(0.05)
        return out

    def _converged(self) -> bool:
        down = {rid for rid, server in self.relays.items() if not server.running}
        return all(
            down - {rid} <= set(server.mesh.dead)
            for rid, server in self.relays.items()
            if server.running and server.mesh is not None
        )

    def shutdown(self) -> None:
        # Publishers first (with a final flush) so the capture ends on the
        # workload's true final state.
        for pub in self.telemetry_publishers:
            pub.stop(flush=True)
        for task in self._background:
            task.cancel()
        self.sim.cancel_all()
        # Which relays the *faults* killed (and never restarted), recorded
        # before teardown stops the rest.
        self.down_at_shutdown = sorted(
            rid for rid, server in self.relays.items() if not server.running
        )
        for task in self._tasks:
            task.cancel()
        for node in self.nodes.values():
            node.stop()
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
        if self.mesh_enabled:
            stats["mesh_deaths"] = len(self.mesh_deaths())
        if self.telemetry_log is not None:
            stats["telemetry_records"] = len(self.telemetry_log)
            stats["telemetry_breaches"] = len(self.telemetry.breaches)
        return stats


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


async def _drive(sdef, seed: int, parsed: FaultPlan, retries: bool,
                 sessions: bool, deadline: float) -> tuple:
    wl = sdef.build(seed, retries, sessions, "live")
    scn = wl.scenario
    await scn.start()
    scheduler = FaultScheduler(scn, parsed)
    scheduler.arm()
    wl.errors.extend(await scn.wait(deadline))
    await asyncio.sleep(SETTLE_SECONDS)
    scn.shutdown()
    await asyncio.sleep(SETTLE_SECONDS)
    me = asyncio.current_task()
    leaked = sorted(
        t.get_name() for t in asyncio.all_tasks()
        if t is not me and not t.done()
    )
    return wl, scheduler, leaked


def drive_live(sdef, seed: int, plan: FaultPlan, retries: bool,
               sessions: bool, until: float,
               registry: MetricsRegistry, recorder: TraceRecorder) -> tuple:
    """The live drive for :func:`~repro.chaos.runner.run_chaos`: the
    workload on real sockets under wall-clock fault scheduling, ``until``
    a wall-clock deadline (capped at ``LIVE_DEADLINE_CAP``), then the
    live invariants.  Returns ``(workload, scheduler, violations, clock)``."""
    deadline = min(float(until), LIVE_DEADLINE_CAP)
    t0 = time.monotonic()
    wl, scheduler, leaked = asyncio.run(
        _drive(sdef, seed, plan, retries, sessions, deadline)
    )
    wall = time.monotonic() - t0
    violations = _live_invariants(wl.scenario, wl, registry, recorder, leaked)
    return wl, scheduler, violations, {"wall_seconds": round(wall, 3)}

