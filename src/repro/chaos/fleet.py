"""Fleet-scale fan-in workload on the flow-level simulation tier.

The packet-tier chaos scenarios top out around tens of endpoints — every
byte crosses a simulated TCP state machine.  This module exercises the
other end of the design space: **100k+ endpoints** streaming results into
one collection hub, built on :class:`~repro.simnet.flow.FlowNetwork`
fluid flows instead of sockets.  The point of the exercise is that the
*harness* does not change: :func:`~repro.chaos.runner.run_chaos` drives
the same fault plans, teardown, drain and invariant suite against
:class:`FleetScenario` that it drives against
:class:`~repro.core.scenarios.GridScenario`, because both expose the
same duck-typed scenario surface (``sim``, ``backend``, ``relay``,
``site_wan_link(...)``, ``shutdown()``, ``chaos_stats()``).

Workload shape
--------------
Endpoints fan in over a two-level tree (endpoint uplinks -> core ->
hub) in arrival *waves*; each wave's flows draw from a small set of
quantized size classes.  Waves and size classes are not just flavour:
they bound the number of distinct completion instants, which bounds the
number of rate re-solves, which is what keeps a 100k-flow run inside a
tens-of-resolves budget (see ``FlowNetwork.stats()["resolves"]``).

An endpoint is a row of the network's columns — its name, a host row and
two pipe rows — not objects of its own: a wave reads its endpoints' names
by row, and :meth:`FleetScenario.site_wan_link` hands out a
:class:`~repro.simnet.flow.FlowLink` view, equal (``==``, not ``is``) to
every other view of the same link.

Invariant accounting
--------------------
The generic invariant suite reads obs counters, so the fleet emits the
instruments the real stack emits where the flow tier has the thing they
count:

* ``relay.forwarded_bytes_total`` — incremented at each flow completion
  in lock-step with ``hub.forwarded_bytes``.
* ``session.reconnects_total{role=initiator}`` + one ``fleet.heal``
  span with ``resumed=N`` — when a ``link_down`` fault on the hub
  partitions the fleet and then heals, the N flows that stalled
  mid-stream count as N reconnects, incremented at once, and the heal is
  recorded once, carrying N (only with ``sessions=True``; without the
  session layer nothing resumes and both sides of the invariant stay
  zero).  The heal counts the stalled flows without making a record or
  an object for any of them: the span and the counter cost the same at
  100 endpoints as at 100 000.  The reconnects go to one counter
  labelled ``role`` alone, as a session core labels its own.  The
  invariant suite adds each heal's ``resumed`` to the ok
  ``session.resume`` spans that the packet tier records one per session.

The flow tier has no mux, so a fleet run writes no ``mux.*`` counters.
What a per-channel mux ledger would check here — each endpoint's
transfer delivered once, neither lost nor repeated — is checked directly
instead: :meth:`FleetScenario.completion_violations` reads a tally with
one byte per endpoint, counted at each completion, and names every
endpoint's channel whose count is not exactly one.

Scale knobs (the registry's builder signature is fixed) come from the
environment: ``REPRO_FLEET_ENDPOINTS`` (default 2000) and
``REPRO_FLEET_WAVES`` (default 10).  ``make smoke-flow`` runs the
100k-endpoint configuration and asserts wall-clock.
"""

from __future__ import annotations

import os
import random
from typing import Optional

from .. import obs
from ..obs import TraceContext
from ..obs.flight import FlightRecorder
from ..simnet.flow import FlowNetwork, FluidFlow
from .registry import scenario
from .runner import Workload

__all__ = ["FleetHub", "FleetScenario"]

#: hub uplink: 10 Gbit/s collection-side capacity
HUB_BANDWIDTH = 1_250_000_000.0
HUB_DELAY = 0.002
#: endpoint uplinks: 16 Mbit/s access, 10 ms one-way
ENDPOINT_BANDWIDTH = 2_000_000.0
ENDPOINT_DELAY = 0.010
#: quantized result sizes — few distinct classes keep re-solves bounded
SIZE_CLASSES = (128 * 1024, 256 * 1024, 384 * 1024, 512 * 1024)
#: seconds between arrival waves
WAVE_GAP = 5.0

DEFAULT_ENDPOINTS = 2000
DEFAULT_WAVES = 10


def _env_int(name: str, default: int) -> int:
    try:
        return max(1, int(os.environ.get(name, "")))
    except ValueError:
        return default


class FleetHub:
    """Relay-shaped accounting object for the collection hub.

    Quacks like :class:`~repro.core.relay.RelayServer` where the chaos
    harness touches it: byte/message accounting for the obs invariant,
    a flight recorder for exports/postmortems, ``stop``/``start`` for
    teardown and the ``relay_crash`` fault, and an (always empty)
    ``sessions`` table.
    """

    def __init__(self, clock):
        self.forwarded_bytes = 0
        self.forwarded_messages = 0
        self.sessions: dict = {}
        self.running = True
        self.flight = FlightRecorder("relay", clock=clock)

    def stop(self) -> None:
        self.running = False

    def start(self) -> None:
        self.running = True


class FleetScenario:
    """N endpoints fanning into one hub on the flow tier.

    Exposes the chaos scenario protocol, so ``run_chaos`` and
    ``check_invariants`` treat it exactly like a ``GridScenario``:
    ``link_down@t:site=hub,for=d`` cuts the hub's WAN uplink (a fleet
    partition), ``site=<endpoint>`` cuts a single endpoint's access
    link; ``loss_burst`` raises a link's loss for the flows started
    during it.  ``wan_degrade`` is refused: a fluid link has no queue.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        endpoints: Optional[int] = None,
        waves: Optional[int] = None,
        sessions: bool = False,
    ):
        self.seed = seed
        self.endpoints = (
            _env_int("REPRO_FLEET_ENDPOINTS", DEFAULT_ENDPOINTS)
            if endpoints is None
            else endpoints
        )
        self.waves = (
            _env_int("REPRO_FLEET_WAVES", DEFAULT_WAVES)
            if waves is None
            else waves
        )
        self.waves = min(self.waves, self.endpoints)
        self.sessions = sessions

        self.backend = self.net = FlowNetwork(seed=seed)
        self.sim = self.net.sim
        obs.use_sim_clock(self.sim)

        self.relay = FleetHub(clock=lambda: self.sim.now)
        self.nodes: dict = {}
        self.proxies: dict = {}

        # two-level tree: endpoints and the hub both hang off the core
        self.net.add_host("core")
        self.net.add_host(
            "hub", "core", bandwidth=HUB_BANDWIDTH, delay=HUB_DELAY
        )
        # endpoint i is host row _first_endpoint + i: rows go in add order
        self._first_endpoint = len(self.net.names)
        for i in range(self.endpoints):
            self.net.add_host(
                f"ep{i:06d}",
                "core",
                bandwidth=ENDPOINT_BANDWIDTH,
                delay=ENDPOINT_DELAY,
            )

        # arrival schedule: wave k fires at exactly 1 + k*WAVE_GAP so a
        # fault plan can target a wave's activity window deterministically;
        # seed variety comes from rotating each wave's size-class offset
        rng = random.Random(f"{seed}:fleet")
        self._class_offset = [rng.randrange(len(SIZE_CLASSES))
                              for _ in range(self.waves)]
        base, extra = divmod(self.endpoints, self.waves)
        self._wave_sizes = [
            base + (1 if k < extra else 0) for k in range(self.waves)
        ]
        self._wave_start = 0
        for k in range(self.waves):
            self.sim.call_at(1.0 + k * WAVE_GAP, self._start_wave, k)

        self.expected_flows = self.endpoints
        self.expected_bytes = 0
        idx = 0
        for k, n in enumerate(self._wave_sizes):
            off = self._class_offset[k]
            for j in range(n):
                self.expected_bytes += SIZE_CLASSES[(off + idx + j)
                                                    % len(SIZE_CLASSES)]
            idx += n

        # partition bookkeeping for session-resume accounting
        self.session_resumes = 0
        self._partitioned = False
        self._partition_at = 0.0
        self._hub_link = self.net.uplink("hub")
        self.net.on_link_change.append(self._on_link_change)
        # bound once, to the registry current *now*: install the run's
        # registry before building the scenario (run_chaos does)
        self._forwarded = obs.metrics().counter(
            "relay.forwarded_bytes_total", backend="flow"
        )
        # completions per endpoint, by index: one byte each, which the
        # collector does not track (a count past 255 would raise)
        self._completions = bytearray(self.endpoints)

    # -- workload ------------------------------------------------------------
    def _start_wave(self, k: int) -> None:
        n = self._wave_sizes[k]
        first = self._wave_start
        self._wave_start += n
        off = self._class_offset[k]
        names = self.net.names
        row = self._first_endpoint
        done = self._flow_done  # one bound method for the wave's flows
        for j in range(n):
            i = first + j
            size = SIZE_CLASSES[(off + i) % len(SIZE_CLASSES)]
            self.net.start_flow(
                names[row + i], "hub", size,
                name=f"f{i}", channel=str(i),
                on_complete=done,
            )
        self.relay.flight.note("fleet.wave", wave=k, flows=n)
        obs.event("fleet.wave", wave=k, flows=n, t=round(self.sim.now, 6))

    def _flow_done(self, flow: FluidFlow) -> None:
        size = int(flow.size)
        self.relay.forwarded_bytes += size
        self.relay.forwarded_messages += 1
        self._forwarded.inc(size)
        self._completions[int(flow.channel)] += 1

    # -- partition / resume accounting ---------------------------------------
    def _on_link_change(self, link, down: bool) -> None:
        if link != self._hub_link:
            return
        if down:
            self._partitioned = True
            self._partition_at = self.sim.now
            obs.event("fleet.partition", t=round(self.sim.now, 6))
            return
        if not self._partitioned:
            return
        self._partitioned = False
        if not self.sessions:
            # no session layer: the fluid flows simply pick their rates
            # back up, and nothing claims to have "resumed"
            return
        # Everything active with a zero rate right now stalled against the
        # dead hub uplink — whether it was mid-stream when the partition
        # hit or came out of handshake during it.  Each one is a session
        # the heal just resumed, and the heal is one record of how many:
        # one ``fleet.heal`` span and one reconnect increment of that many,
        # on one counter labelled as a session core labels its own.  No
        # record is made per stalled flow.
        resumed = self.net.stalled()
        if resumed:
            obs.record_span(
                "fleet.heal", self._partition_at, self.sim.now,
                ctx=TraceContext.new(), node="hub", resumed=resumed,
            )
            obs.metrics().counter(
                "session.reconnects_total", role="initiator"
            ).inc(resumed)
            self.session_resumes += resumed

    # -- chaos scenario protocol ---------------------------------------------
    def site_wan_link(self, site: str):
        """``hub`` -> the hub's uplink; an endpoint name -> its uplink
        (``KeyError`` for ``core``, the root, and for an unknown site)."""
        return self.net.uplink(site)

    def shutdown(self) -> None:
        self.relay.stop()

    def chaos_stats(self) -> dict:
        net = self.net.stats()
        return {
            "endpoints": self.endpoints,
            "waves": self.waves,
            "flows_completed": net["flows_completed"],
            "rate_resolves": net["resolves"],
            "relay_forwarded_bytes": self.relay.forwarded_bytes,
            "relay_forwarded_messages": self.relay.forwarded_messages,
            "reconnects": self.session_resumes,
        }

    # -- scenario-specific invariants ----------------------------------------
    def completion_violations(self) -> list:
        out = []
        wrong = [
            (i, n) for i, n in enumerate(self._completions) if n != 1
        ]
        if wrong:
            named = ", ".join(
                f"channel {i} completed {n} times" for i, n in wrong[:5]
            )
            more = f" and {len(wrong) - 5} more" if len(wrong) > 5 else ""
            out.append(
                f"fleet: {len(wrong)} endpoints did not complete exactly "
                f"once: {named}{more}"
            )
        done = self.net.flows_completed
        if done != self.expected_flows:
            out.append(
                f"fleet: only {done}/{self.expected_flows} flows completed"
            )
        if self.relay.forwarded_bytes != self.expected_bytes:
            out.append(
                f"fleet: hub received {self.relay.forwarded_bytes} bytes, "
                f"expected {self.expected_bytes}"
            )
        return out


@scenario("fleet_fanin")
def _build_fleet_fanin(seed: int, retries: bool, sessions: bool) -> Workload:
    """Fleet-scale fan-in: waves of endpoints stream into one hub.

    Flow-tier only.  ``retries`` has no effect here — the fluid model
    abstracts establishment retries away; ``sessions`` toggles whether a
    healed fleet partition is accounted as session resumes (and thereby
    whether the session obs invariant has anything to check).
    """
    scn = FleetScenario(seed=seed, sessions=sessions)
    wl = Workload(scn)
    wl.post_checks.append(scn.completion_violations)
    return wl
