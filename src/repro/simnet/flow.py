"""Flow-level (fluid) fidelity tier: bulk transfers as AIMD rate processes.

The packet tier simulates every segment; that is the right tool for
studying *how* TCP behaves on one WAN path (Figures 9/10), and the wrong
tool for a fleet.  This module trades per-packet detail for scale: a
bulk transfer is a :class:`FluidFlow` with a steady-state AIMD rate, a
link is a pair of directional capacity constraints, and the only events
are flow arrivals, flow completions, and link state changes — each one
triggers a max-min fair rate re-solve.  100k concurrent transfers cost
a handful of solver passes, not billions of segment events.

Model
-----
A flow's stand-alone ceiling comes from classic Reno steady-state
analysis (:func:`aimd_rate`): the receive-window bound ``rwnd / RTT``
and the loss-driven sawtooth (Mathis bound when losses dominate, a
climb-then-dwell cycle average when the window cap does), times the
number of parallel streams.  Shared links then cap the flows crossing
them: rates are the max-min fair allocation subject to each flow's
ceiling (progressive water-filling).  Slow start is modelled as an
activation delay (:func:`slow_start_penalty`) rather than per-round
cwnd growth.

Calibration: the constants below (``WINDOW_EFFICIENCY``, ``ACK_EVERY``,
``PIPE_UTILIZATION``, ``SLOWSTART_CREDIT``) are fitted once against the
packet tier on the fig9/fig10 WAN profiles (see
``repro.simnet.crossval``), the same way the Lossy-BSP model fits
hardware parameters.  They are model parameters, not tuning knobs to
bend per-scenario.

Topology is a tree (hosts hang off a parent, the first host is the
root), which keeps path lookup O(depth) with zero routing state per
host — the regime this tier targets (fan-in storms, registration
stampedes, mass resume) is hub-and-spoke anyway.  Faults use the same
surface as the packet tier: ``link.set_down(True)`` zeroes both
directions and triggers a re-solve, and subscribers on
:attr:`FlowNetwork.on_link_change` can model session loss/resume.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional

from .backend import SimBackend
from .engine import Event, Simulator, Timer

__all__ = [
    "FlowNetwork",
    "FlowBackend",
    "FlowHost",
    "FlowLink",
    "FlowPipe",
    "FluidFlow",
    "aimd_rate",
    "slow_start_penalty",
    "spec_flow_params",
]

#: TCP payload bytes per segment (matches ``repro.simnet.tcp``)
MSS = 1460.0
#: IP + TCP header bytes per segment
HEADER_BYTES = 40.0
#: fraction of raw link capacity available to payload
WIRE_EFFICIENCY = MSS / (MSS + HEADER_BYTES)
#: achieved fraction of the ideal ``rwnd / RTT`` window bound
WINDOW_EFFICIENCY = 0.94
#: effective delayed-ACK factor *b*: cwnd grows 1/b segment per RTT in
#: congestion avoidance (between 1 = every segment ACKed and 2 = every
#: other; the packet tier's ACK clocking lands in between)
ACK_EVERY = 1.75
#: utilization a saturated drop-tail bottleneck actually sustains (the
#: synchronized-sawtooth deficit; applies on top of header overhead)
PIPE_UTILIZATION = 0.945
#: slow-start "free" doublings before the ramp deficit starts counting
SLOWSTART_CREDIT = 3.0
#: handshake cost charged before a flow's first payload byte, in RTTs
SETUP_RTTS = 1.5
#: max seconds the re-solve timer sleeps before re-checking; bounds how
#: long a stale timer entry can sit on the heap (must stay below the
#: chaos drain window so leak probes see a clean heap)
TIMER_HORIZON = 60.0
#: completion slop for float accumulation of ``rate * dt``
_EPS_BYTES = 1e-3


def aimd_rate(
    rtt: float,
    loss: float,
    *,
    mss: float = MSS,
    rwnd: float = 65536.0,
    streams: int = 1,
) -> float:
    """Stand-alone steady-state goodput (B/s) of ``streams`` Reno flows.

    Per stream, the model follows the Reno sawtooth through its two
    regimes (``W`` is the receive-window cap in segments, ``N = 1/p``
    the mean segments between loss events, climbs pace ``1/b`` segment
    per RTT):

    * **loss-limited** — losses arrive before the climb from ``W/2``
      back to ``W`` completes, so the window never dwells at its cap:
      the Mathis bound ``(MSS/RTT) * sqrt(3 / (2*b*p))``.
    * **window-limited with residual loss** — the climb completes and
      the window sits at ``W`` until the next loss; the average over
      one climb-then-dwell cycle interpolates between the Mathis bound
      and the loss-free ``W * MSS / RTT`` ceiling.  A flat
      ``min(window, Mathis)`` overestimates this regime — each loss
      still halves the window below its cap.

    Parallel streams add linearly (they only interact through shared
    links, which the solver handles).  This is the flow's *ceiling* —
    link sharing can only lower it.
    """
    if rtt <= 0:
        raise ValueError(f"rtt must be positive: {rtt}")
    if not 0.0 <= loss < 1.0:
        raise ValueError(f"loss must be in [0, 1): {loss}")
    if streams < 1:
        raise ValueError(f"streams must be >= 1: {streams}")
    w = max(1.0, WINDOW_EFFICIENCY * rwnd / mss)  # window cap, segments
    window_rate = w * mss / rtt
    if loss <= 0.0:
        return streams * window_rate
    n = 1.0 / loss
    climb_segs = 0.375 * ACK_EVERY * w * w  # sent climbing W/2 -> W
    if climb_segs >= n:
        mathis = (mss / rtt) * math.sqrt(3.0 / (2.0 * ACK_EVERY * loss))
        per_stream = min(mathis, window_rate)
    else:
        dwell_rtts = (n - climb_segs) / w
        cycle_rtts = ACK_EVERY * w / 2.0 + dwell_rtts
        per_stream = (n * mss) / (rtt * cycle_rtts)
    return streams * per_stream


def slow_start_penalty(
    rate_per_stream: float, rtt: float, mss: float = MSS
) -> float:
    """Dead time equivalent of the slow-start ramp, in seconds.

    Slow start reaches a window of ``W`` packets in ``log2(W)`` RTTs but
    delivers only ~``2W`` packets doing it; the shortfall versus sending
    at the steady rate the whole time is charged as a delay before the
    fluid flow activates.  Small windows ramp within the credit and pay
    nothing.
    """
    if rate_per_stream <= 0 or rtt <= 0:
        return 0.0
    w = rate_per_stream * rtt / mss
    if w <= 1.0:
        return 0.0
    return rtt * max(0.0, math.log2(w) - SLOWSTART_CREDIT)


def spec_flow_params(spec) -> dict:
    """Flow-tier parameters equivalent to a driver ``StackSpec``.

    This is the flow tier's half of the ``fidelity=`` knob: the packet
    tier assembles real drivers from the spec, the flow tier maps the
    same spec onto :meth:`FlowNetwork.start_flow` keywords — ``parallel``
    becomes the stream count, and a ``mux`` layer's credit window caps
    the effective receive window (credit, like rwnd, bounds unacked
    bytes in flight per channel).  Filtering layers (compress/tls) do
    not change the fluid model; CPU effects are out of scope for this
    tier (see docs/SIMNET.md).

    Accepts anything with the :class:`~repro.core.utilization.spec.StackSpec`
    inspection surface; defined here (not in ``core``) so ``simnet``
    never imports upward.
    """
    params: dict = {"streams": int(spec.links_required)}
    mux = getattr(spec, "mux", None)
    if mux is not None:
        win = mux.get("win")
        if win is not None:
            params["rwnd"] = min(65536.0, float(win))
    return params


class FlowPipe:
    """One direction of a flow-level link: a capacity constraint.

    ``_cap``, ``_n`` and ``_stamp`` are the rate solver's scratch: capacity
    left, unfixed flows crossing, and which solve they were written by.
    """

    __slots__ = ("link", "capacity", "delay", "loss", "down", "_cap", "_n", "_stamp")

    def __init__(
        self, link: "FlowLink", capacity: float, delay: float, loss: float = 0.0
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {loss}")
        self.link = link
        self.capacity = capacity
        self.delay = delay
        self.loss = loss
        self.down = False
        self._stamp = None

    @property
    def name(self) -> str:
        way = "up" if self.link.to_parent is self else "down"
        return f"{self.link.name}:{way}"

    @property
    def goodput(self) -> float:
        """Payload capacity a saturated pipe sustains; 0 when down.

        Raw rate minus header overhead, times the drop-tail utilization
        deficit — flows only feel this cap when the pipe is their
        bottleneck, which is exactly when the sawtooth leaves it idle.
        """
        if self.down:
            return 0.0
        return self.capacity * WIRE_EFFICIENCY * PIPE_UTILIZATION

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " DOWN" if self.down else ""
        return f"<FlowPipe {self.name} {self.capacity:.0f}B/s{state}>"


class FlowLink:
    """Bidirectional link between a host and its parent.

    Mirrors the fault/RTT surface of :class:`repro.simnet.link.Link`
    (``set_down``, ``down``, ``delay_ab``/``delay_ba``/``rtt``,
    ``bandwidth``) so chaos fault actions work identically on either
    fidelity tier.  Direction *a→b* is child→parent.
    """

    __slots__ = ("net", "child", "parent", "to_parent", "to_child")

    def __init__(
        self,
        net: "FlowNetwork",
        child: "FlowHost",
        parent: "FlowHost",
        *,
        bandwidth: float,
        delay: float,
        loss: float = 0.0,
        delay_back: Optional[float] = None,
        down_bandwidth: Optional[float] = None,
    ):
        self.net = net
        self.child = child
        self.parent = parent
        if delay_back is None:
            delay_back = delay
        self.to_parent = FlowPipe(self, bandwidth, delay, loss)
        self.to_child = FlowPipe(
            self,
            bandwidth if down_bandwidth is None else down_bandwidth,
            delay_back,
            loss,
        )

    @property
    def name(self) -> str:
        return f"{self.child.name}~{self.parent.name}"

    def set_down(self, down: bool) -> None:
        """Cut (or restore) both directions; flows re-solve immediately."""
        if self.to_parent.down == down and self.to_child.down == down:
            return
        self.to_parent.down = down
        self.to_child.down = down
        self.net._link_changed(self, down)

    @property
    def down(self) -> bool:
        return self.to_parent.down and self.to_child.down

    # chaos faults written against packet-tier Link objects address the
    # directions as a_to_b / b_to_a; a is the child side here.  Mutating
    # pipe loss affects flows started afterwards (ceilings are computed
    # at start), which matches a loss burst's effect on new transfers.
    @property
    def a_to_b(self) -> FlowPipe:
        return self.to_parent

    @property
    def b_to_a(self) -> FlowPipe:
        return self.to_child

    @property
    def delay_ab(self) -> float:
        return self.to_parent.delay

    @property
    def delay_ba(self) -> float:
        return self.to_child.delay

    @property
    def rtt(self) -> float:
        """Round-trip propagation: the explicit sum of both halves."""
        return self.to_parent.delay + self.to_child.delay

    @property
    def bandwidth(self) -> float:
        return self.to_parent.capacity

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlowLink {self.name} {self.child.name}<->{self.parent.name}>"


class FlowHost:
    """A named attachment point in the topology tree."""

    __slots__ = ("name", "parent", "uplink", "depth")

    def __init__(
        self,
        name: str,
        parent: Optional["FlowHost"] = None,
        uplink: Optional[FlowLink] = None,
    ):
        self.name = name
        self.parent = parent
        self.uplink = uplink
        self.depth = 0 if parent is None else parent.depth + 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlowHost {self.name} depth={self.depth}>"


_PENDING_STATES = ("pending", "active")


class FluidFlow:
    """One bulk transfer, modelled as a rate that the solver assigns.

    Lifecycle: ``pending`` (handshake + slow-start delay) → ``active``
    (delivering at :attr:`rate`) → ``done`` (all bytes delivered) or
    ``aborted``.  Completion fires :attr:`on_complete` and the lazily
    created :attr:`done` event.
    """

    __slots__ = (
        "net",
        "name",
        "src",
        "dst",
        "size",
        "delivered",
        "ceiling",
        "path",
        "rate",
        "active_from",
        "started_at",
        "finished_at",
        "state",
        "channel",
        "on_complete",
        "_done",
        "_fixed",
    )

    def __init__(
        self,
        net: "FlowNetwork",
        name: str,
        src: str,
        dst: str,
        size: float,
        *,
        path: tuple,
        ceiling: float,
        active_from: float,
        channel: Optional[str],
        on_complete: Optional[Callable[["FluidFlow"], None]],
    ):
        self.net = net
        self.name = name
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.delivered = 0.0
        self.path = path
        self.ceiling = ceiling
        self.rate = 0.0
        self.active_from = active_from
        self.started_at = net.sim.now
        self.finished_at: Optional[float] = None
        self.state = "pending"
        self.channel = channel
        self.on_complete = on_complete
        self._done: Optional[Event] = None
        self._fixed = False

    @property
    def remaining(self) -> float:
        return max(0.0, self.size - self.delivered)

    @property
    def done(self) -> Event:
        """Event triggering (with the flow) on completion.

        Created lazily: fleet-scale scenarios use :attr:`on_complete`
        callbacks and never pay for 100k Event objects.
        """
        if self._done is None:
            self._done = Event(self.net.sim)
            if self.state == "done":
                self._done.succeed(self)
        return self._done

    def abort(self) -> None:
        """Stop the transfer, keeping bytes delivered so far."""
        if self.state not in _PENDING_STATES:
            return
        self.net._settle(self.net.sim.now)
        if self.state not in _PENDING_STATES:  # settle may have completed it
            return
        self.state = "aborted"
        self.rate = 0.0
        self.finished_at = self.net.sim.now
        self.net.flows_aborted += 1
        self.net._mark_dirty()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FluidFlow {self.name} {self.src}->{self.dst} {self.state} "
            f"{self.delivered:.0f}/{self.size:.0f}B @{self.rate:.0f}B/s>"
        )


class FlowNetwork:
    """Tree topology + event-driven max-min rate solver.

    The solver runs when flows arrive, complete, or a link changes
    state; all triggers at one timestamp coalesce into a single pass.
    Between passes every active flow delivers at its assigned rate.
    """

    #: mirrors topology.LAN defaults so site-ish trees feel familiar
    DEFAULT_BANDWIDTH = 12_500_000.0
    DEFAULT_DELAY = 0.000_05

    def __init__(self, sim: Optional[Simulator] = None, seed: int = 0):
        self.sim = sim or Simulator()
        self.seed = seed
        self.hosts: dict[str, FlowHost] = {}
        self.links: list[FlowLink] = []
        self.root: Optional[FlowHost] = None
        #: subscribers called as ``fn(link, down)`` on set_down transitions
        self.on_link_change: list[Callable[[FlowLink, bool], None]] = []
        # active flows, kept sorted by ceiling (the solver relies on it)
        self._active: list[FluidFlow] = []
        # min-heap of (active_from, seq, flow) not yet delivering
        self._pending: list = []
        self._seq = 0
        self._dirty = False
        self._last_settle = 0.0
        self._timer = Timer(self.sim, self._resolve)
        # lifetime counters (chaos stats / obs export read these)
        self.flows_started = 0
        self.flows_completed = 0
        self.flows_aborted = 0
        self.delivered_bytes = 0.0
        self.resolves = 0

    # -- topology -----------------------------------------------------------
    def add_host(
        self,
        name: str,
        parent: Optional[str] = None,
        *,
        bandwidth: Optional[float] = None,
        delay: Optional[float] = None,
        loss: float = 0.0,
        delay_back: Optional[float] = None,
        down_bandwidth: Optional[float] = None,
    ) -> FlowHost:
        """Attach ``name`` under ``parent`` (the first host is the root).

        ``bandwidth``/``delay``/``loss`` describe the uplink to the
        parent; ``delay_back`` makes the RTT halves asymmetric and
        ``down_bandwidth`` the capacities (both default symmetric).
        """
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        if parent is None:
            if self.root is not None:
                raise ValueError(
                    f"root is {self.root.name!r}; give {name!r} a parent"
                )
            host = FlowHost(name)
            self.root = host
            self.hosts[name] = host
            return host
        up = self.hosts[parent]
        host = FlowHost(name, parent=up)
        link = FlowLink(
            self,
            host,
            up,
            bandwidth=self.DEFAULT_BANDWIDTH if bandwidth is None else bandwidth,
            delay=self.DEFAULT_DELAY if delay is None else delay,
            loss=loss,
            delay_back=delay_back,
            down_bandwidth=down_bandwidth,
        )
        host.uplink = link
        self.hosts[name] = host
        self.links.append(link)
        return host

    def route(self, src: str, dst: str) -> tuple:
        """Forward path ``src → dst``: ``(pipes, rtt, loss)``.

        Walks both hosts up to their lowest common ancestor.  ``pipes``
        are the directional constraints the flow's payload crosses;
        ``rtt`` sums both halves of every traversed link (asymmetric
        halves stay explicit); ``loss`` compounds the forward pipes'
        loss rates.
        """
        a = self.hosts[src]
        b = self.hosts[dst]
        if a is b:
            raise ValueError(f"flow endpoints identical: {src!r}")
        up: list[FlowPipe] = []
        down: list[FlowPipe] = []
        rtt = 0.0
        keep = 1.0
        while a.depth > b.depth:
            link = a.uplink
            up.append(link.to_parent)
            rtt += link.rtt
            keep *= 1.0 - link.to_parent.loss
            a = a.parent
        while b.depth > a.depth:
            link = b.uplink
            down.append(link.to_child)
            rtt += link.rtt
            keep *= 1.0 - link.to_child.loss
            b = b.parent
        while a is not b:
            la, lb = a.uplink, b.uplink
            up.append(la.to_parent)
            down.append(lb.to_child)
            rtt += la.rtt + lb.rtt
            keep *= (1.0 - la.to_parent.loss) * (1.0 - lb.to_child.loss)
            a = a.parent
            b = b.parent
        down.reverse()
        return tuple(up + down), rtt, 1.0 - keep

    # -- flow lifecycle ------------------------------------------------------
    def start_flow(
        self,
        src: str,
        dst: str,
        size: float,
        *,
        streams: int = 1,
        mss: float = MSS,
        rwnd: float = 65536.0,
        name: Optional[str] = None,
        channel: Optional[str] = None,
        setup_delay: Optional[float] = None,
        on_complete: Optional[Callable[[FluidFlow], None]] = None,
    ) -> FluidFlow:
        """Begin a bulk transfer of ``size`` payload bytes.

        The flow spends handshake (``setup_delay``, default
        :data:`SETUP_RTTS` RTTs) plus the slow-start penalty in
        ``pending`` before delivering.  All flows started at one
        timestamp share a single solver pass.
        """
        if size <= 0:
            raise ValueError(f"size must be positive: {size}")
        path, rtt, loss = self.route(src, dst)
        if setup_delay is None:
            setup_delay = SETUP_RTTS * rtt
        ceiling = aimd_rate(rtt, loss, mss=mss, rwnd=rwnd, streams=streams)
        ramp = slow_start_penalty(ceiling / streams, rtt, mss)
        self._seq += 1
        flow = FluidFlow(
            self,
            name or f"flow-{self._seq}",
            src,
            dst,
            size,
            path=path,
            ceiling=ceiling,
            active_from=self.sim.now + setup_delay + ramp,
            channel=channel,
            on_complete=on_complete,
        )
        heapq.heappush(self._pending, (flow.active_from, self._seq, flow))
        self.flows_started += 1
        self._mark_dirty()
        return flow

    def active_flows(self) -> list[FluidFlow]:
        """Flows still in flight (delivering or in handshake), in order."""
        live = [f for f in self._active if f.state == "active"]
        live.extend(f for _, _, f in sorted(self._pending)
                    if f.state == "pending")
        return live

    def stats(self) -> dict:
        return {
            "flows_started": self.flows_started,
            "flows_completed": self.flows_completed,
            "flows_aborted": self.flows_aborted,
            "flows_active": sum(f.state == "active" for f in self._active)
            + sum(e[2].state == "pending" for e in self._pending),
            "delivered_bytes": self.delivered_bytes,
            "resolves": self.resolves,
        }

    # -- solver --------------------------------------------------------------
    def _link_changed(self, link: FlowLink, down: bool) -> None:
        self._mark_dirty()
        for fn in self.on_link_change:
            fn(link, down)

    def _mark_dirty(self) -> None:
        """Coalesce same-timestamp triggers into one solver pass."""
        if not self._dirty:
            self._dirty = True
            self.sim.call_later(0.0, self._resolve)

    def _settle(self, now: float) -> None:
        """Credit ``rate * dt`` to every active flow, completing any done."""
        dt = now - self._last_settle
        self._last_settle = now
        finished = None
        for f in self._active:
            if f.state != "active" or f.rate <= 0.0:
                continue
            f.delivered += f.rate * dt
            if f.delivered >= f.size - _EPS_BYTES:
                if finished is None:
                    finished = []
                finished.append(f)
        if finished:
            for f in finished:
                self._finish(f, now)

    def _finish(self, flow: FluidFlow, now: float) -> None:
        flow.delivered = flow.size
        flow.rate = 0.0
        flow.state = "done"
        flow.finished_at = now
        self.flows_completed += 1
        self.delivered_bytes += flow.size
        if flow._done is not None:
            flow._done.succeed(flow)
        if flow.on_complete is not None:
            flow.on_complete(flow)

    def _resolve(self) -> None:
        now = self.sim.now
        self._dirty = False
        self._timer.cancel()
        self._settle(now)
        # promote pending flows whose handshake/ramp completed
        promoted = None
        while self._pending and self._pending[0][0] <= now + 1e-12:
            _, _, f = heapq.heappop(self._pending)
            if f.state != "pending":
                continue
            f.state = "active"
            if promoted is None:
                promoted = []
            promoted.append(f)
        # drop finished/aborted flows, keeping ceiling order
        self._active = [f for f in self._active if f.state == "active"]
        if promoted:
            promoted.sort(key=_ceiling_key)
            if self._active:
                self._active = list(
                    heapq.merge(self._active, promoted, key=_ceiling_key)
                )
            else:
                self._active = promoted
        self._solve()
        self.resolves += 1
        self._arm(now)

    def _solve(self) -> None:
        """Max-min fair rates with per-flow ceilings (water-filling).

        Each round computes the smallest per-flow fair share over the
        still-constrained pipes; flows whose AIMD ceiling is below that
        share are capped there, otherwise every flow on a bottleneck
        pipe is fixed at the share.  Uniform fan-ins converge in two
        rounds regardless of flow count.
        """
        flows = self._active
        if not flows:
            return
        stamp = object()  # this solve's mark: a pipe not carrying it is new
        pipes = []  # every pipe under an active flow, in first-touch order
        for f in flows:
            f._fixed = False
            for p in f.path:
                if p._stamp is not stamp:
                    p._stamp = stamp
                    p._cap = p.goodput
                    p._n = 0
                    pipes.append(p)
                p._n += 1
        crossing = None  # pipe -> its flows, in active order; built on need
        unfixed = len(flows)
        ptr = 0  # flows are sorted by ceiling; fixed ones are skipped
        while unfixed:
            fair = math.inf
            for p in pipes:
                if p._n > 0:
                    share = p._cap / p._n
                    if share < fair:
                        fair = share
            if fair is math.inf:
                for f in flows:
                    if not f._fixed:
                        _fix(f, f.ceiling)
                break
            thresh = fair * (1.0 + 1e-9) + 1e-12
            progressed = False
            while ptr < len(flows):
                f = flows[ptr]
                if f._fixed:
                    ptr += 1
                    continue
                if f.ceiling > thresh:
                    break
                _fix(f, f.ceiling)
                unfixed -= 1
                ptr += 1
                progressed = True
            if progressed:
                continue
            if crossing is None:
                crossing = {p: [] for p in pipes}
                for f in flows:
                    for p in f.path:
                        crossing[p].append(f)
            # fixing one pipe's flows moves the next pipe's numbers, so each
            # pipe is tested when its turn comes
            for p in pipes:
                if p._n > 0 and p._cap <= thresh * p._n:
                    for f in crossing[p]:
                        if not f._fixed:
                            _fix(f, fair)
                            unfixed -= 1

    def _arm(self, now: float) -> None:
        """Sleep until the next completion or pending activation."""
        horizon = math.inf
        for f in self._active:
            if f.rate > 0.0:
                eta = (f.size - f.delivered) / f.rate
                if eta < horizon:
                    horizon = eta
        if self._pending:
            nxt = self._pending[0][0] - now
            if nxt < horizon:
                horizon = nxt
        if horizon is not math.inf:
            self._timer.start(min(max(horizon, 0.0), TIMER_HORIZON))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FlowNetwork hosts={len(self.hosts)} "
            f"active={len(self._active)} t={self.sim.now}>"
        )


def _ceiling_key(flow: FluidFlow) -> float:
    return flow.ceiling


def _fix(flow: FluidFlow, rate: float) -> None:
    flow.rate = rate if rate > 1e-12 else 0.0
    flow._fixed = True
    for p in flow.path:
        cap = p._cap - rate
        p._cap = 0.0 if cap < 0.0 else cap
        p._n -= 1


class FlowBackend(SimBackend):
    """The flow tier behind the :class:`SimBackend` protocol."""

    fidelity = "flow"

    def __init__(self, net: Optional[FlowNetwork] = None, seed: int = 0):
        if net is None:
            net = FlowNetwork(seed=seed)
        super().__init__(net.sim)
        self.net = net

    @property
    def hosts(self) -> dict:
        return self.net.hosts

    @property
    def links(self) -> list:
        return self.net.links

    def live_connections(self) -> list:
        """Flows still in flight; leaks if the scenario was torn down."""
        return [
            f"{f.name} {f.src}->{f.dst} "
            f"[{f.state} {f.delivered:.0f}/{f.size:.0f}B]"
            for f in self.net.active_flows()
        ]

    def describe(self) -> dict:
        d = {
            "fidelity": self.fidelity,
            "hosts": len(self.net.hosts),
            "links": len(self.net.links),
        }
        d.update(self.net.stats())
        return d
