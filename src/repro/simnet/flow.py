"""Flow-level (fluid) simulation tier: bulk transfers as AIMD rate processes.

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
stampedes, mass resume) is hub-and-spoke anyway.  The network keeps it
in columns, one row per host and one per pipe, so an endpoint is a few
list slots rather than objects the cyclic collector walks;
:class:`FlowLink` and :class:`FlowPipe` are handles on a row, made on
demand.  Faults use the same surface as the packet tier:
``net.uplink(name).set_down(True)`` zeroes both directions and triggers
a re-solve, and subscribers on :attr:`FlowNetwork.on_link_change` can
model session loss/resume.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional

from .engine import Event, Simulator, Timer

__all__ = [
    "FlowNetwork",
    "FlowLink",
    "FlowPipe",
    "FluidFlow",
    "aimd_rate",
    "slow_start_penalty",
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


class _View:
    """A handle on one row of a :class:`FlowNetwork` column: the network
    and an index, made on demand and equal to every handle on that row."""

    __slots__ = ("net", "index")

    def __init__(self, net: "FlowNetwork", index: int):
        self.net = net
        self.index = index

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other.net is self.net
            and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((id(self.net), self.index))


class FlowPipe(_View):
    """One direction of a flow-level link: a capacity constraint.

    ``index`` is the pipe's row in the network's pipe columns: host
    ``h``'s pipe up to its parent is ``2h``, the one down to it ``2h+1``.
    """

    __slots__ = ()

    @property
    def link(self) -> "FlowLink":
        return FlowLink(self.net, self.index >> 1)

    @property
    def capacity(self) -> float:
        return self.net.capacity[self.index]

    @property
    def delay(self) -> float:
        return self.net.delay[self.index]

    @property
    def loss(self) -> float:
        return self.net.loss[self.index]

    @property
    def down(self) -> bool:
        return self.net.down[self.index]

    def retune(self, *, loss: float) -> None:
        """The chaos surface of :meth:`repro.simnet.link.Transmitter.retune`
        a ``loss_burst`` needs: flows started afterwards see ``loss``."""
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {loss}")
        self.net.loss[self.index] = loss

    @property
    def name(self) -> str:
        way = "down" if self.index & 1 else "up"
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


class FlowLink(_View):
    """Bidirectional link between a host and its parent.

    ``index`` is the child host's.  Mirrors the fault/RTT surface of
    :class:`repro.simnet.link.Link` (``set_down``, ``down``,
    ``delay_ab``/``delay_ba``/``rtt``, ``bandwidth``) so the faults that
    cut a link or raise its loss work on either simulation tier.
    Direction *a→b* is child→parent.
    """

    __slots__ = ()

    @property
    def name(self) -> str:
        net = self.net
        return f"{net.names[self.index]}~{net.names[net.parent[self.index]]}"

    def set_down(self, down: bool) -> None:
        """Cut (or restore) both directions; flows re-solve immediately."""
        flags = self.net.down
        up = 2 * self.index
        if flags[up] == down and flags[up + 1] == down:
            return
        flags[up] = flags[up + 1] = down
        self.net._link_changed(self, down)

    @property
    def down(self) -> bool:
        flags = self.net.down
        up = 2 * self.index
        return flags[up] and flags[up + 1]

    # chaos faults written against packet-tier Link objects address the
    # directions as a_to_b / b_to_a; a is the child side here.  Retuning
    # pipe loss affects flows started afterwards (ceilings are computed
    # at start), which matches a loss burst's effect on new transfers.
    @property
    def to_parent(self) -> FlowPipe:
        return FlowPipe(self.net, 2 * self.index)

    @property
    def to_child(self) -> FlowPipe:
        return FlowPipe(self.net, 2 * self.index + 1)

    a_to_b = to_parent
    b_to_a = to_child

    @property
    def delay_ab(self) -> float:
        return self.net.delay[2 * self.index]

    @property
    def delay_ba(self) -> float:
        return self.net.delay[2 * self.index + 1]

    @property
    def rtt(self) -> float:
        """Round-trip propagation: the explicit sum of both halves."""
        delay = self.net.delay
        up = 2 * self.index
        return delay[up] + delay[up + 1]

    @property
    def bandwidth(self) -> float:
        return self.net.capacity[2 * self.index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlowLink {self.name}>"


_PENDING_STATES = ("pending", "active")


class FluidFlow:
    """One bulk transfer, modelled as a rate that the solver assigns.

    ``path`` is the rows of the pipes it crosses, in order.  Lifecycle:
    ``pending`` (handshake + slow-start delay) → ``active``
    (delivering at :attr:`rate`) → ``done`` (all bytes delivered) or
    ``aborted``.  Completion fires :attr:`on_complete`; completion or an
    abort triggers the lazily created :attr:`done` event.
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
        """Event triggering (with the flow) when the flow ends.

        It triggers on completion and on :meth:`abort` alike, also when
        first asked for afterwards; a waiter reads :attr:`state` to tell
        them apart.  Created lazily: fleet-scale scenarios use
        :attr:`on_complete` callbacks and never pay for 100k Event objects.
        """
        if self._done is None:
            self._done = Event(self.net.sim)
            if self.state not in _PENDING_STATES:
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
        if self._done is not None:
            self._done.succeed(self)

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

    #: the simulation tier a scenario built on this network runs at
    tier = "flow"
    #: mirrors topology.LAN defaults so site-ish trees feel familiar
    DEFAULT_BANDWIDTH = 12_500_000.0
    DEFAULT_DELAY = 0.000_05

    def __init__(self, sim: Optional[Simulator] = None, seed: int = 0):
        self.sim = sim or Simulator()
        self.seed = seed
        # hosts, one row each in the order added (the first is the root)
        self.hosts: dict[str, int] = {}  # name -> row
        self.names: list[str] = []
        self.parent: list[int] = []  # the root's is -1
        self.depth: list[int] = []
        # pipes: host h's up to its parent is row 2h, its down one 2h+1 (the
        # root's two rows are placeholders no path crosses)
        self.capacity: list[float] = []
        self.delay: list[float] = []
        self.loss: list[float] = []
        self.down: list[bool] = []
        # the rate solver's scratch per pipe: capacity left, unfixed flows
        # crossing, and which solve wrote them
        self._cap: list[float] = []
        self._n: list[int] = []
        self._stamp: list[int] = []
        self._solves = 0
        #: subscribers called as ``fn(link, down)`` on set_down transitions
        self.on_link_change: list[Callable[[FlowLink, bool], None]] = []
        # active flows, kept sorted by ceiling (the solver relies on it)
        self._active: list[FluidFlow] = []
        # min-heap of (active_from, seq, [flows]) not yet delivering: one
        # entry per activation instant, its flows in start order (a wave's
        # flows share one), found by the instant in ``_activations``
        self._pending: list = []
        self._activations: dict[float, list[FluidFlow]] = {}
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
    ) -> int:
        """Attach ``name`` under ``parent`` (the first host is the root);
        returns its row, which is the number of hosts added before it.

        ``bandwidth``/``delay``/``loss`` describe the uplink to the
        parent; ``delay_back`` makes the RTT halves asymmetric and
        ``down_bandwidth`` the capacities (both default symmetric).
        """
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        if parent is None:
            if self.names:
                raise ValueError(
                    f"root is {self.names[0]!r}; give {name!r} a parent"
                )
            up, depth = -1, 0
            capacity = delays = (0.0, 0.0)
        else:
            up = self.hosts[parent]
            depth = self.depth[up] + 1
            if bandwidth is None:
                bandwidth = self.DEFAULT_BANDWIDTH
            if delay is None:
                delay = self.DEFAULT_DELAY
            capacity = (
                bandwidth,
                bandwidth if down_bandwidth is None else down_bandwidth,
            )
            delays = (delay, delay if delay_back is None else delay_back)
            if min(capacity) <= 0:
                raise ValueError(f"capacity must be positive: {capacity}")
            if min(delays) < 0:
                raise ValueError(f"negative delay: {delays}")
            if not 0.0 <= loss < 1.0:
                raise ValueError(f"loss must be in [0, 1): {loss}")
        row = len(self.names)
        self.hosts[name] = row
        self.names.append(name)
        self.parent.append(up)
        self.depth.append(depth)
        # the up pipe's row, then the down one's
        self.capacity += capacity
        self.delay += delays
        self.loss += (loss, loss)
        self.down += (False, False)
        self._cap += (0.0, 0.0)
        self._n += (0, 0)
        self._stamp += (0, 0)
        return row

    def uplink(self, name: str) -> FlowLink:
        """The link from host ``name`` up to its parent; ``KeyError`` for
        an unknown host and for the root, which has none."""
        row = self.hosts.get(name)
        if row is None or self.parent[row] < 0:
            raise KeyError(f"no uplink for host {name!r}")
        return FlowLink(self, row)

    def route(self, src: str, dst: str) -> tuple:
        """Forward path ``src → dst``: ``(pipes, rtt, loss)``.

        Walks both hosts up to their lowest common ancestor.  ``pipes``
        are the rows of the directional constraints the flow's payload
        crosses; ``rtt`` sums both halves of every traversed link
        (asymmetric halves stay explicit); ``loss`` compounds the forward
        pipes' loss rates.
        """
        a = self.hosts[src]
        b = self.hosts[dst]
        if a == b:
            raise ValueError(f"flow endpoints identical: {src!r}")
        parent, depth = self.parent, self.depth
        delay, loss = self.delay, self.loss
        up: list[int] = []
        down: list[int] = []
        rtt = 0.0
        keep = 1.0
        while depth[a] > depth[b]:
            p = 2 * a
            up.append(p)
            rtt += delay[p] + delay[p + 1]
            keep *= 1.0 - loss[p]
            a = parent[a]
        while depth[b] > depth[a]:
            q = 2 * b + 1
            down.append(q)
            rtt += delay[q - 1] + delay[q]
            keep *= 1.0 - loss[q]
            b = parent[b]
        while a != b:
            p, q = 2 * a, 2 * b + 1
            up.append(p)
            down.append(q)
            rtt += (delay[p] + delay[p + 1]) + (delay[q - 1] + delay[q])
            keep *= (1.0 - loss[p]) * (1.0 - loss[q])
            a = parent[a]
            b = parent[b]
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
        batch = self._activations.get(flow.active_from)
        if batch is None:
            batch = self._activations[flow.active_from] = []
            heapq.heappush(self._pending, (flow.active_from, self._seq, batch))
        batch.append(flow)
        self.flows_started += 1
        self._mark_dirty()
        return flow

    def active_flows(self) -> list[FluidFlow]:
        """Flows still in flight (delivering or in handshake), in order."""
        live = [f for f in self._active if f.state == "active"]
        live.extend(f for _, _, batch in sorted(self._pending)
                    for f in batch if f.state == "pending")
        return live

    def stalled(self) -> int:
        """How many flows past their handshake the last solve left at rate
        zero (a down link on their path): a count, not a list of them."""
        return sum(
            f.state == "active" and f.rate == 0.0 for f in self._active
        )

    def live_connections(self) -> list[str]:
        """Flows still in flight, one line each: after a scenario has been
        torn down and drained, every entry is a leak."""
        return [
            f"{f.name} {f.src}->{f.dst} "
            f"[{f.state} {f.delivered:.0f}/{f.size:.0f}B]"
            for f in self.active_flows()
        ]

    def stats(self) -> dict:
        return {
            "flows_started": self.flows_started,
            "flows_completed": self.flows_completed,
            "flows_aborted": self.flows_aborted,
            "flows_active": sum(f.state == "active" for f in self._active)
            + sum(f.state == "pending"
                  for _, _, batch in self._pending for f in batch),
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
            when, _, batch = heapq.heappop(self._pending)
            del self._activations[when]
            for f in batch:
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
        self._solves += 1
        stamp = self._solves  # a pipe whose stamp differs is new to this solve
        cap, n, stamps = self._cap, self._n, self._stamp
        capacity, down = self.capacity, self.down
        pipes = []  # every pipe under an active flow, in first-touch order
        for f in flows:
            f._fixed = False
            for p in f.path:
                if stamps[p] != stamp:
                    stamps[p] = stamp
                    # FlowPipe.goodput, on the columns
                    cap[p] = (
                        0.0
                        if down[p]
                        else capacity[p] * WIRE_EFFICIENCY * PIPE_UTILIZATION
                    )
                    n[p] = 0
                    pipes.append(p)
                n[p] += 1
        unfixed = len(flows)
        ptr = 0  # flows are sorted by ceiling; fixed ones are skipped
        while unfixed:
            fair = math.inf
            for p in pipes:
                if n[p] > 0:
                    share = cap[p] / n[p]
                    if share < fair:
                        fair = share
            if fair is math.inf:
                for f in flows:
                    if not f._fixed:
                        _fix(f, f.ceiling, cap, n)
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
                _fix(f, f.ceiling, cap, n)
                unfixed -= 1
                ptr += 1
                progressed = True
            if progressed:
                continue
            # flows of the pipes saturated now, in active order: only a
            # bottleneck gets a list, and a fan-in has one.  Loops, not
            # comprehensions: on Python 3.11 a comprehension closes over
            # the locals it reads, which makes each of them a cell
            crossing = {}
            for p in pipes:
                if n[p] > 0 and cap[p] <= thresh * n[p]:
                    crossing[p] = []
            for f in flows:
                if not f._fixed:
                    for p in f.path:
                        if p in crossing:
                            crossing[p].append(f)
            # fixing one pipe's flows moves the next pipe's numbers, so each
            # pipe is tested when its turn comes
            for p in pipes:
                if n[p] > 0 and cap[p] <= thresh * n[p]:
                    mine = crossing.get(p)
                    if mine is None:  # tipped over by this round's rounding
                        mine = []
                        for f in flows:
                            if p in f.path:
                                mine.append(f)
                    for f in mine:
                        if not f._fixed:
                            _fix(f, fair, cap, n)
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


def _fix(flow: FluidFlow, rate: float, cap: list, n: list) -> None:
    """Give ``flow`` its ``rate`` and take it off every pipe it crosses
    (``cap``/``n``: the network's solver scratch).  A pipe whose last
    unfixed flow this was is read no more this solve: its capacity left
    becomes the shared ``0.0``, so no float object per pipe outlives the
    solve (24 B an endpoint, ≈ 2.4 MB at 100 k)."""
    flow.rate = rate if rate > 1e-12 else 0.0
    flow._fixed = True
    for p in flow.path:
        n[p] -= 1
        if n[p]:
            left = cap[p] - rate
            cap[p] = 0.0 if left < 0.0 else left
        else:
            cap[p] = 0.0
