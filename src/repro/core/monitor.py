"""Path monitoring and automated method selection (paper §8).

"The following step in our work is to combine these mechanisms with grid
resource management and information systems.  This combination will allow
the automated selection of the proper communication methods for given WAN
settings."

The paper's Figure 5 reserves a "Grid Monitoring / NWS" slot; this module
fills it:

* :class:`PathMonitor` actively probes an established path the way NWS
  does — round-trip probes for latency, a bulk transfer for achievable
  single-stream bandwidth, and an escalation probe over several streams
  when the single stream looks window-limited — and returns what it saw
  as the :class:`~repro.tune.signals.LinkSignals` the tuner reads.
* :func:`select_spec` hands those signals to
  :class:`~repro.tune.planner.TunePlanner`, the one rule that chooses
  stream count and compression, and writes its plan as a driver-stack
  specification.

Probing runs over ordinary brokered data links, so it works across any
middlebox combination the decision tree can handle.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from .. import obs
from ..tune.planner import TunePlanner
from ..tune.signals import LinkSignals
from .links import Link
from .utilization.spec import StackSpec
from .wire import recv_frame, send_frame

if TYPE_CHECKING:  # node imports mux, and mux imports this package
    from .node import GridNode

__all__ = ["PathMonitor", "select_spec"]

P_PING = 0
P_BULK = 1
P_DONE = 2
P_BYE = 3

PING_ROUNDS = 3
#: slow-start warm-up prefix, excluded from the measurement
WARMUP_BYTES = 262_144
#: steady-state bytes the bandwidth is computed over
BULK_BYTES = 786_432


class PathMonitor:
    """Active path measurement between two grid nodes."""

    def __init__(self, node: GridNode, rcvbuf: int = 65536):
        self.node = node
        self.sim = node.sim
        self.rcvbuf = rcvbuf

    # -- initiator --------------------------------------------------------
    async def estimate(self, service_link: Link, peer_info) -> LinkSignals:
        """Probe the path to ``peer_info``; returns its
        :class:`~repro.tune.signals.LinkSignals` (``rtt``, ``capacity``,
        ``streams_active=1``; the single-stream rate and the probe's
        stream count in ``attrs``).

        The responder must be running :meth:`serve` on its side of the
        service link.  When the single stream is window-limited, the probe
        escalates (4, then 8 streams) until aggregate throughput stops
        scaling near-linearly — i.e. the pipe, not the windows, is the
        limit.
        """
        with obs.span("path.probe", peer=peer_info.node_id):
            rtt, single = await self._probe_once(service_link, peer_info, 1)
            capacity = single
            streams_used = 1
            if single >= 0.75 * self.rcvbuf / rtt:
                for streams in (4, 8):
                    _r, multi = await self._probe_once(
                        service_link, peer_info, streams
                    )
                    capacity = max(capacity, multi)
                    streams_used = streams
                    if multi < 0.6 * streams * single:
                        break  # scaling flattened: we are seeing the pipe
        signals = LinkSignals(
            rtt=rtt,
            capacity=capacity,
            streams_active=1,
            attrs={"single_stream_bps": single, "probe_streams": streams_used},
        )
        self._publish(peer_info.node_id, signals)
        return signals

    def _publish(self, peer: str, signals: LinkSignals) -> None:
        """Publish the probe's results through the metrics registry."""
        reg = obs.metrics()
        reg.counter("path.probes_total", peer=peer).inc()
        reg.gauge("path.rtt_seconds", peer=peer).set(signals.rtt)
        reg.gauge("path.single_stream_bps", peer=peer).set(
            signals.attrs["single_stream_bps"])
        reg.gauge("path.capacity_bps", peer=peer).set(signals.capacity)

    async def _probe_once(self, service_link: Link, peer_info, streams: int):
        await send_frame(service_link, struct.pack("!BH", P_BULK, streams))
        links = []
        for _ in range(streams):
            link = await self.node.broker.initiate(service_link, peer_info)
            links.append(link)
        try:
            # RTT: ping-pong on the first link.
            rtts = []
            for _ in range(PING_ROUNDS):
                t0 = self.sim.now
                await links[0].send_all(struct.pack("!B", P_PING))
                await links[0].recv_exactly(1)
                rtts.append(self.sim.now - t0)
            rtt = min(rtts)

            # Bulk: warm-up prefix (absorbs slow start) then a measured
            # steady-state tail, each acknowledged with a marker byte.  The
            # marker's return delay (~rtt/2) is identical for both markers,
            # so it cancels out of the difference.
            payload = b"\x00" * (WARMUP_BYTES + BULK_BYTES)
            procs = [
                self.sim.process(self._pump(link, payload)) for link in links
            ]
            from ..simnet.engine import all_of

            warm = await links[0].recv_exactly(1)
            t1 = self.sim.now
            done = await links[0].recv_exactly(1)
            t2 = self.sim.now
            if warm != bytes([P_DONE]) or done != bytes([P_DONE]):
                raise RuntimeError("probe protocol violation")
            await all_of(self.sim, procs)
            bandwidth = (BULK_BYTES * streams) / max(t2 - t1, 1e-9)
            return rtt, bandwidth
        finally:
            for link in links:
                link.close()

    @staticmethod
    async def _pump(link: Link, payload: bytes):
        await link.send_all(payload)

    # -- responder ----------------------------------------------------------
    async def serve(self, service_link: Link):
        """Answer probe requests on ``service_link`` until BYE/EOF."""
        while True:
            try:
                frame = await recv_frame(service_link)
            except EOFError:
                return
            if not frame or frame[0] == P_BYE:
                return
            kind, streams = struct.unpack("!BH", frame)
            if kind != P_BULK:
                raise RuntimeError(f"unexpected probe request {kind}")
            links = []
            for _ in range(streams):
                link = await self.node.broker.respond(service_link)
                links.append(link)
            await self._serve_probe(links)
            for link in links:
                link.close()

    async def _serve_probe(self, links: list):
        from ..simnet.engine import all_of

        # Pings on the first link.
        for _ in range(PING_ROUNDS):
            await links[0].recv_exactly(1)
            await links[0].send_all(struct.pack("!B", P_PING))
        # Warm-up, marker, measured tail, marker.
        procs = [
            self.sim.process(self._drain(link, WARMUP_BYTES)) for link in links
        ]
        await all_of(self.sim, procs)
        await links[0].send_all(bytes([P_DONE]))
        procs = [
            self.sim.process(self._drain(link, BULK_BYTES)) for link in links
        ]
        await all_of(self.sim, procs)
        await links[0].send_all(bytes([P_DONE]))

    @staticmethod
    async def _drain(link: Link, nbytes: int):
        await link.recv_exactly(nbytes)

    async def finish(self, service_link: Link):
        """Tell the responder's :meth:`serve` loop to stop."""
        await send_frame(service_link, bytes([P_BYE, 0, 0]))


def select_spec(signals: LinkSignals) -> StackSpec:
    """The §8 goal: pick a driver stack for the measured WAN settings.

    :class:`~repro.tune.planner.TunePlanner` decides — stream count from
    the BDP rule with loss headroom, compression from the CPU-rate /
    payload-ratio crossover — and its plan is written as a stack:
    compression ``on`` statically, ``off`` not at all, ``auto`` through
    the *adaptive* driver.  A caller that knows the loss, the CPU rate
    or the workload's payload ratio sets them on ``signals``.

    Returns a :class:`~repro.core.utilization.spec.StackSpec` whose
    ``label`` records the decision (the canonical string plus the reason),
    ready to use as an experiment axis.
    """
    plan = TunePlanner().plan(signals)
    streams = plan.streams or 1
    spec = StackSpec.parallel(streams) if streams > 1 else StackSpec.tcp()
    if plan.compress == "on":
        spec, reason = spec.with_compression(), "cpu-beats-wire"
    elif plan.compress == "off":
        reason = "wire-beats-cpu"
    else:
        spec, reason = spec.with_adaptive(), "compressibility-unknown"
    spec = spec.with_label(f"{spec}#{reason}")
    obs.metrics().counter("monitor.spec_selections_total", spec=str(spec)).inc()
    obs.event(
        "monitor.spec_selected", spec=str(spec), streams=streams, reason=reason
    )
    return spec
