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
  when the single stream looks window-limited.
* :func:`select_spec` turns a :class:`PathEstimate` into a driver-stack
  specification: stream count from the BDP rule, compression from the
  CPU-rate/payload-ratio trade-off (or the adaptive driver when those are
  unknown).

Probing runs over ordinary brokered data links, so it works across any
middlebox combination the decision tree can handle.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from .. import obs
from ..simnet.packet import Addr
from ..tune.planner import recommend_streams
from .links import Link
from .utilization.spec import StackSpec
from .wire import recv_frame, send_frame

if TYPE_CHECKING:  # node imports mux, and mux imports this package
    from .node import GridNode

__all__ = ["PathEstimate", "PathMonitor", "select_spec"]

P_PING = 0
P_BULK = 1
P_DONE = 2
P_BYE = 3

PING_ROUNDS = 3
#: slow-start warm-up prefix, excluded from the measurement
WARMUP_BYTES = 262_144
#: steady-state bytes the bandwidth is computed over
BULK_BYTES = 786_432


@dataclass
class PathEstimate:
    """Measured characteristics of one WAN path."""

    rtt: float
    #: achievable single-TCP-stream bandwidth, bytes/s
    single_stream: float
    #: estimated path capacity, bytes/s (>= single_stream)
    capacity: float
    #: streams used by the escalation probe (1 if not escalated)
    probe_streams: int = 1

    @property
    def window_limited(self) -> bool:
        return self.capacity > 1.25 * self.single_stream


class PathMonitor:
    """Active path measurement between two grid nodes."""

    def __init__(self, node: GridNode, rcvbuf: int = 65536):
        self.node = node
        self.sim = node.sim
        self.rcvbuf = rcvbuf

    # -- initiator --------------------------------------------------------
    def estimate(self, service_link: Link, peer_info) -> Generator:
        """Probe the path to ``peer_info``; returns a :class:`PathEstimate`.

        The responder must be running :meth:`serve` on its side of the
        service link.  When the single stream is window-limited, the probe
        escalates (4, then 8 streams) until aggregate throughput stops
        scaling near-linearly — i.e. the pipe, not the windows, is the
        limit.
        """
        with obs.span("path.probe", peer=peer_info.node_id):
            rtt, single = yield from self._probe_once(service_link, peer_info, 1)
            window_cap = self.rcvbuf / rtt
            if single < 0.75 * window_cap:
                estimate = PathEstimate(
                    rtt=rtt, single_stream=single, capacity=single
                )
            else:
                capacity = single
                streams_used = 1
                for streams in (4, 8):
                    _r, multi = yield from self._probe_once(
                        service_link, peer_info, streams
                    )
                    capacity = max(capacity, multi)
                    streams_used = streams
                    if multi < 0.6 * streams * single:
                        break  # scaling flattened: we are seeing the pipe
                estimate = PathEstimate(
                    rtt=rtt,
                    single_stream=single,
                    capacity=capacity,
                    probe_streams=streams_used,
                )
        self._publish(peer_info.node_id, estimate)
        return estimate

    def _publish(self, peer: str, estimate: PathEstimate) -> None:
        """Publish the probe's results through the metrics registry."""
        reg = obs.metrics()
        reg.counter("path.probes_total", peer=peer).inc()
        reg.gauge("path.rtt_seconds", peer=peer).set(estimate.rtt)
        reg.gauge("path.single_stream_bps", peer=peer).set(estimate.single_stream)
        reg.gauge("path.capacity_bps", peer=peer).set(estimate.capacity)

    def _probe_once(self, service_link: Link, peer_info, streams: int) -> Generator:
        yield from send_frame(service_link, struct.pack("!BH", P_BULK, streams))
        links = []
        for _ in range(streams):
            link = yield from self.node.broker.initiate(service_link, peer_info)
            links.append(link)
        try:
            # RTT: ping-pong on the first link.
            rtts = []
            for _ in range(PING_ROUNDS):
                t0 = self.sim.now
                yield from links[0].send_all(struct.pack("!B", P_PING))
                yield from links[0].recv_exactly(1)
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

            warm = yield from links[0].recv_exactly(1)
            t1 = self.sim.now
            done = yield from links[0].recv_exactly(1)
            t2 = self.sim.now
            if warm != bytes([P_DONE]) or done != bytes([P_DONE]):
                raise RuntimeError("probe protocol violation")
            yield all_of(self.sim, procs)
            bandwidth = (BULK_BYTES * streams) / max(t2 - t1, 1e-9)
            return rtt, bandwidth
        finally:
            for link in links:
                link.close()

    @staticmethod
    def _pump(link: Link, payload: bytes) -> Generator:
        yield from link.send_all(payload)

    # -- responder ----------------------------------------------------------
    def serve(self, service_link: Link) -> Generator:
        """Answer probe requests on ``service_link`` until BYE/EOF."""
        while True:
            try:
                frame = yield from recv_frame(service_link)
            except EOFError:
                return
            if not frame or frame[0] == P_BYE:
                return
            kind, streams = struct.unpack("!BH", frame)
            if kind != P_BULK:
                raise RuntimeError(f"unexpected probe request {kind}")
            links = []
            for _ in range(streams):
                link = yield from self.node.broker.respond(service_link)
                links.append(link)
            yield from self._serve_probe(links)
            for link in links:
                link.close()

    def _serve_probe(self, links: list) -> Generator:
        from ..simnet.engine import all_of

        # Pings on the first link.
        for _ in range(PING_ROUNDS):
            yield from links[0].recv_exactly(1)
            yield from links[0].send_all(struct.pack("!B", P_PING))
        # Warm-up, marker, measured tail, marker.
        procs = [
            self.sim.process(self._drain(link, WARMUP_BYTES)) for link in links
        ]
        yield all_of(self.sim, procs)
        yield from links[0].send_all(bytes([P_DONE]))
        procs = [
            self.sim.process(self._drain(link, BULK_BYTES)) for link in links
        ]
        yield all_of(self.sim, procs)
        yield from links[0].send_all(bytes([P_DONE]))

    @staticmethod
    def _drain(link: Link, nbytes: int) -> Generator:
        yield from link.recv_exactly(nbytes)

    def finish(self, service_link: Link) -> Generator:
        """Tell the responder's :meth:`serve` loop to stop."""
        yield from send_frame(service_link, bytes([P_BYE, 0, 0]))


def select_spec(
    estimate: PathEstimate,
    rcvbuf: int = 65536,
    compress_rate: Optional[float] = None,
    payload_ratio: Optional[float] = None,
    max_streams: int = 16,
) -> "StackSpec":
    """The §8 goal: pick a driver stack for the measured WAN settings.

    * stream count — the BDP rule over the measured capacity;
    * compression — enabled statically when the CPU can out-compress the
      wire (``compress_rate`` and the workload's ``payload_ratio`` known),
      disabled when it clearly cannot, and left to the *adaptive* driver
      when unknown.

    Returns a :class:`~repro.core.utilization.spec.StackSpec` whose
    ``label`` records the decision (the canonical string plus the reason),
    ready to use as an experiment axis.
    """
    streams = recommend_streams(
        estimate.capacity, estimate.rtt, rcvbuf, max_streams=max_streams
    )
    bottom = StackSpec.parallel(streams) if streams > 1 else StackSpec.tcp()
    if compress_rate is not None and payload_ratio is not None:
        wire = min(estimate.capacity, streams * (rcvbuf / estimate.rtt))
        compressed_throughput = min(compress_rate, payload_ratio * wire)
        if compressed_throughput > 1.1 * wire:
            spec, reason = bottom.with_compression(), "cpu-beats-wire"
        else:
            spec, reason = bottom, "wire-beats-cpu"
    else:
        spec, reason = bottom.with_adaptive(), "compressibility-unknown"
    spec = spec.with_label(f"{spec}#{reason}")
    obs.metrics().counter("monitor.spec_selections_total", spec=str(spec)).inc()
    obs.event(
        "monitor.spec_selected", spec=str(spec), streams=streams, reason=reason
    )
    return spec
