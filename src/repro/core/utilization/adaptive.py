"""Adaptive on-line compression (paper §4.3 and §8 future work).

"Some advanced mechanisms of on-the-fly compression, like AdOC, are able
to dynamically adapt the compression level according to their
environment" and the paper's future work names "the dynamic enabling or
disabling of compression".

Strategy (AdOC-flavoured ε-greedy): measure the effective per-block
throughput of each mode — raw vs. zlib-1 — from the block's own wall-clock
(simulated) send time.  Crucially, only *saturated* samples count: a block
absorbed instantly by an empty send buffer says nothing about which mode is
better (the link is underutilized either way), and treating it as an
"infinitely fast" sample would poison the estimate.  A sample is saturated
when its effective rate falls below a high cutoff, i.e. the block actually
waited on the CPU or the network.  Per-mode statistics decay exponentially
so the driver tracks a changing environment, and the minority mode is
re-probed periodically.

The wire format is identical to :class:`CompressionDriver` (flag byte per
block), so the receive side needs no mode agreement.
"""

from __future__ import annotations

import zlib
from typing import Optional

from ... import obs
from ...simnet.cpu import charge
from .base import DriverError, FilterDriver
from .compression import FLAG_DEFLATE, FLAG_RAW, inflate_block

__all__ = ["AdaptiveCompressionDriver"]


class AdaptiveCompressionDriver(FilterDriver):
    """Per-block raw/compressed decision from measured throughput."""

    name = "adaptive"

    #: a sample is "saturated" (informative) when its effective rate is
    #: below this — faster means the block never waited on anything
    SATURATION_RATE = 2e8
    #: decay applied to accumulated per-mode statistics on every sample
    DECAY = 0.97
    #: saturated samples needed before a mode's rate estimate is trusted
    MIN_SAMPLES = 3

    def __init__(
        self,
        child,
        host,
        level: int = 1,
        probe_every: int = 16,
    ):
        super().__init__(child)
        if host is None:
            raise DriverError("adaptive compression needs a host (for its clock)")
        self.host = host
        self.sim = host.sim
        self.level = level
        self.probe_every = probe_every
        # mode -> [saturated bytes, saturated seconds, saturated samples]
        self._stats: dict[int, list] = {
            FLAG_RAW: [0.0, 0.0, 0],
            FLAG_DEFLATE: [0.0, 0.0, 0],
        }
        self._counter = 0
        self.mode_counts = {FLAG_RAW: 0, FLAG_DEFLATE: 0}
        reg = obs.metrics()
        self._mode_total = {
            flag: reg.counter("compress.mode_total", driver=self.name, mode=mode)
            for flag, mode in ((FLAG_RAW, "raw"), (FLAG_DEFLATE, "deflate"))
        }
        #: tuner override: None (learn), "raw" or "compress" (pinned)
        self.force_mode: Optional[str] = None

    def _rate_of(self, mode: int) -> Optional[float]:
        nbytes, seconds, count = self._stats[mode]
        if count < self.MIN_SAMPLES or seconds <= 0:
            return None
        return nbytes / seconds

    def _choose_mode(self) -> int:
        self._counter += 1
        if self.force_mode == "raw":
            return FLAG_RAW
        if self.force_mode == "compress":
            return FLAG_DEFLATE
        raw, comp = self._rate_of(FLAG_RAW), self._rate_of(FLAG_DEFLATE)
        if raw is None and comp is None:
            # No congestion signal at all: alternate cheaply.
            return FLAG_RAW if self._counter % 2 else FLAG_DEFLATE
        if raw is None:
            # Raw never congests: nothing to gain from compressing — stay
            # raw, re-probing compression occasionally.
            return FLAG_DEFLATE if self._counter % self.probe_every == 0 else FLAG_RAW
        if comp is None:
            # Raw congests and compression is unmeasured: favour learning
            # about compression quickly.
            return FLAG_RAW if self._counter % 4 == 0 else FLAG_DEFLATE
        best = FLAG_DEFLATE if comp > raw else FLAG_RAW
        if self._counter % self.probe_every == 0:
            return FLAG_DEFLATE if best == FLAG_RAW else FLAG_RAW  # probe
        return best

    def _update(self, mode: int, nbytes: int, seconds: float) -> None:
        if nbytes <= 0:
            return
        if seconds <= 0 or nbytes / seconds > self.SATURATION_RATE:
            return  # unsaturated: carries no signal about the bottleneck
        stats = self._stats[mode]
        stats[0] = stats[0] * self.DECAY + nbytes
        stats[1] = stats[1] * self.DECAY + seconds
        stats[2] += 1

    @property
    def current_preference(self) -> str:
        raw, comp = self._rate_of(FLAG_RAW), self._rate_of(FLAG_DEFLATE)
        if raw is None and comp is None:
            return "undecided"
        if raw is None:
            return "raw"  # raw never congests: no reason to compress
        if comp is None:
            return "compress"  # raw congests; compression unmeasured so far
        return "compress" if comp > raw else "raw"

    async def send_block(self, block: bytes):
        mode = self._choose_mode()
        t0 = self.sim.now
        if mode == FLAG_DEFLATE:
            await charge(self.host, "compress", len(block))
            deflated = zlib.compress(block, self.level)
            if len(deflated) < len(block):
                payload = bytes([FLAG_DEFLATE]) + deflated
            else:
                payload = bytes([FLAG_RAW]) + block
        else:
            payload = bytes([FLAG_RAW]) + block
        await self.child.send_block(payload)
        self.mode_counts[mode] += 1
        self._update(mode, len(block), self.sim.now - t0)
        self._mode_total[mode].inc()

    async def recv_block(self):
        payload = await self.child.recv_block()
        block = inflate_block(payload)
        if payload[0] == FLAG_DEFLATE:
            await charge(self.host, "decompress", len(block))
        return block
