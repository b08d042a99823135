"""repro.tune — the closed-loop autotuning control plane.

The paper picks its establishment method once (Figure 4) and leaves
"parameter adaptation, like selection of the optimal number of parallel
TCP streams or the dynamic enabling or disabling of compression" as
future work (§8).  This package is that loop:

* :mod:`~repro.tune.signals` — what the tuner observes
  (:class:`LinkSignals`, :class:`GaugeSignalSource`);
* :mod:`~repro.tune.planner` — pure planning
  (:class:`TunePlanner`, :func:`recommend_streams` and the other
  BDP/stream-count formulas);
* :mod:`~repro.tune.knobs` — how targets reach a running stack
  (:class:`StackKnobs`, :class:`StaticKnobs`);
* :mod:`~repro.tune.loop` — the controller with its hysteresis-backed
  no-oscillation bound (:class:`LinkTuner`, :func:`gated_apply`).

See ``docs/TUNING.md``.
"""

from .knobs import KnobError, StackKnobs, StaticKnobs
from .loop import LinkTuner, TunerDecision, gated_apply
from .planner import (
    HEADROOM,
    TunePlan,
    TunePlanner,
    TunerPolicy,
    estimate_bdp,
    loss_headroom,
    recommend_streams,
)
from .signals import Ewma, GaugeSignalSource, LinkSignals, WindowedMax, WindowedMin

__all__ = [
    "HEADROOM",
    "estimate_bdp",
    "loss_headroom",
    "recommend_streams",
    "TunerPolicy",
    "TunePlan",
    "TunePlanner",
    "LinkSignals",
    "GaugeSignalSource",
    "WindowedMin",
    "WindowedMax",
    "Ewma",
    "KnobError",
    "StaticKnobs",
    "StackKnobs",
    "LinkTuner",
    "TunerDecision",
    "gated_apply",
]
