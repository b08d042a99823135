"""Channel multiplexing: many logical channels per established link.

The paper separates connection establishment from link utilization
(§3–4); this subsystem closes the loop by letting one expensively
established WAN link carry many independent conversations.  See
``docs/MUX.md`` for the frame protocol, credit semantics and the
scheduler contract.

Public surface:

* :class:`MuxEndpoint` — wraps any established link; ``open_channel`` /
  ``accept_channel`` yield :class:`MuxChannel` streams.
* :class:`MuxChannel` — a :class:`~repro.core.links.Link`: driver
  stacks, block channels and survivable sessions compose over it
  unchanged.
* :class:`MuxCore` / :class:`ChannelState` — the sans-IO protocol state
  machine both of the above (and the live ``AsyncMuxEndpoint``) bind to
  a substrate; ``b.feed(a.next_frame())`` wires two of them with no IO.
* :mod:`repro.mux.frames` — the transport-agnostic frame codec
  (versioned alongside framing v2), shared by sim and live endpoints.
* :mod:`repro.mux.scheduler` — round-robin (default) and weighted
  deficit-round-robin transmission scheduling.
"""

from .core import (
    DEFAULT_WINDOW,
    MAX_DATA_PAYLOAD,
    ChannelState,
    MuxCore,
    MuxError,
)
from .endpoint import MuxChannel, MuxEndpoint
from .frames import MUX_VERSION, MuxFrame, MuxProtocolError, decode_frame
from .scheduler import (
    RoundRobinScheduler,
    Scheduler,
    WeightedScheduler,
    make_scheduler,
)

__all__ = [
    "MuxEndpoint",
    "MuxChannel",
    "MuxCore",
    "ChannelState",
    "MuxError",
    "MuxProtocolError",
    "MuxFrame",
    "decode_frame",
    "MUX_VERSION",
    "DEFAULT_WINDOW",
    "MAX_DATA_PAYLOAD",
    "Scheduler",
    "RoundRobinScheduler",
    "WeightedScheduler",
    "make_scheduler",
]
