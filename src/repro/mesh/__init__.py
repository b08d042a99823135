"""The relay mesh: gossip, failure detection and overlay routing.

Generalizes the single gateway relay of the paper's routed-message method
into a self-healing multi-relay overlay:

* relays **gossip** reachability and liveness — seeded anti-entropy
  rounds with per-relay incarnation numbers (:mod:`~repro.mesh.state`);
* a **deadline/phi failure detector** declares silent relays dead within
  a bounded time (:mod:`~repro.mesh.detector`);
* hosts consult a **route table** extending the Figure-4 decision tree
  with live path scores, load-weighted balancing and anti-flap
  hysteresis (:mod:`~repro.mesh.routes`);
* routed/session traffic **fails over mid-stream**: the surviving
  relays keep the destination reachable, and survivable sessions
  renegotiate RESUME through the new route with zero byte loss
  (:mod:`~repro.mesh.client` + :mod:`repro.core.session`).

Everything in ``state``/``detector``/``routes`` is backend-agnostic pure
logic (no clocks, no sockets); the simulated relay
(:mod:`repro.core.relay`) and the live relay (:mod:`repro.livenet.relay`)
drive the same state machines with their own timers.
"""

from .config import DEFAULT_MESH_CONFIG, MeshConfig
from .detector import DeadlineDetector
from .routes import RouteTable, ScoredRoute
from .state import MeshState, RelayEntry, decode_entries, encode_entries



def __getattr__(name: str):
    # The sim mesh client is a binding over repro.core.relay, which imports
    # the pure logic above; resolving it lazily keeps the package importable
    # from there.
    if name == "MeshRelayClient":
        from .client import MeshRelayClient
        return MeshRelayClient
    raise AttributeError(name)


__all__ = [
    "MeshConfig",
    "DEFAULT_MESH_CONFIG",
    "MeshState",
    "RelayEntry",
    "encode_entries",
    "decode_entries",
    "DeadlineDetector",
    "RouteTable",
    "ScoredRoute",
    "MeshRelayClient",
]
