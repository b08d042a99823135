"""Fidelity-agnostic simulation backend protocol.

The engine core (:class:`~repro.simnet.engine.Simulator`) is a plain
discrete-event loop; everything that makes a run *packet-level* — hosts
with TCP stacks, links that serialize segments, middleboxes — is one
**fidelity tier** built on top of it.  :class:`SimBackend` is the narrow
protocol both tiers implement:

* **clock + event scheduling** — delegated to the shared engine
  (``now``, ``timeout``, ``process``, ``call_later``, ``run``, ...);
* **link/host topology** — named endpoints joined by links that expose
  ``set_down`` (the chaos fault surface) and explicit asymmetric RTT
  halves;
* **driver attach points** — where workloads hook in: sockets and driver
  stacks on the packet tier, :class:`~repro.simnet.flow.FluidFlow`
  transfers on the flow tier;
* **teardown/leak probes** — ``pending_events`` and
  ``live_connections()``, so the chaos invariant suite runs unchanged
  against either tier.

Tiers:

``packet``
    The paper's Figures 9/10 machinery: a from-scratch Reno TCP over
    serializing links.  Cycle-accurate, expensive — tens of nodes.
``flow``
    The fluid fast path (:mod:`repro.simnet.flow`): each bulk transfer
    is an AIMD flow with a steady-state rate, links are capacity
    constraints shared max-min fairly, and the event loop only fires on
    flow arrival/departure/link change — 100k+ endpoints in seconds.

Pick a tier with :func:`make_backend`, or through the ``fidelity=`` knob
on :class:`~repro.core.utilization.spec.StackSpec` and the chaos runner.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Generator, Optional

from .engine import Event, Process, Simulator, Timeout

__all__ = ["SimBackend", "PacketBackend", "make_backend", "FIDELITIES"]

#: the valid values of every ``fidelity=`` knob, in default order
FIDELITIES = ("packet", "flow")


class SimBackend(abc.ABC):
    """The narrow engine surface a fidelity tier must provide.

    A backend owns a :class:`~repro.simnet.engine.Simulator` and exposes
    its clock/scheduling verbs plus the topology and leak probes the
    scenario/chaos layers need.  Code written against this protocol
    (scenario builders, invariant checks, fault schedulers) runs
    unchanged on any tier.
    """

    #: tier name, one of :data:`FIDELITIES`
    fidelity: str = ""

    def __init__(self, sim: Optional[Simulator] = None):
        self.sim = sim or Simulator()

    # -- clock + event scheduling (the shared engine core) -------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return self.sim.timeout(delay, value)

    def event(self) -> Event:
        return self.sim.event()

    def process(self, gen: Generator, name: str = "") -> Process:
        return self.sim.process(gen, name)

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        self.sim.call_later(delay, fn, *args)

    def call_at(self, when: float, fn: Callable, *args: Any) -> None:
        self.sim.call_at(when, fn, *args)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def run_until_triggered(self, event: Event, limit: float = 1e9) -> Any:
        return self.sim.run_until_triggered(event, limit=limit)

    # -- teardown / leak probes ----------------------------------------------
    @property
    def pending_events(self) -> int:
        """Events still scheduled on the engine heap (public probe)."""
        return self.sim.pending

    @abc.abstractmethod
    def live_connections(self) -> list:
        """Human-readable descriptions of connections still alive.

        After a scenario has been torn down and drained, anything this
        returns is a resource leak; the chaos invariant suite reports
        each entry verbatim.
        """

    # -- topology -------------------------------------------------------------
    @abc.abstractmethod
    def describe(self) -> dict:
        """Deterministic summary of the topology (host/link/flow counts)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} fidelity={self.fidelity} t={self.now}>"


class PacketBackend(SimBackend):
    """The packet-level tier: adapts the existing :class:`Network`.

    The hosts/links/TCP machinery predates this protocol; the adapter
    holds the :class:`~repro.simnet.topology.Network` and answers the
    protocol questions from its tables.  New code should reach topology
    through the backend; direct ``Network`` access still works but is
    the tier-specific (non-portable) surface.
    """

    fidelity = "packet"

    def __init__(self, net=None, seed: int = 0):
        if net is None:
            from .topology import Network

            net = Network(seed=seed)
        super().__init__(net.sim)
        self.net = net

    # -- topology -------------------------------------------------------------
    @property
    def hosts(self) -> dict:
        return self.net.hosts

    @property
    def links(self) -> list:
        return self.net.links

    def live_connections(self) -> list:
        """Every TCP connection still present in any host's stack."""
        leaks = []
        for name in sorted(self.net.hosts):
            host = self.net.hosts[name]
            stack = getattr(host, "_tcp", None)
            if stack is None:
                continue
            for (laddr, raddr), sock in sorted(stack._conns.items()):
                leaks.append(
                    f"{name} {laddr[0]}:{laddr[1]}->{raddr[0]}:{raddr[1]} "
                    f"[{sock.state}]"
                )
        return leaks

    def describe(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "hosts": len(self.net.hosts),
            "links": len(self.net.links),
        }


def make_backend(fidelity: str = "packet", seed: int = 0) -> SimBackend:
    """Factory for a fresh backend of the requested fidelity tier."""
    if fidelity == "packet":
        return PacketBackend(seed=seed)
    if fidelity == "flow":
        from .flow import FlowBackend

        return FlowBackend(seed=seed)
    raise ValueError(f"unknown fidelity {fidelity!r}; have {FIDELITIES}")
