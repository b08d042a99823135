"""repro — reproduction of "Wide-Area Communication for Grids" (HPDC 2004).

An integrated solution to the connectivity, performance and security
problems of grid wide-area communication, re-implemented in Python:

* :mod:`repro.simnet` — deterministic simulated WAN (TCP, firewalls, NAT,
  SOCKS, links with delay/bandwidth/loss).
* :mod:`repro.security` — from-scratch TLS-like security (SHAKE-256 records, DH,
  HKDF, Schnorr certificates).
* :mod:`repro.core` — the paper's contribution: connection-establishment
  methods (client/server, TCP splicing, SOCKS proxy, routed messages), the
  Figure 4 decision tree, and composable link-utilization drivers
  (TCP_Block, parallel streams, compression, TLS).
* :mod:`repro.ipl` — the Ibis Portability Layer: send/receive ports, name
  service, typed messages.
* :mod:`repro.livenet` — the same driver API over real asyncio sockets.
* :mod:`repro.obs` — observability: a process-wide metrics registry and
  structured trace events over both backends, with JSON-lines export.
* :mod:`repro.chaos` — deterministic fault injection: seeded
  ``FaultPlan``s, a scenario runner and end-to-end invariant checks.

The names below are the supported top-level surface; everything is
imported lazily so ``import repro`` stays light.
"""

__version__ = "1.0.0"

#: exported name -> (module, attribute)
_EXPORTS = {
    # scenario / runtime entry points
    "GridScenario": ("repro.core.scenarios", "GridScenario"),
    "GridNode": ("repro.core.node", "GridNode"),
    "Ibis": ("repro.ipl.runtime", "Ibis"),
    "LiveIbis": ("repro.livenet.runtime", "LiveIbis"),
    # connection establishment + utilization
    "BrokeredConnectionFactory": ("repro.core.factory", "BrokeredConnectionFactory"),
    "TlsConfig": ("repro.core.factory", "TlsConfig"),
    "StackSpec": ("repro.core.utilization.spec", "StackSpec"),
    "LayerSpec": ("repro.core.utilization.spec", "LayerSpec"),
    "StackSpecError": ("repro.core.utilization.spec", "StackSpecError"),
    # IPL ports
    "SendPort": ("repro.ipl.ports", "SendPort"),
    "ReceivePort": ("repro.ipl.ports", "ReceivePort"),
    # monitoring / automated selection
    "PathMonitor": ("repro.core.monitor", "PathMonitor"),
    "select_spec": ("repro.core.monitor", "select_spec"),
    # retry / chaos
    "RetryPolicy": ("repro.core.retry", "RetryPolicy"),
    "RetryExhausted": ("repro.core.retry", "RetryExhausted"),
    "FaultPlan": ("repro.chaos", "FaultPlan"),
    "run_chaos": ("repro.chaos", "run_chaos"),
    "ChaosReport": ("repro.chaos", "ChaosReport"),
    # observability
    "MetricsRegistry": ("repro.obs", "MetricsRegistry"),
    "get_registry": ("repro.obs", "get_registry"),
    "set_registry": ("repro.obs", "set_registry"),
    "enable_tracing": ("repro.obs", "enable_tracing"),
    "disable_tracing": ("repro.obs", "disable_tracing"),
    "span": ("repro.obs", "span"),
    "event": ("repro.obs", "event"),
    "export_jsonl": ("repro.obs", "export_jsonl"),
}


def __getattr__(name):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = ["__version__", *sorted(_EXPORTS)]
