"""Chaos scenario registry: ``@scenario(...)`` self-registration.

Scenarios used to live in an ad-hoc name→function dict at the bottom of
``runner.py``; anything new (and anything living in another module, like
the fleet-scale scenarios) had to edit that dict by hand.  Builders now
self-register::

    from repro.chaos.registry import scenario

    @scenario("fleet_fanin", fidelities=("flow",))
    def _build_fleet_fanin(seed, retries, sessions, fidelity="flow"):
        ...
        return workload

A :class:`ScenarioDef` records which fidelity tiers the workload can run
on (default: packet only) and whether the builder wants the ``fidelity``
keyword; :func:`get_scenario` is the lookup the runner and CLI use.
"""

from __future__ import annotations

import inspect
from typing import Callable, Sequence

__all__ = [
    "ScenarioDef",
    "scenario",
    "live_scenario",
    "get_scenario",
    "scenario_names",
]

_REGISTRY: dict[str, "ScenarioDef"] = {}


class ScenarioDef:
    """One registered chaos scenario: builder(s) + the tiers it runs on.

    ``builder`` constructs the simulated workload (``None`` for a
    live-only scenario); ``live_builder`` is an *async* builder the live
    chaos runner awaits inside its event loop — a scenario carrying both
    runs unmodified on either backend.
    """

    __slots__ = (
        "name",
        "builder",
        "fidelities",
        "description",
        "_takes_fidelity",
        "live_builder",
    )

    def __init__(
        self,
        name: str,
        builder: Callable,
        fidelities: Sequence[str],
        description: str = "",
    ):
        self.name = name
        self.builder = builder
        self.fidelities = tuple(fidelities)
        self.description = description
        self.live_builder = None
        if builder is None:
            self._takes_fidelity = False
        else:
            params = inspect.signature(builder).parameters
            self._takes_fidelity = "fidelity" in params

    @property
    def default_fidelity(self) -> str:
        return self.fidelities[0]

    @property
    def backends(self) -> tuple:
        out = []
        if self.builder is not None:
            out.append("sim")
        if self.live_builder is not None:
            out.append("live")
        return tuple(out)

    def build(self, seed: int, retries: bool, sessions: bool, fidelity: str):
        """Build the workload at ``fidelity`` (must be a supported tier)."""
        if self.builder is None:
            raise ValueError(
                f"scenario {self.name!r} is live-only; run it with "
                "backend='live'"
            )
        if fidelity not in self.fidelities:
            raise ValueError(
                f"scenario {self.name!r} does not support fidelity "
                f"{fidelity!r}; supported: {self.fidelities}"
            )
        if self._takes_fidelity:
            return self.builder(seed, retries, sessions, fidelity=fidelity)
        return self.builder(seed, retries, sessions)

    def build_live(self, seed: int, retries: bool, sessions: bool):
        """Await-able live workload construction (coroutine, not a value)."""
        if self.live_builder is None:
            raise ValueError(
                f"scenario {self.name!r} has no live builder; supported "
                f"backends: {self.backends}"
            )
        return self.live_builder(seed, retries, sessions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ScenarioDef {self.name} fidelities={self.fidelities} "
            f"backends={self.backends}>"
        )


def scenario(
    name: str,
    *,
    fidelities: Sequence[str] = ("packet",),
) -> Callable:
    """Decorator: register a workload builder under ``name``.

    The builder is called ``builder(seed, retries, sessions)`` — plus a
    ``fidelity=`` keyword if its signature declares one — and must
    return a :class:`~repro.chaos.runner.Workload`.  ``fidelities``
    lists the simulation tiers the workload is valid on, default-first.
    """
    from ..simnet.backend import FIDELITIES

    for tier in fidelities:
        if tier not in FIDELITIES:
            raise ValueError(f"unknown fidelity {tier!r}; have {FIDELITIES}")
    if not fidelities:
        raise ValueError("a scenario needs at least one fidelity tier")

    def register(builder: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"chaos scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioDef(
            name, builder, fidelities, description=(builder.__doc__ or "").strip()
        )
        return builder

    return register


def live_scenario(name: str) -> Callable:
    """Decorator: attach an *async* live-backend builder under ``name``.

    The builder is an ``async def builder(seed, retries, sessions)``
    returning a :class:`~repro.chaos.runner.Workload` whose scenario is a
    live one (real sockets, a :class:`~repro.livenet.proxy.ChaosTcpProxy`
    gateway).  If a sim scenario of the same name exists the two share
    the registry entry — ``run_chaos(name, backend=...)`` picks the
    builder; otherwise the scenario is live-only.
    """

    def register(builder: Callable) -> Callable:
        sdef = _REGISTRY.get(name)
        if sdef is None:
            sdef = ScenarioDef(
                name, None, (), description=(builder.__doc__ or "").strip()
            )
            _REGISTRY[name] = sdef
        if sdef.live_builder is not None:
            raise ValueError(
                f"chaos scenario {name!r} already has a live builder"
            )
        sdef.live_builder = builder
        return builder

    return register


def get_scenario(name: str) -> ScenarioDef:
    """Look up a registered scenario (importing known scenario modules)."""
    _load_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos scenario {name!r}; have {sorted(_REGISTRY)}"
        ) from None


def scenario_names() -> list:
    """Every registered scenario name, sorted."""
    _load_builtin()
    return sorted(_REGISTRY)


def _load_builtin() -> None:
    """Import the modules whose ``@scenario`` decorators populate us."""
    from . import (  # noqa: F401 - imported for registration
        fleet,
        live,
        rollout,
        runner,
        tune,
    )
