"""Chaos scenario registry: ``@scenario(...)`` self-registration.

Scenarios used to live in an ad-hoc name→function dict at the bottom of
``runner.py``; anything new (and anything living in another module, like
the fleet-scale scenarios) had to edit that dict by hand.  Builders now
self-register::

    from repro.chaos.registry import scenario

    @scenario("fleet_fanin")
    def _build_fleet_fanin(seed, retries, sessions):
        ...
        return workload

A :class:`ScenarioDef` records which backends its builder serves
(default: the simulator; ``backends=("sim", "live")`` hands the builder
a ``backend=`` keyword); :func:`get_scenario` is the lookup the runner
and CLI use.  A scenario's simulation tier is not declared: it is the
network its builder builds on (``scenario.backend.tier``).
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = [
    "ScenarioDef",
    "scenario",
    "get_scenario",
    "scenario_names",
]

_REGISTRY: dict[str, "ScenarioDef"] = {}


class ScenarioDef:
    """One registered chaos scenario: its builder and where it runs.

    ``builder`` constructs the workload on every backend in
    ``backends``; a builder that runs on more than one takes a
    ``backend=`` keyword.
    """

    __slots__ = ("name", "builder", "description", "backends")

    def __init__(
        self,
        name: str,
        builder: Callable,
        description: str = "",
        backends: Sequence[str] = ("sim",),
    ):
        self.name = name
        self.builder = builder
        self.description = description
        self.backends = tuple(backends)

    def build(self, seed: int, retries: bool, sessions: bool,
              backend: str = "sim"):
        """Build the workload on ``backend``."""
        if backend not in self.backends:
            raise ValueError(
                f"scenario {self.name!r} does not run on backend "
                f"{backend!r}; supported backends: {self.backends}"
            )
        kwargs = {"backend": backend} if len(self.backends) > 1 else {}
        return self.builder(seed, retries, sessions, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ScenarioDef {self.name} backends={self.backends}>"


def scenario(
    name: str,
    *,
    backends: Sequence[str] = ("sim",),
) -> Callable:
    """Decorator: register a workload builder under ``name``.

    The builder is called ``builder(seed, retries, sessions)`` — plus a
    ``backend=`` keyword if it runs on more than one of ``backends`` —
    and must return a :class:`~repro.chaos.runner.Workload`.
    """

    def register(builder: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"chaos scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioDef(
            name, builder, description=(builder.__doc__ or "").strip(),
            backends=backends,
        )
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
