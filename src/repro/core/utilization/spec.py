"""Typed driver-stack specifications.

The stack spec used to travel the codebase as a bare string
(``"compress|parallel:4|tcp_block"``).  :class:`StackSpec` is the typed
form: an immutable, validated sequence of :class:`LayerSpec` layers with
builder methods, equal signatures on the simulated and live backends,
and a canonical string rendering that is byte-compatible with the old
wire format (the service link still carries ``str(spec)``, so "driver
assembly consistency on both endpoints" — §5.2 — is unchanged).

The string form is now *only* a wire/axis-label format: code that
receives a spec string from the service link (or uses one as an
experiment axis) parses it explicitly with :meth:`StackSpec.parse`.
The ``as_spec`` deprecation shim that silently coerced strings is gone.

Layer categories:

* **filtering** (``compress``, ``adaptive``, ``tls``) — any number, on top;
* **networking** (``tcp_block``, ``parallel``) — exactly one;
* **session** — optional, *below* the networking layer: the established
  links are wrapped in :class:`~repro.core.session.SessionLink` before the
  drivers are assembled, so the whole stack survives mid-stream link
  failure via reconnect + offset negotiation.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .base import DriverError

__all__ = [
    "LayerSpec",
    "StackSpec",
    "StackSpecError",
    "NETWORKING",
    "FILTERING",
    "SESSION",
    "MUX",
]

NETWORKING = {"tcp_block", "parallel"}
FILTERING = {"compress", "adaptive", "tls"}
SESSION = {"session"}
MUX = {"mux"}

_ALL_LAYERS = NETWORKING | FILTERING | SESSION | MUX

#: layer-specific meaning of the positional argument in the string form
_POSITIONAL = {
    "parallel": "streams",
    "compress": "level",
    "adaptive": "level",
    "mux": "win",
}


class StackSpecError(DriverError):
    """Invalid stack specification."""


def _parse_value(value: str):
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


class LayerSpec:
    """One driver layer: a name plus its parameters (immutable)."""

    __slots__ = ("name", "_params")

    def __init__(self, name: str, params: Optional[dict] = None):
        if name not in _ALL_LAYERS:
            raise StackSpecError(f"unknown layer {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_params", tuple(sorted((params or {}).items())))

    def __setattr__(self, *_args):  # pragma: no cover - defensive
        raise AttributeError("LayerSpec is immutable")

    @property
    def params(self) -> dict:
        return dict(self._params)

    @property
    def is_networking(self) -> bool:
        return self.name in NETWORKING

    @property
    def is_session(self) -> bool:
        return self.name in SESSION

    @property
    def is_mux(self) -> bool:
        return self.name in MUX

    def get(self, key: str, default=None):
        return dict(self._params).get(key, default)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LayerSpec)
            and self.name == other.name
            and self._params == other._params
        )

    def __hash__(self) -> int:
        return hash((self.name, self._params))

    def render(self) -> str:
        """The string-form fragment for this layer."""
        params = dict(self._params)
        fields = [self.name]
        positional = _POSITIONAL.get(self.name)
        if positional is not None and positional in params:
            fields.append(str(params.pop(positional)))
        fields.extend(f"{key}={value}" for key, value in sorted(params.items()))
        return ":".join(fields)

    def __repr__(self) -> str:
        return f"LayerSpec({self.name!r}, {dict(self._params)!r})"


def _parse_text(text: str) -> list:
    """Parse the string form into ``[(layer_name, params_dict), ...]``."""
    if not text.strip():
        raise StackSpecError("empty stack spec")
    layers: list[tuple[str, dict]] = []
    for part in text.split("|"):
        fields = part.strip().split(":")
        name = fields[0]
        if name not in _ALL_LAYERS:
            raise StackSpecError(f"unknown layer {name!r}")
        params: dict = {}
        for fld in fields[1:]:
            if "=" in fld:
                key, value = fld.split("=", 1)
                params[key] = _parse_value(value)
            elif fld:
                positional = _POSITIONAL.get(name)
                if positional is None:
                    raise StackSpecError(f"{name} takes no positional argument")
                params[positional] = int(fld)
        layers.append((name, params))
    return layers


class StackSpec:
    """A validated driver stack, top to bottom.

    Build one from the typed constructors::

        StackSpec.tcp()                                # plain TCP_Block
        StackSpec.parallel(4).with_compression()       # zlib over 4 streams
        StackSpec.tcp().with_tls()                     # TLS over TCP_Block
        StackSpec.tcp().with_session()                 # survivable stream

    or parse the wire string form with :meth:`parse`.  Exactly one layer
    must be a networking driver; everything above it is filtering; below
    it an optional ``session`` layer wraps each established link in a
    survivable :class:`~repro.core.session.SessionLink`.

    ``label`` is a free-form experiment-axis tag (e.g. what
    :func:`~repro.core.monitor.select_spec` decided and why); it is not
    part of the wire form and does not affect equality.
    """

    __slots__ = ("layers", "label")

    def __init__(
        self,
        layers: Sequence[LayerSpec],
        label: Optional[str] = None,
    ):
        layers = tuple(
            layer if isinstance(layer, LayerSpec) else LayerSpec(layer[0], layer[1])
            for layer in layers
        )
        if not layers:
            raise StackSpecError("empty stack spec")
        networking = [i for i, layer in enumerate(layers) if layer.is_networking]
        if len(networking) != 1:
            raise StackSpecError(
                f"stack needs exactly one networking layer, got {len(networking)}"
            )
        nl = networking[0]
        for layer in layers[:nl]:
            if layer.name not in FILTERING:
                raise StackSpecError(
                    f"layer {layer.name!r} cannot sit above the networking layer"
                )
        below = [layer.name for layer in layers[nl + 1 :]]
        if below not in ([], ["session"], ["mux"], ["session", "mux"]):
            raise StackSpecError(
                "below the networking layer only an optional session layer "
                "followed by an optional mux layer may appear"
            )
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "label", label)

    def __setattr__(self, *_args):  # pragma: no cover - defensive
        raise AttributeError("StackSpec is immutable")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "StackSpec":
        """Parse the wire string form (``"compress|parallel:4|tcp_block"``)."""
        return cls([LayerSpec(name, params) for name, params in _parse_text(text)])

    @classmethod
    def tcp(cls) -> "StackSpec":
        """A plain ``TCP_Block`` stack (one link, no filtering)."""
        return cls([LayerSpec("tcp_block")])

    # kept as the string-form name too, for discoverability
    tcp_block = tcp

    @classmethod
    def parallel(cls, streams: int, fragment: Optional[int] = None) -> "StackSpec":
        """A parallel-streams bottom layer (``streams`` established links)."""
        if streams < 1:
            raise StackSpecError("parallel needs at least one stream")
        params: dict = {"streams": streams}
        if fragment is not None:
            params["fragment"] = fragment
        return cls([LayerSpec("parallel", params)])

    # -- composition ----------------------------------------------------------
    def _pushed(self, layer: LayerSpec) -> "StackSpec":
        return StackSpec((layer,) + self.layers, label=self.label)

    def with_compression(self, level: int = 1) -> "StackSpec":
        """Static zlib compression above the current stack."""
        return self._pushed(LayerSpec("compress", {"level": level}))

    def with_adaptive(
        self, level: int = 1, probe_every: Optional[int] = None
    ) -> "StackSpec":
        """AdOC-style adaptive compression above the current stack."""
        params: dict = {"level": level}
        if probe_every is not None:
            params["probe"] = probe_every
        return self._pushed(LayerSpec("adaptive", params))

    def with_tls(self) -> "StackSpec":
        """The TLS-like security layer above the current stack."""
        return self._pushed(LayerSpec("tls"))

    def with_session(
        self,
        ack_every: Optional[int] = None,
        max_buffer: Optional[int] = None,
        heartbeat: Optional[float] = None,
    ) -> "StackSpec":
        """Wrap every established link in a survivable session (below the
        networking layer): replay buffer + cumulative acks + transparent
        re-establishment with offset negotiation on transport failure.
        """
        if self.session is not None:
            raise StackSpecError("stack already has a session layer")
        params: dict = {}
        if ack_every is not None:
            params["ack"] = int(ack_every)
        if max_buffer is not None:
            params["buf"] = int(max_buffer)
        if heartbeat is not None:
            params["hb"] = heartbeat
        # the session layer sits between the networking layer and any mux
        above = tuple(l for l in self.layers if not l.is_mux)
        mux = tuple(l for l in self.layers if l.is_mux)
        return StackSpec(
            above + (LayerSpec("session", params),) + mux,
            label=self.label,
        )

    def with_mux(
        self,
        window: Optional[int] = None,
        scheduler: Optional[str] = None,
    ) -> "StackSpec":
        """Multiplex every data channel of this stack over **one**
        established link (below any session layer): the factory brokers a
        single physical connection, wraps it in a
        :class:`~repro.mux.MuxEndpoint`, and opens one credit-controlled
        channel per link the networking layer needs.

        ``window`` is the per-channel credit window in bytes (``win`` in
        the wire form); ``scheduler`` picks the transmission policy
        (``"rr"`` round robin — the default — or ``"drr"`` weighted
        deficit round robin).
        """
        if self.mux is not None:
            raise StackSpecError("stack already has a mux layer")
        params: dict = {}
        if window is not None:
            params["win"] = int(window)
        if scheduler is not None:
            params["sched"] = scheduler
        return StackSpec(
            self.layers + (LayerSpec("mux", params),),
            label=self.label,
        )

    def without_mux(self) -> "StackSpec":
        """The same stack minus any mux layer."""
        if self.mux is None:
            return self
        return StackSpec(
            tuple(l for l in self.layers if not l.is_mux),
            label=self.label,
        )

    def with_label(self, label: Optional[str]) -> "StackSpec":
        """The same stack tagged with an experiment-axis label."""
        return StackSpec(self.layers, label=label)

    def without_session(self) -> "StackSpec":
        """The same stack minus any session layer."""
        if self.session is None:
            return self
        return StackSpec(
            tuple(l for l in self.layers if not l.is_session),
            label=self.label,
        )

    # -- inspection ------------------------------------------------------------
    @property
    def bottom(self) -> LayerSpec:
        """The networking layer."""
        for layer in self.layers:
            if layer.is_networking:
                return layer
        raise StackSpecError("stack has no networking layer")  # pragma: no cover

    @property
    def filters(self) -> tuple:
        """The filtering layers, top to bottom."""
        return tuple(layer for layer in self.layers if layer.name in FILTERING)

    @property
    def session(self) -> Optional[LayerSpec]:
        """The session layer, or None."""
        for layer in self.layers:
            if layer.is_session:
                return layer
        return None

    @property
    def mux(self) -> Optional[LayerSpec]:
        """The mux layer, or None."""
        for layer in self.layers:
            if layer.is_mux:
                return layer
        return None

    @property
    def links_required(self) -> int:
        """How many established data links the networking layer needs."""
        if self.bottom.name == "tcp_block":
            return 1
        return int(self.bottom.get("streams", 2))

    def layer(self, name: str) -> Optional[LayerSpec]:
        """The first layer with the given name, or None."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        return None

    def __contains__(self, name: str) -> bool:
        return self.layer(name) is not None

    def __iter__(self) -> Iterable[LayerSpec]:
        return iter(self.layers)

    def __eq__(self, other) -> bool:
        if isinstance(other, StackSpec):
            return self.layers == other.layers
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.layers)

    def __str__(self) -> str:
        return "|".join(layer.render() for layer in self.layers)

    def __repr__(self) -> str:
        text = f"StackSpec.parse({str(self)!r})"
        if self.label is not None:
            text += f".with_label({self.label!r})"
        return text
