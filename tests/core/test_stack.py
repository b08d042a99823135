"""Stack specification parsing and assembly."""

import pytest

from repro.core.links import TcpLink
from repro.core.utilization import (
    AdaptiveCompressionDriver,
    CompressionDriver,
    ParallelStreamsDriver,
    StackSpecError,
    TcpBlockDriver,
    TlsDriver,
    build_stack,
    find_driver,
    iter_drivers,
    links_required,
    parse_stack,
)
from repro.core.utilization.spec import SESSION, LayerSpec, StackSpec
from repro.simnet import connect, listen
from repro.simnet.testing import two_public_hosts


def P(text):
    return StackSpec.parse(text)


class TestParse:
    def test_single_networking_layer(self):
        assert parse_stack(P("tcp_block")) == [("tcp_block", {})]

    def test_parallel_with_count(self):
        assert parse_stack(P("parallel:4")) == [("parallel", {"streams": 4})]

    def test_full_stack(self):
        layers = parse_stack(P("tls|compress:1|parallel:8:fragment=8192"))
        assert layers == [
            ("tls", {}),
            ("compress", {"level": 1}),
            ("parallel", {"streams": 8, "fragment": 8192}),
        ]

    def test_keyword_params(self):
        layers = parse_stack(P("adaptive:probe=4|tcp_block"))
        assert layers[0] == ("adaptive", {"probe": 4})

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "nonsense",
            "compress",  # no networking layer at the bottom
            "tcp_block|compress",  # networking layer not last
            "tcp_block|tcp_block",
            "tls:9|tcp_block",  # tls takes no positional
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(StackSpecError):
            parse_stack(P(bad))

    def test_string_form_is_wire_only(self):
        # The as_spec() coercion shim is gone: strings are rejected with a
        # pointer at StackSpec.parse.
        for fn in (parse_stack, links_required):
            with pytest.raises(TypeError, match="wire-only"):
                fn("tcp_block")
        with pytest.raises(TypeError, match="wire-only"):
            build_stack("tcp_block", [], host=None)


class TestSessionLayer:
    def test_with_session_round_trips(self):
        spec = StackSpec.tcp().with_session(ack_every=4096)
        assert str(spec) == "tcp_block|session:ack=4096"
        assert StackSpec.parse(str(spec)) == spec
        assert spec.session == LayerSpec("session", {"ack": 4096})
        assert spec.session.name in SESSION

    def test_session_sits_below_networking(self):
        with pytest.raises(StackSpecError):
            StackSpec.parse("session|tcp_block")
        with pytest.raises(StackSpecError):
            StackSpec.parse("tcp_block|session|session")
        spec = StackSpec.parse("compress|parallel:4|session")
        assert spec.links_required == 4
        assert [l.name for l in spec.filters] == ["compress"]
        assert spec.bottom.name == "parallel"

    def test_with_session_is_single_shot(self):
        spec = StackSpec.tcp().with_session()
        with pytest.raises(StackSpecError):
            spec.with_session()
        assert spec.without_session() == StackSpec.tcp()

    def test_label_rides_along_without_affecting_identity(self):
        spec = StackSpec.tcp().with_label("axis-a")
        assert spec == StackSpec.tcp()
        assert hash(spec) == hash(StackSpec.tcp())
        assert str(spec) == "tcp_block"
        assert spec.with_session().label == "axis-a"

    def test_build_stack_ignores_session_layer(self):
        # The factory wraps links before assembly; build_stack only sees
        # the session layer as part of the spec.
        assert parse_stack(P("tcp_block|session")) == [
            ("tcp_block", {}),
            ("session", {}),
        ]
        assert links_required(P("tcp_block|session")) == 1


class TestLinksRequired:
    def test_tcp_block_needs_one(self):
        assert links_required(P("tcp_block")) == 1
        assert links_required(P("compress|tcp_block")) == 1

    def test_parallel_needs_n(self):
        assert links_required(P("parallel:4")) == 4
        assert links_required(P("tls|compress|parallel:8")) == 8


class TestBuild:
    def _links(self, n):
        inet, a, b = two_public_hosts()
        out = {}

        async def srv():
            listener = listen(b, 5000, backlog=n)
            out["b"] = []
            for _ in range(n):
                s = await listener.accept()
                out["b"].append(TcpLink(s, "client_server"))

        async def cli():
            out["a"] = []
            for _ in range(n):
                s = await connect(a, (b.ip, 5000))
                out["a"].append(TcpLink(s, "client_server"))

        inet.sim.process(srv())
        inet.sim.process(cli())
        inet.sim.run(until=30)
        return inet, a, out["a"]

    def test_build_tcp_block(self):
        _inet, host, links = self._links(1)
        stack = build_stack(P("tcp_block"), links, host=host)
        assert isinstance(stack, TcpBlockDriver)

    def test_build_layered(self):
        _inet, host, links = self._links(4)
        stack = build_stack(P("tls|compress|parallel:4"), links, host=host)
        kinds = [type(d) for d in iter_drivers(stack)]
        assert kinds == [TlsDriver, CompressionDriver, ParallelStreamsDriver]

    def test_build_adaptive(self):
        _inet, host, links = self._links(1)
        stack = build_stack(P("adaptive|tcp_block"), links, host=host)
        assert isinstance(stack, AdaptiveCompressionDriver)

    def test_find_driver(self):
        _inet, host, links = self._links(2)
        stack = build_stack(P("compress|parallel:2"), links, host=host)
        assert find_driver(stack, ParallelStreamsDriver) is not None
        assert find_driver(stack, TlsDriver) is None

    def test_wrong_link_count_rejected(self):
        _inet, host, links = self._links(2)
        with pytest.raises(StackSpecError):
            build_stack(P("tcp_block"), links, host=host)
        with pytest.raises(StackSpecError):
            build_stack(P("parallel:4"), links, host=host)
