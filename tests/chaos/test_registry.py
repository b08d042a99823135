"""The @scenario registry: registration, fidelity gating, legacy shim."""

import pytest

from repro.chaos import get_scenario, scenario, scenario_names
from repro.chaos.registry import _REGISTRY, ScenarioDef


@pytest.fixture
def scratch_registry():
    """Let a test register throwaway scenarios without leaking them."""
    before = dict(_REGISTRY)
    yield
    _REGISTRY.clear()
    _REGISTRY.update(before)


class TestRegistration:
    def test_builtins_are_registered(self):
        names = scenario_names()
        assert "wan_transfer" in names
        assert "fleet_fanin" in names
        assert names == sorted(names)

    def test_duplicate_name_rejected(self, scratch_registry):
        @scenario("dup_probe")
        def first(seed, retries, sessions):
            pass

        with pytest.raises(ValueError, match="already registered"):
            @scenario("dup_probe")
            def second(seed, retries, sessions):
                pass

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            scenario("bad_tier", fidelities=("quantum",))

    def test_empty_fidelities_rejected(self):
        with pytest.raises(ValueError):
            scenario("no_tier", fidelities=())

    def test_docstring_becomes_description(self, scratch_registry):
        @scenario("doc_probe")
        def builder(seed, retries, sessions):
            """One-line purpose."""

        assert get_scenario("doc_probe").description == "One-line purpose."


class TestLookup:
    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="wan_transfer"):
            get_scenario("nonexistent")

    def test_fidelity_tiers_recorded(self):
        assert get_scenario("wan_transfer").fidelities == ("packet",)
        fleet = get_scenario("fleet_fanin")
        assert fleet.fidelities == ("flow",)
        assert fleet.default_fidelity == "flow"

    def test_build_rejects_unsupported_tier(self):
        with pytest.raises(ValueError, match="does not support"):
            get_scenario("wan_transfer").build(
                seed=1, retries=True, sessions=False, fidelity="flow"
            )

    def test_fidelity_kwarg_forwarded_only_if_declared(self, scratch_registry):
        calls = {}

        @scenario("kw_probe", fidelities=("packet", "flow"))
        def with_kw(seed, retries, sessions, fidelity="packet"):
            calls["with"] = fidelity

        @scenario("plain_probe")
        def without_kw(seed, retries, sessions):
            calls["without"] = True

        get_scenario("kw_probe").build(1, True, False, fidelity="flow")
        get_scenario("plain_probe").build(1, True, False, fidelity="packet")
        assert calls == {"with": "flow", "without": True}

    def test_scenario_def_repr_and_type(self):
        assert isinstance(get_scenario("wan_transfer"), ScenarioDef)


class TestBackends:
    #: the scenarios whose one builder runs on both backends
    BOTH = (
        "wan_transfer", "mesh_failover", "canary_rollout", "canary_rollout_good",
        "wan_transfer_routed", "mux_fanin", "mux_starvation",
    )

    @pytest.mark.parametrize("name", BOTH)
    def test_one_builder_serves_both_backends(self, name):
        sdef = get_scenario(name)
        assert sdef.backends == ("sim", "live")
        assert sdef.builder is not None

    def test_the_live_tuner_workload_has_its_own_name(self):
        assert get_scenario("tune_window").backends == ("live",)
        assert get_scenario("tune_degrade").backends == ("sim",)

    def test_sim_only_scenario_refuses_live(self):
        with pytest.raises(ValueError, match="does not run on backend"):
            get_scenario("socks_transfer").build(
                1, True, False, fidelity="packet", backend="live"
            )

    def test_backend_kwarg_forwarded_only_to_multi_backend_builders(
        self, scratch_registry
    ):
        calls = {}

        @scenario("both_probe", backends=("sim", "live"))
        def both(seed, retries, sessions, backend="sim"):
            calls["both"] = backend

        @scenario("sim_probe")
        def sim_only(seed, retries, sessions):
            calls["sim"] = True

        get_scenario("both_probe").build(1, True, False, "packet", backend="live")
        get_scenario("sim_probe").build(1, True, False, "packet")
        assert calls == {"both": "live", "sim": True}
