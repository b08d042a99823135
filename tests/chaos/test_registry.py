"""The @scenario registry: registration, lookup, backends."""

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

    def test_docstring_becomes_description(self, scratch_registry):
        @scenario("doc_probe")
        def builder(seed, retries, sessions):
            """One-line purpose."""

        assert get_scenario("doc_probe").description == "One-line purpose."


class TestLookup:
    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="wan_transfer"):
            get_scenario("nonexistent")

    def test_tier_is_the_network_the_builder_builds(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_ENDPOINTS", "20")
        monkeypatch.setenv("REPRO_FLEET_WAVES", "2")
        packet = get_scenario("wan_transfer").build(1, True, False)
        fleet = get_scenario("fleet_fanin").build(1, True, False)
        assert packet.scenario.backend.tier == "packet"
        assert fleet.scenario.backend.tier == "flow"

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
            get_scenario("socks_transfer").build(1, True, False, backend="live")

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

        get_scenario("both_probe").build(1, True, False, backend="live")
        get_scenario("sim_probe").build(1, True, False)
        assert calls == {"both": "live", "sim": True}
