"""Public API surface: exports exist, are documented, and are importable."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.simnet",
    "repro.security",
    "repro.core",
    "repro.core.establishment",
    "repro.core.utilization",
    "repro.ipl",
    "repro.livenet",
    "repro.workloads",
    "repro.util",
    "repro.obs",
    "repro.chaos",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert getattr(module, name, None) is not None, f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_has_docstring(package):
    module = importlib.import_module(package)
    assert module.__doc__ and module.__doc__.strip()


def test_public_classes_are_documented():
    import repro.core as core
    import repro.ipl as ipl
    import repro.simnet as simnet

    for module in (core, ipl, simnet):
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{module.__name__}.{name} lacks a docstring"


def test_top_level_convenience_exports():
    import repro

    assert repro.GridScenario.__name__ == "GridScenario"
    assert repro.Ibis.__name__ == "Ibis"
    assert repro.LiveIbis.__name__ == "LiveIbis"
    with pytest.raises(AttributeError):
        repro.NotAThing


def test_top_level_surface_is_coherent():
    """The redesigned top-level API: one import for the common objects."""
    import repro

    for name in (
        "GridNode",
        "BrokeredConnectionFactory",
        "TlsConfig",
        "StackSpec",
        "LayerSpec",
        "SendPort",
        "ReceivePort",
        "PathMonitor",
        "select_spec",
        "MetricsRegistry",
        "get_registry",
        "enable_tracing",
        "disable_tracing",
        "span",
        "event",
        "export_jsonl",
    ):
        assert name in repro.__all__, name
        assert getattr(repro, name) is not None, name
    # __dir__ advertises the lazy exports too
    assert "StackSpec" in dir(repro)


def test_typed_stack_spec_round_trip():
    import repro

    spec = repro.StackSpec.parallel(4).with_compression()
    assert str(spec) == "compress:1|parallel:4"
    assert repro.StackSpec.parse(str(spec)) == spec


def test_string_spec_coercion_shim_is_gone():
    # The as_spec deprecation shim was deleted: strings are wire-only and
    # must go through StackSpec.parse explicitly.
    import pytest

    with pytest.raises(ImportError):
        from repro.core.utilization.spec import as_spec  # noqa: F401

    from repro.core.utilization.stack import parse_stack

    with pytest.raises(TypeError):
        parse_stack("compress:1|parallel:4")


def test_fidelity_tier_surface_is_public():
    """The SimBackend protocol and both tiers are first-class exports."""
    import repro.simnet as simnet

    for name in (
        "SimBackend",
        "PacketBackend",
        "FlowBackend",
        "FlowNetwork",
        "FluidFlow",
        "make_backend",
        "FIDELITIES",
        "aimd_rate",
        "spec_flow_params",
    ):
        assert name in simnet.__all__, name
        assert getattr(simnet, name) is not None, name
    assert simnet.FIDELITIES == ("packet", "flow")


def test_chaos_registry_surface_is_public():
    """Scenario lookup goes through the registry, not the legacy dict."""
    import repro.chaos as chaos

    for name in ("scenario", "get_scenario", "scenario_names", "ScenarioDef"):
        assert name in chaos.__all__, name
        assert getattr(chaos, name) is not None, name
    assert "fleet_fanin" in chaos.scenario_names()


def test_version_is_pep440ish():
    import repro

    parts = repro.__version__.split(".")
    assert all(part.isdigit() for part in parts)


def test_stats_shim_module_is_gone():
    # repro.simnet.stats (the deprecated meters home) was removed outright;
    # the helpers live in repro.obs.meters.
    import pytest

    with pytest.raises(ModuleNotFoundError):
        import repro.simnet.stats  # noqa: F401


def test_measure_stack_throughput_rejects_strings():
    import pytest

    from repro.core.scenarios import GridScenario

    sc = GridScenario(seed=1)
    sc.add_site("a", "open")
    sc.add_site("b", "open")
    sc.add_node("a", "src")
    sc.add_node("b", "dst")
    with pytest.raises(TypeError, match="wire-only"):
        sc.measure_stack_throughput("src", "dst", "tcp_block", b"x", 1024)
