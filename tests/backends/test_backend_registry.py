"""Backend registry & protocol: registration, dispatch, lifecycle."""

import pytest

from repro.backends import (
    BackendCapabilities,
    ExecutionBackend,
    backend_names,
    get_backend,
    is_registered,
    list_backends,
    register_backend,
)
from repro.backends.base import _REGISTRY
from repro.backends.des import DesBackend
from repro.backends.emulation import EmulationBackend
from repro.backends.fluid import FluidBackend
from repro.backends.hybrid import HybridBackend
from repro.scenarios import ScenarioRunner, get_scenario


class TestRegistry:
    def test_builtins_in_registration_order(self):
        assert backend_names() == ("des", "fluid", "hybrid", "emulation-mock")

    def test_get_backend_resolves_builtins(self):
        assert get_backend("des") is DesBackend
        assert get_backend("fluid") is FluidBackend
        assert get_backend("hybrid") is HybridBackend
        assert get_backend("emulation-mock") is EmulationBackend

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="unknown backend 'ns3'"):
            get_backend("ns3")
        with pytest.raises(KeyError, match="registered backends: des"):
            get_backend("ns3")

    def test_is_registered(self):
        assert is_registered("des")
        assert is_registered("emulation-mock")
        assert not is_registered("ns3")
        assert not is_registered(None)
        assert not is_registered(3)

    def test_list_backends_matches_names(self):
        capabilities = list_backends()
        assert [c.name for c in capabilities] == list(backend_names())
        assert all(isinstance(c, BackendCapabilities) for c in capabilities)
        assert all(c.description for c in capabilities)

    def test_capability_flags(self):
        by_name = {c.name: c for c in list_backends()}
        assert by_name["des"].packet_level
        assert not by_name["des"].fluid_model
        assert by_name["fluid"].fluid_model
        assert not by_name["fluid"].packet_level
        assert by_name["hybrid"].packet_level
        assert by_name["hybrid"].fluid_model
        assert by_name["hybrid"].uses_flow_classes
        assert by_name["emulation-mock"].external
        # only the external family leaves the process
        assert [c.name for c in list_backends() if c.external] == [
            "emulation-mock"
        ]

    def test_duplicate_name_is_rejected(self):
        class Shadow(DesBackend):
            name = "des"

        with pytest.raises(ValueError, match="already registered"):
            register_backend(Shadow)
        assert _REGISTRY["des"] is DesBackend  # untouched

    def test_nameless_class_is_rejected(self):
        class Nameless(ExecutionBackend):
            @classmethod
            def capabilities(cls):
                return BackendCapabilities(name="", description="x")

            def execute(self):
                pass

            def collect(self):
                raise NotImplementedError

        with pytest.raises(ValueError, match="non-empty"):
            register_backend(Nameless)

    def test_plugin_registers_and_unregisters(self):
        @register_backend
        class Plugin(FluidBackend):
            name = "test-plugin"

            @classmethod
            def capabilities(cls):
                return BackendCapabilities(
                    name=cls.name, description="test plugin", fluid_model=True
                )

        try:
            assert is_registered("test-plugin")
            assert get_backend("test-plugin") is Plugin
            # the spec layer accepts any registered name
            scenario = get_scenario("ring-uniform").with_overrides(
                backend="test-plugin"
            )
            assert scenario.backend == "test-plugin"
        finally:
            del _REGISTRY["test-plugin"]
        with pytest.raises(ValueError, match="backend must be one of"):
            get_scenario("ring-uniform").with_overrides(
                backend="test-plugin"
            )


class TestSpecValidation:
    def test_builtin_backend_names_accepted(self):
        for name in backend_names():
            scenario = get_scenario("ring-uniform").with_overrides(
                backend=name
            )
            assert scenario.backend == name

    def test_unknown_backend_name_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            get_scenario("ring-uniform").with_overrides(backend="quantum")


class TestLifecycle:
    def test_one_hybrid_class_serves_both_modes(self):
        import dataclasses

        plain = get_scenario("wan-elephant-mice").quick(
            horizon=3.0, warmup=1.0
        )
        aggregated = plain.with_overrides(
            classes=dataclasses.replace(
                plain.classes, aggregate_background=True
            )
        )
        assert get_backend("hybrid") is HybridBackend
        per_flow = ScenarioRunner(plain, backend=HybridBackend).run()
        per_class = ScenarioRunner(aggregated, backend=HybridBackend).run()
        assert per_flow.backend == per_class.backend == "hybrid"
        assert per_flow.background_classes == 0
        assert per_class.background_classes > 0
        assert per_class.background_flows == per_flow.background_flows

    def test_prepare_is_single_use(self):
        scenario = get_scenario("ring-uniform").quick(horizon=6.0, warmup=2.0)
        runner = ScenarioRunner(scenario, backend="fluid").setup()
        backend = FluidBackend()
        backend.prepare(scenario, runner.network, runner.tunnels, runner)
        with pytest.raises(RuntimeError, match="single-use"):
            backend.prepare(scenario, runner.network, runner.tunnels, runner)

    def test_execute_before_prepare_raises(self):
        with pytest.raises(RuntimeError, match="not prepared"):
            FluidBackend().execute()

    def test_collect_before_execute_raises(self):
        scenario = get_scenario("ring-uniform").quick(horizon=6.0, warmup=2.0)
        runner = ScenarioRunner(scenario, backend="fluid").setup()
        backend = FluidBackend()
        backend.prepare(scenario, runner.network, runner.tunnels, runner)
        with pytest.raises(RuntimeError, match="execute"):
            backend.collect()


class TestRunnerDispatch:
    def test_string_class_and_instance_agree(self):
        scenario = get_scenario("ring-uniform").quick(horizon=6.0, warmup=2.0)
        by_name = ScenarioRunner(scenario, backend="fluid").run()
        by_class = ScenarioRunner(scenario, backend=FluidBackend).run()
        by_instance = ScenarioRunner(scenario, backend=FluidBackend()).run()
        assert by_name == by_class == by_instance

    def test_unknown_string_backend_raises_value_error(self):
        scenario = get_scenario("ring-uniform").quick()
        with pytest.raises(ValueError, match="unknown backend"):
            ScenarioRunner(scenario, backend="ns3")

    def test_junk_backend_object_raises_value_error(self):
        scenario = get_scenario("ring-uniform").quick()
        with pytest.raises(ValueError, match="unknown backend"):
            ScenarioRunner(scenario, backend=42)

    def test_runner_echoes_backend_name(self):
        scenario = get_scenario("ring-uniform").quick()
        assert ScenarioRunner(scenario, backend="fluid").backend == "fluid"
        assert (
            ScenarioRunner(scenario, backend=FluidBackend).backend == "fluid"
        )

    def test_inconsistent_result_fails_validation(self):
        class LyingBackend(FluidBackend):
            def collect(self):
                import dataclasses

                return dataclasses.replace(super().collect(), placed=999)

        scenario = get_scenario("ring-uniform").quick(horizon=6.0, warmup=2.0)
        with pytest.raises(ValueError, match="inconsistent result"):
            ScenarioRunner(scenario, backend=LyingBackend).run()
