"""Scenario registry: contents, constructibility, spec plumbing."""

import numpy as np
import pytest

from repro.scenarios import (
    FailureSpec,
    PolicySpec,
    Scenario,
    ScenarioRunner,
    TopologySpec,
    TrafficSpec,
    derive_tunnels,
    generate_traffic,
    get_scenario,
    list_scenarios,
    plan_failures,
    register,
)


class TestRegistry:
    def test_at_least_ten_builtins(self):
        assert len(list_scenarios()) >= 10

    def test_names_sorted_and_unique(self):
        names = [s.name for s in list_scenarios()]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_paper_scenarios_present(self):
        assert get_scenario("fig11-latency-migration").tunnels is not None
        assert get_scenario("fig12-flow-aggregation").tunnels is not None

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        existing = list_scenarios()[0]
        with pytest.raises(ValueError, match="already registered"):
            register(existing)

    def test_every_builtin_has_description_and_valid_backend(self):
        from repro.scenarios import BACKENDS

        for scenario in list_scenarios():
            assert scenario.description
            assert scenario.backend in BACKENDS

    def test_scale_tier_is_tagged_and_excludable(self):
        scale = [s for s in list_scenarios() if "scale" in s.tags]
        assert len(scale) >= 4
        assert all(s.name.startswith("scale-") for s in scale)
        assert all(s.backend == "hybrid" for s in scale)
        assert all(s.traffic.n_flows >= 2000 for s in scale)
        small = list_scenarios(include_scale=False)
        assert not [s for s in small if "scale" in s.tags]
        assert len(small) + len(scale) == len(list_scenarios())


class TestSpecPlumbing:
    def test_every_builtin_topology_builds(self):
        for scenario in list_scenarios():
            network = scenario.topology.build()
            assert network.hosts and network.routers

    def test_every_builtin_generates_traffic_deterministically(self):
        for scenario in list_scenarios():
            network = scenario.topology.build()
            first = generate_traffic(
                network, scenario.traffic, scenario.horizon,
                np.random.default_rng(scenario.seed),
            )
            second = generate_traffic(
                network, scenario.traffic, scenario.horizon,
                np.random.default_rng(scenario.seed),
            )
            assert first == second
            assert len(first) >= 1

    def test_every_builtin_derives_tunnels(self):
        for scenario in list_scenarios():
            runner = ScenarioRunner(scenario, backend="fluid").setup()
            assert len(runner.tunnels) >= 1
            for _, _, path in runner.tunnels:
                assert len(path) >= 2

    def test_unknown_topology_kind(self):
        with pytest.raises(KeyError, match="unknown topology"):
            TopologySpec("moebius").build()

    def test_generated_flows_have_distinct_tos(self):
        """PBR steers by (src, dst, tos): a shared ToS would conflate two
        flows of the same host pair, so every flow gets its own byte."""
        network = TopologySpec("line", {"n_routers": 3}).build()
        requests = generate_traffic(
            network, TrafficSpec("uniform", n_flows=40), 60.0,
            np.random.default_rng(0),
        )
        tos_values = [r.tos for r in requests]
        assert len(set(tos_values)) == len(tos_values)
        assert all(0 < t <= 255 for t in tos_values)

    def test_flow_budget_beyond_tos_space_rejected(self):
        network = TopologySpec("line", {"n_routers": 3}).build()
        with pytest.raises(ValueError, match="ToS"):
            generate_traffic(network, TrafficSpec("uniform", n_flows=300),
                             60.0, np.random.default_rng(0))

    def test_unknown_traffic_pattern(self):
        network = TopologySpec("line", {"n_routers": 3}).build()
        with pytest.raises(KeyError, match="unknown traffic pattern"):
            generate_traffic(network, TrafficSpec("fractal"), 10.0,
                             np.random.default_rng(0))

    def test_unknown_failure_kind(self):
        network = TopologySpec("line", {"n_routers": 3}).build()
        with pytest.raises(KeyError, match="unknown failure kind"):
            plan_failures(network, FailureSpec("meteor"), 10.0,
                          np.random.default_rng(0))

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            Scenario(name="x", description="x",
                     topology=TopologySpec("line"), backend="quantum")

    def test_with_overrides_keeps_original(self):
        base = get_scenario("line-baseline")
        short = base.quick(horizon=5.0, warmup=1.0)
        assert short.horizon == 5.0 and base.horizon == 30.0
        assert short.name == base.name

    def test_failure_plan_is_time_ordered(self):
        scenario = get_scenario("ring-link-flap")
        network = scenario.topology.build()
        plan = plan_failures(network, scenario.failures, scenario.horizon,
                             np.random.default_rng(0))
        assert [e.at for e in plan] == sorted(e.at for e in plan)
        assert {e.action for e in plan} == {"fail", "restore"}

    def test_node_down_fails_every_link_of_the_node(self):
        scenario = get_scenario("geo-node-failure")
        network = scenario.topology.build()
        plan = plan_failures(network, scenario.failures, scenario.horizon,
                             np.random.default_rng(scenario.seed))
        failed = [e for e in plan if e.action == "fail"]
        assert failed
        # all fail events share one router endpoint: the downed node
        common = set.intersection(*({e.a, e.b} for e in failed))
        assert len(common) == 1

    def test_derive_tunnels_respects_k_paths(self):
        scenario = get_scenario("ring-uniform")
        network = scenario.topology.build()
        requests = generate_traffic(
            network, scenario.traffic, scenario.horizon,
            np.random.default_rng(scenario.seed),
        )
        tunnels = derive_tunnels(network, requests, k_paths=1)
        pairs = {(path[0], path[-1]) for _, _, path in tunnels}
        assert len(tunnels) == len(pairs)  # exactly one tunnel per pair


class TestPolicySpec:
    def test_defaults(self):
        policy = PolicySpec()
        assert policy.objective == "max_bandwidth"
        assert policy.model == "linear"
        assert policy.reoptimize_every is None

    def test_unknown_model_raises_at_setup(self):
        scenario = get_scenario("line-baseline").with_overrides(
            policy=PolicySpec(model="oracle")
        )
        with pytest.raises(KeyError, match="unknown model"):
            ScenarioRunner(scenario, backend="des").setup()

    def test_service_driver_raises_the_same_error(self):
        import dataclasses

        from repro.framework.service_mode import ServiceDriver
        from repro.scenarios import get_workload

        base = get_workload("ring-steady")
        workload = base.with_overrides(
            policy=dataclasses.replace(base.policy, model="oracle")
        )
        with pytest.raises(KeyError, match="unknown model 'oracle'.*R13"):
            ServiceDriver(workload)

    @pytest.mark.parametrize("model", ["R11", "GBR", "X1"])
    def test_roster_model_is_fitted_in_the_loop(self, model):
        """Paper id, label and extension id all reach Hecate: past the
        30-sample training floor the named regressor really is fitted."""
        from repro.ml import make_regressor

        scenario = (
            get_scenario("line-baseline")
            .quick(horizon=4.0, warmup=32.0)
            .with_overrides(policy=PolicySpec(model=model))
        )
        runner = ScenarioRunner(scenario, backend="des")
        result = runner.run()
        assert result.placed == result.offered > 0
        assert runner.sdn.hecate.fits > 0
        assert isinstance(
            runner.sdn.hecate.model_factory(), type(make_regressor(model))
        )

    def test_rfr_alias_is_not_the_roster_rfr(self):
        """``rfr`` is the control-loop forest (30 trees, what the RFR
        pin and the perf ledger run); ``RFR``/``R13`` is the paper
        default (100)."""
        from repro.hecate.service import default_model_factory, resolve_model
        from repro.ml import LinearRegression

        assert resolve_model("rfr") is default_model_factory
        assert resolve_model("rfr")().n_estimators == 30
        assert resolve_model("RFR") is resolve_model("R13")
        assert resolve_model("R13")().n_estimators == 100
        assert resolve_model("linear") is LinearRegression
