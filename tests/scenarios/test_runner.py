"""ScenarioRunner: determinism, both backends, failure handling."""

import dataclasses

import pytest

from repro.scenarios import ScenarioRunner, get_scenario, list_scenarios

# the scale tier (2k-10k flows) is exercised by tests/scenarios/
# test_hybrid.py and the weekly scale-smoke CI job, not by every-builtin
# loops: per-flow fluid runs at that size are exactly what the hybrid
# backend exists to avoid
ALL_NAMES = [s.name for s in list_scenarios(include_scale=False)]

# cheap-to-emulate scenarios used for packet-level determinism checks
DES_FAST = ["fig11-latency-migration", "p4lab-bursty-udp", "line-link-flap"]


class TestFluidBackend:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_builtin_runs_and_is_deterministic(self, name):
        scenario = get_scenario(name).quick(horizon=8.0, warmup=2.0)
        first = ScenarioRunner(scenario, backend="fluid").run()
        second = ScenarioRunner(scenario, backend="fluid").run()
        assert first == second
        assert first.backend == "fluid"
        assert first.placed == first.offered
        assert first.rejected == 0
        assert first.total_throughput_mbps >= 0.0
        assert first.tunnels >= 1

    def test_seed_changes_the_workload(self):
        scenario = get_scenario("ring-uniform").quick()
        base = ScenarioRunner(scenario, backend="fluid").run()
        other = ScenarioRunner(scenario, backend="fluid", seed=99).run()
        assert base.seed != other.seed
        # different seeds draw different host pairs / start times
        assert base.per_flow_mbps != other.per_flow_mbps or base != other

    def test_icmp_probes_are_not_credited_with_capacity(self):
        """An ICMP probe is a latency instrument: 0 Mbps on both backends,
        not the path's full capacity."""
        scenario = get_scenario("fig11-latency-migration").quick()
        result = ScenarioRunner(scenario, backend="fluid").run()
        assert result.per_flow_mbps["ping1"] == 0.0
        assert result.total_throughput_mbps == 0.0

    def test_min_latency_objective_picks_lowest_delay_tunnel(self):
        """fig11 declares min_latency: the fluid backend must land the
        probe on T2 (2 ms), not the throughput-tied default T1 (22 ms)."""
        scenario = get_scenario("fig11-latency-migration").quick()
        result = ScenarioRunner(scenario, backend="fluid").run()
        assert result.mean_latency_ms == pytest.approx(2.0, abs=0.1)

    def test_udp_rate_caps_leave_capacity_to_elastic_flows(self):
        """Bounded max-min: a 2 Mbps CBR flow must not pin a co-bottlenecked
        TCP flow to half the link."""
        from repro.net.fluid import FluidFlow, max_min_fair_bounded

        rates = max_min_fair_bounded(
            [
                FluidFlow.from_path("udp", ("a", "b"), bound=2.0),
                FluidFlow.from_path("tcp", ("a", "b")),
            ],
            {("a", "b"): 50.0},
        )
        assert rates["udp"] == pytest.approx(2.0)
        assert rates["tcp"] == pytest.approx(48.0)

    def test_per_flow_objective_survives_policy_override(self):
        """Explicit non-default per-flow objectives win over the scenario
        policy; default-objective flows inherit the policy's."""
        from repro.scenarios import PolicySpec, TrafficSpec

        scenario = get_scenario("fig11-latency-migration").quick().with_overrides(
            policy=PolicySpec(objective="max_bandwidth"),
            traffic=TrafficSpec("explicit", n_flows=1, params={"flows": [
                {"flow_name": "ping1", "src": "host1", "dst": "host2",
                 "protocol": "icmp", "duration": 8.0,
                 "objective": "min_latency"},
            ]}),
        )
        runner = ScenarioRunner(scenario, backend="des")
        runner.run()
        decision = runner.sdn.decision_log()[0]
        assert decision["objective"] == "min_latency"

    def test_node_down_rejects_restore_before_failure(self):
        from repro.scenarios import FailureSpec

        scenario = get_scenario("geo-node-failure").quick().with_overrides(
            failures=FailureSpec("node_down",
                                 {"at": 20.0, "restore_at": 10.0}),
        )
        with pytest.raises(ValueError, match="restore_at"):
            ScenarioRunner(scenario, backend="fluid").setup()

    def test_failure_epochs_reduce_delivery(self):
        healthy = get_scenario("line-baseline").quick()
        flapping = get_scenario("line-link-flap").quick()
        # same single-path topology family; the flap must cost throughput
        r_flap = ScenarioRunner(flapping, backend="fluid").run()
        assert r_flap.failure_events == 2
        assert r_flap.drops >= 1  # (flow, epoch) outages on the only path
        r_healthy = ScenarioRunner(healthy, backend="fluid").run()
        assert r_healthy.drops == 0


class TestDesBackend:
    @pytest.mark.parametrize("name", DES_FAST)
    def test_fixed_seed_is_bit_deterministic(self, name):
        scenario = get_scenario(name).quick(horizon=6.0, warmup=2.0)
        first = ScenarioRunner(scenario, backend="des").run()
        second = ScenarioRunner(scenario, backend="des").run()
        assert first == second

    def test_runs_through_the_full_framework(self):
        scenario = get_scenario("p4lab-bursty-udp").quick(horizon=6.0, warmup=2.0)
        runner = ScenarioRunner(scenario, backend="des")
        result = runner.run()
        assert result.placed == result.offered > 0
        assert result.total_throughput_mbps > 0.0
        assert result.reconfigurations > 0  # ACL + PBR per placement
        # the framework conversation really happened over the bus
        topics = {m.topic for m in runner.sdn.bus.log}
        assert "hecate.ask_path" in topics
        assert "freertr.reconfig" in topics

    def test_link_flap_drops_packets_and_heals(self):
        scenario = get_scenario("line-link-flap").quick(horizon=6.0, warmup=2.0)
        result = ScenarioRunner(scenario, backend="des").run()
        assert result.failure_events == 2
        assert result.drops > 0  # blackout on the only path
        # traffic resumed after restore: flows still delivered something
        assert result.total_throughput_mbps > 0.0

    def test_staged_use_matches_auto_run(self):
        scenario = get_scenario("p4lab-bursty-udp").quick(horizon=6.0, warmup=2.0)
        auto = ScenarioRunner(scenario, backend="des").run()
        staged = ScenarioRunner(scenario, backend="des").setup()
        staged.sdn.run(until=scenario.warmup)
        staged.inject_traffic()
        staged.arm_failures()
        staged.sdn.run(until=scenario.warmup + scenario.horizon)
        assert staged.collect() == auto

    def test_collect_before_setup_raises(self):
        runner = ScenarioRunner(get_scenario("line-baseline").quick())
        with pytest.raises(RuntimeError):
            runner.collect()

    def test_result_is_frozen(self):
        scenario = get_scenario("fig11-latency-migration").quick(
            horizon=4.0, warmup=1.0
        )
        result = ScenarioRunner(scenario, backend="des").run()
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.drops = 0


class TestCrossBackend:
    def test_same_workload_on_both_backends(self):
        """Both backends must see the identical offered load and tunnels."""
        scenario = get_scenario("ring-uniform").quick(horizon=6.0, warmup=2.0)
        fluid = ScenarioRunner(scenario, backend="fluid").setup()
        des = ScenarioRunner(scenario, backend="des").setup()
        assert fluid.requests == des.requests
        assert fluid.tunnels == des.tunnels
        assert fluid.failure_plan == des.failure_plan

    def test_fig12_scenario_backends_agree_on_steady_state(self):
        """At full horizon the paper scenario's packet-level aggregate
        approximates the fluid max-min prediction (the Fig. 12 claim)."""
        scenario = get_scenario("fig12-flow-aggregation").with_overrides(
            horizon=40.0, warmup=35.0
        )
        fluid = ScenarioRunner(scenario, backend="fluid").run()
        # fluid sees the post-spread allocation: 20 + 10 + 5 = 35 Mbps
        assert fluid.total_throughput_mbps == pytest.approx(35.0, abs=1.0)


class TestResultSerialization:
    def _result(self, backend):
        scenario = get_scenario("ring-uniform").quick(horizon=6.0, warmup=2.0)
        return ScenarioRunner(scenario, backend=backend).run()

    @pytest.mark.parametrize("backend", ["fluid", "des"])
    def test_json_round_trip_is_exact(self, backend):
        """to_dict -> json -> from_dict must reproduce the result exactly,
        floats included (workers and the sweep cache both rely on it)."""
        import json

        from repro.scenarios import ScenarioResult

        result = self._result(backend)
        payload = json.loads(json.dumps(result.to_dict()))
        assert ScenarioResult.from_dict(payload) == result

    def test_to_dict_emits_builtins_only(self):
        result = self._result("fluid")
        payload = result.to_dict()
        assert all(type(k) is str for k in payload)
        assert type(payload["total_throughput_mbps"]) is float
        assert type(payload["drops"]) is int
        assert all(
            type(k) is str and type(v) is float
            for k, v in payload["per_flow_mbps"].items()
        )

    def test_from_dict_coerces_numeric_types(self):
        """JSON writers elsewhere may have stored 60 for 60.0 (or vice
        versa); from_dict normalises both directions."""
        from repro.scenarios import ScenarioResult

        payload = self._result("fluid").to_dict()
        payload["horizon_s"] = int(payload["horizon_s"])
        payload["drops"] = float(payload["drops"])
        rebuilt = ScenarioResult.from_dict(payload)
        assert type(rebuilt.horizon_s) is float
        assert type(rebuilt.drops) is int

    def test_from_dict_missing_field_raises(self):
        from repro.scenarios import ScenarioResult

        payload = self._result("fluid").to_dict()
        del payload["migrations"]
        with pytest.raises(KeyError):
            ScenarioResult.from_dict(payload)

    def test_from_dict_ignores_unknown_fields(self):
        from repro.scenarios import ScenarioResult

        payload = self._result("fluid").to_dict()
        payload["introduced_in_a_future_version"] = 1
        assert ScenarioResult.from_dict(payload) == self._result("fluid")

    def test_from_dict_rejects_unknown_backend_name(self):
        """A result claiming a backend nobody registered is a corrupt or
        foreign artifact — refuse it loudly instead of tabulating it."""
        from repro.scenarios import ScenarioResult

        payload = self._result("fluid").to_dict()
        payload["backend"] = "ns3"
        with pytest.raises(ValueError, match="unknown backend 'ns3'"):
            ScenarioResult.from_dict(payload)
        with pytest.raises(ValueError, match="registered backends"):
            ScenarioResult.from_dict(payload)

    def test_from_dict_accepts_any_registered_backend(self):
        from repro.scenarios import ScenarioResult

        payload = self._result("fluid").to_dict()
        payload["backend"] = "emulation-mock"
        assert ScenarioResult.from_dict(payload).backend == "emulation-mock"


class TestZeroTraffic:
    """A scenario offering no flows must produce an empty result, not a
    crash — sweeps legitimately include idle baselines."""

    def _scenario(self):
        from repro.scenarios import TrafficSpec

        return get_scenario("line-baseline").quick().with_overrides(
            traffic=TrafficSpec("uniform", n_flows=0)
        )

    @pytest.mark.parametrize("backend", ["fluid", "des"])
    def test_runs_and_summarises_empty_flow_set(self, backend):
        result = ScenarioRunner(self._scenario(), backend=backend).run()
        assert result.offered == result.placed == 0
        assert result.per_flow_mbps == {}
        assert result.total_throughput_mbps == 0.0
        assert result.min_flow_mbps == 0.0
        assert result.mean_latency_ms == 0.0
        text = result.summary()  # must not raise on the empty flow set
        assert "0/0 placed" in text


class TestTunnelMemo:
    """``derive_tunnels_for_pairs`` memoises each pair's paths on the
    router graph's adjacency in iteration order, because Yen's
    tie-break follows neighbour order."""

    @staticmethod
    def square(links):
        from repro.net.topology import Network

        net = Network()
        for name in ("r0", "r1", "r2", "r3"):
            net.add_router(name, edge=True)
        for a, b in links:
            net.add_link(a, b)
        return net

    @staticmethod
    def fresh(net, pairs, k_paths):
        """The tunnels straight from networkx, no memo."""
        from itertools import islice

        import networkx as nx

        graph = net.graph.subgraph(net.routers)
        paths = [
            tuple(path)
            for a, b in pairs
            for path in islice(nx.shortest_simple_paths(graph, a, b), k_paths)
        ]
        return tuple(
            (f"T{tid}", tid, path) for tid, path in enumerate(paths, start=1)
        )

    def test_insertion_order_is_part_of_the_key(self):
        from repro.scenarios.runner import derive_tunnels_for_pairs

        via_r1 = [("r0", "r1"), ("r1", "r3"), ("r0", "r2"), ("r2", "r3")]
        via_r2 = [("r0", "r2"), ("r2", "r3"), ("r0", "r1"), ("r1", "r3")]
        pairs = [("r0", "r3"), ("r3", "r0"), ("r1", "r2")]
        first, second = self.square(via_r1), self.square(via_r2)
        assert set(map(frozenset, first.graph.edges)) == set(
            map(frozenset, second.graph.edges)
        )
        # one edge set, two answers: a key on the nodes alone would
        # hand the second graph the first one's tunnels
        assert self.fresh(first, pairs, 1) != self.fresh(second, pairs, 1)
        for k_paths in (1, 2):
            for net in (first, second, first):
                assert derive_tunnels_for_pairs(
                    net, pairs, k_paths
                ) == self.fresh(net, pairs, k_paths)

    def test_repeat_calls_number_tunnels_per_call(self):
        from repro.scenarios.runner import derive_tunnels_for_pairs

        net = self.square([("r0", "r1"), ("r1", "r3"), ("r0", "r2"),
                           ("r2", "r3")])
        once = derive_tunnels_for_pairs(net, [("r0", "r3")], 2)
        again = derive_tunnels_for_pairs(net, [("r0", "r3")], 2)
        assert once == again
        assert [tid for _, tid, _ in once] == [1, 2]
        # a pair reached second in another call is numbered after the first
        later = derive_tunnels_for_pairs(net, [("r1", "r2"), ("r0", "r3")], 2)
        assert later[2:] == tuple(
            (f"T{tid + 2}", tid + 2, path) for _, tid, path in once
        )
