"""Hybrid flow-class backend: classification, epochs, calibration,
determinism.

The calibration tolerances asserted here are the documented contract of
the backend (see ARCHITECTURE.md "Hybrid backend"):

- **throughput** — on the small scenario suite, hybrid aggregate
  throughput stays within ``THROUGHPUT_RTOL`` (relative) of a pure DES
  run of the same workload;
- **latency** — hybrid reports a *lower bound*: foreground latency is
  genuine packet-level sRTT/RTT, background flows report propagation
  delay only (no queueing), so hybrid mean latency must be positive
  whenever DES reports latency, and must not exceed the DES mean by
  more than ``LATENCY_ABS_SLACK_MS``.
"""

import dataclasses
import json

import pytest

from repro.net.background import BackgroundEpoch
from repro.net.fluid import FluidFlow, max_min_fair_bounded
from repro.scenarios import (
    FlowClassSpec,
    ScenarioRunner,
    get_scenario,
    split_requests,
)
from repro.scenarios.hybrid import (
    background_epochs,
    epoch_edges,
    quantize_edges,
    solve_epochs,
)
from repro.framework.scheduler import FlowRequest

#: documented calibration tolerance: hybrid vs DES aggregate throughput
THROUGHPUT_RTOL = 0.25
#: documented latency slack: hybrid may exceed the DES mean by at most
#: this (it is normally *below*, being queueing-free for background)
LATENCY_ABS_SLACK_MS = 3.0


def _req(name, protocol="tcp", **kwargs):
    defaults = dict(src="h0a", dst="h0b", duration=10.0)
    if protocol == "udp":
        defaults["rate_mbps"] = 1.0
    defaults.update(kwargs)
    return FlowRequest(flow_name=name, protocol=protocol, **defaults)


class TestSplitRequests:
    def test_elephants_promoted_mice_demoted(self):
        requests = [_req("elephant0"), _req("mouse1"), _req("elephant2"),
                    _req("fg-probe"), _req("u3")]
        fg, bg = split_requests(requests, FlowClassSpec())
        assert [r.flow_name for r in fg] == [
            "elephant0", "elephant2", "fg-probe"
        ]
        assert [r.flow_name for r in bg] == ["mouse1", "u3"]

    def test_budget_caps_promotion_in_offered_order(self):
        requests = [_req(f"elephant{i}") for i in range(5)]
        fg, bg = split_requests(
            requests, FlowClassSpec(max_foreground=3)
        )
        assert [r.flow_name for r in fg] == [
            "elephant0", "elephant1", "elephant2"
        ]
        assert [r.flow_name for r in bg] == ["elephant3", "elephant4"]

    def test_custom_patterns(self):
        requests = [_req("bulk-a"), _req("mouse0")]
        fg, bg = split_requests(
            requests, FlowClassSpec(foreground=("bulk-*",))
        )
        assert [r.flow_name for r in fg] == ["bulk-a"]
        assert [r.flow_name for r in bg] == ["mouse0"]

    def test_no_matches_means_everything_background(self):
        requests = [_req("u0"), _req("u1")]
        fg, bg = split_requests(requests, FlowClassSpec())
        assert fg == [] and len(bg) == 2

    def test_icmp_probes_always_promoted(self):
        """A probe demoted to the fluid domain would silently disable
        the measurement it exists to make — promotion ignores both the
        globs and the budget."""
        requests = [_req("mouse0"), _req("ping1", protocol="icmp")]
        fg, bg = split_requests(
            requests, FlowClassSpec(foreground=(), max_foreground=0)
        )
        assert [r.flow_name for r in fg] == ["ping1"]
        assert [r.flow_name for r in bg] == ["mouse0"]


class TestEpochEdges:
    def test_grid_plus_failure_and_phase_edges(self):
        from repro.scenarios.failures import FailureEvent

        plan = (FailureEvent(at=2.5, action="fail", a="r0", b="r1"),)
        edges = epoch_edges(
            10.0, plan, (0.33,), FlowClassSpec(epoch_s=2.0)
        )
        assert edges[0] == 0.0 and edges[-1] == 10.0
        assert 2.5 in edges  # failure event is an exact edge
        assert pytest.approx(3.3) == [e for e in edges if 3.2 < e < 3.4][0]
        for k in (2.0, 4.0, 6.0, 8.0):
            assert k in edges

    def test_grid_coarsens_to_max_epochs(self):
        edges = epoch_edges(
            1000.0, (), (), FlowClassSpec(epoch_s=0.001, max_epochs=50)
        )
        assert len(edges) <= 52

    def test_none_epoch_s_disables_grid(self):
        edges = epoch_edges(10.0, (), (), FlowClassSpec(epoch_s=None))
        assert edges == [0.0, 10.0]

    def test_quantize_keeps_exact_edges_within_budget(self):
        exact = {0.0, 1.25, 7.5, 10.0}
        assert quantize_edges(
            exact, 10.0, (), (), FlowClassSpec(max_epochs=256)
        ) == sorted(exact)

    def test_quantize_coalesces_beyond_budget(self):
        exact = {0.0, 10.0} | {i * 0.001 for i in range(1, 5000)}
        edges = quantize_edges(
            exact, 10.0, (), (), FlowClassSpec(epoch_s=1.0, max_epochs=64)
        )
        assert len(edges) == 11  # the 1 s grid, not 5000 flow edges


class TestSolveEpochs:
    CAPS = {("a", "b"): 10.0, ("b", "a"): 10.0}

    def test_rate_caps_and_probe_exclusion(self):
        spans = {"udp": (0.0, 10.0), "tcp": (0.0, 10.0),
                 "probe": (0.0, 10.0)}
        paths = {name: ("a", "b") for name in spans}
        solves = solve_epochs(
            spans, paths, self.CAPS, {"udp": 2.0}, {"probe"}, (),
            [0.0, 10.0],
        )
        assert len(solves) == 1
        rates = solves[0].rates
        assert rates["udp"] == pytest.approx(2.0)
        assert rates["tcp"] == pytest.approx(8.0)
        assert "probe" not in rates  # instrument, not load
        assert solves[0].overlaps["probe"] == pytest.approx(10.0)

    def test_each_record_is_built_once_and_reused(self, monkeypatch):
        """A flow's claimant, its rate cap as the bound, is built once
        per run; every epoch that solves the flow gets that record."""
        import repro.scenarios.hybrid as hybrid

        seen = []
        solve = hybrid.max_min_fair_bounded

        def spy(claimants, capacities):
            seen.append(list(claimants))
            return solve(claimants, capacities)

        monkeypatch.setattr(hybrid, "max_min_fair_bounded", spy)
        spans = {"udp": (0.0, 10.0), "tcp": (2.0, 10.0),
                 "probe": (0.0, 10.0)}
        paths = {name: ("a", "b") for name in spans}
        solve_epochs(
            spans, paths, self.CAPS, {"udp": 2.0}, {"probe"}, (),
            [0.0, 2.0, 6.0, 10.0],
        )
        assert [[c.name for c in epoch] for epoch in seen] == [
            ["udp"], ["udp", "tcp"], ["udp", "tcp"]
        ]
        assert seen[0][0] is seen[1][0] is seen[2][0]
        assert seen[1][1] is seen[2][1]
        assert seen[0][0].bound == 2.0 and seen[1][1].bound is None

    def test_failure_blacks_out_crossing_flows(self):
        from repro.scenarios.failures import FailureEvent

        spans = {"f": (0.0, 10.0)}
        paths = {"f": ("a", "b")}
        plan = (
            FailureEvent(at=4.0, action="fail", a="a", b="b"),
            FailureEvent(at=6.0, action="restore", a="a", b="b"),
        )
        solves = solve_epochs(
            spans, paths, self.CAPS, {}, set(), plan, [0.0, 4.0, 6.0, 10.0]
        )
        assert solves[0].blacked == ()
        assert solves[1].blacked == ("f",)
        assert "f" not in solves[1].rates
        assert solves[2].blacked == ()
        assert solves[2].rates["f"] == pytest.approx(10.0)

    def test_partial_overlap_credits_fraction(self):
        spans = {"late": (7.5, 10.0)}
        paths = {"late": ("a", "b")}
        solves = solve_epochs(
            spans, paths, self.CAPS, {}, set(), (), [0.0, 5.0, 10.0]
        )
        assert "late" not in solves[0].overlaps
        assert solves[1].overlaps["late"] == pytest.approx(2.5)

    def test_background_epochs_sum_loads_along_hops(self):
        spans = {"m1": (0.0, 10.0), "m2": (0.0, 5.0)}
        paths = {"m1": ("a", "b", "c"), "m2": ("a", "b")}
        caps = {("a", "b"): 10.0, ("b", "c"): 10.0}
        solves = solve_epochs(
            spans, paths, caps, {}, set(), (), [0.0, 10.0]
        )
        epochs = background_epochs(solves, {"m1", "m2"}, paths)
        assert len(epochs) == 1
        loads = epochs[0].loads
        # m1: 5 Mbps whole epoch; m2: 5 Mbps for half the epoch -> 2.5
        assert loads[("a", "b")] == pytest.approx(5.0 + 2.5)
        assert loads[("b", "c")] == pytest.approx(5.0)

    def test_foreground_claimants_never_become_load(self):
        spans = {"elephant": (0.0, 10.0), "mouse": (0.0, 10.0)}
        paths = {name: ("a", "b") for name in spans}
        solves = solve_epochs(
            spans, paths, self.CAPS, {}, set(), (), [0.0, 10.0]
        )
        epochs = background_epochs(solves, {"mouse"}, paths)
        # the elephant claimed half the link in the solve, but only the
        # mouse's share lands on the wire as background
        assert epochs[0].loads[("a", "b")] == pytest.approx(5.0)


class TestHybridRunner:
    def test_deterministic_and_classified(self):
        scenario = get_scenario("wan-elephant-mice").quick(
            horizon=6.0, warmup=2.0
        )
        first = ScenarioRunner(scenario, backend="hybrid")
        r1 = first.run()
        r2 = ScenarioRunner(scenario, backend="hybrid").run()
        assert r1 == r2
        assert r1.backend == "hybrid"
        assert [r.flow_name for r in first.foreground] == [
            "elephant0", "elephant1"
        ]
        assert len(first.background) == 6
        # every flow shows up exactly once in the merged result
        assert r1.placed == r1.offered == 8
        assert set(r1.per_flow_mbps) == {
            r.flow_name for r in first.requests
        }

    @pytest.mark.parametrize("name", ["wan-elephant-mice", "ring-uniform"])
    def test_calibrated_against_des(self, name):
        """The documented tolerance: hybrid tracks DES aggregate
        throughput within THROUGHPUT_RTOL, and reports a latency lower
        bound (queueing-free background) within LATENCY_ABS_SLACK_MS
        above the DES mean."""
        scenario = get_scenario(name).quick(horizon=8.0, warmup=2.0)
        des = ScenarioRunner(scenario, backend="des").run()
        hybrid = ScenarioRunner(scenario, backend="hybrid").run()
        assert hybrid.total_throughput_mbps == pytest.approx(
            des.total_throughput_mbps, rel=THROUGHPUT_RTOL
        )
        assert hybrid.mean_latency_ms > 0.0
        assert (
            hybrid.mean_latency_ms
            <= des.mean_latency_ms + LATENCY_ABS_SLACK_MS
        )

    def test_background_load_is_visible_to_telemetry(self):
        """Mice never cross the packet domain, but the controller's
        telemetry must still see their load on the links."""
        scenario = get_scenario("wan-elephant-mice").quick(
            horizon=6.0, warmup=2.0
        )
        runner = ScenarioRunner(scenario, backend="hybrid")
        runner.run()
        db = runner.sdn.db
        peak = 0.0
        for metric in db.metrics():
            if metric.startswith("link:") and metric.endswith(":mbps"):
                _, values = db.series(metric)
                if values.size:
                    peak = max(peak, float(values.max()))
        # mice alone offer ~6 x a few Mbps; some link must have shown
        # more carried Mbps than the elephants alone could produce
        assert peak > 0.0
        assert runner.network.sim.events_processed > 0

    def test_hybrid_uses_far_fewer_events_than_des(self):
        scenario = get_scenario("p4lab-bursty-udp").quick(
            horizon=6.0, warmup=2.0
        )
        des = ScenarioRunner(scenario, backend="des").run()
        hybrid = ScenarioRunner(scenario, backend="hybrid").run()
        # every p4lab-bursty flow is background (no elephants): the
        # packet domain only carries telemetry ticks
        assert hybrid.sim_events < des.sim_events / 5

    def test_scale_scenario_smoke(self):
        """The smallest scale scenario runs through the hybrid backend
        at a short horizon: all 2k flows placed, nothing rejected."""
        scenario = get_scenario("scale-fat-tree-2k").quick(
            horizon=3.0, warmup=1.0
        )
        result = ScenarioRunner(scenario, backend="hybrid").run()
        assert result.offered == 2000
        assert result.placed == 2000
        assert result.rejected == 0
        assert result.total_throughput_mbps > 0.0
        assert result.sim_events > 0

    def test_fig11_probe_stays_packet_level_on_hybrid(self):
        """The paper's latency-migration probe must be emulated, not
        aggregated: on hybrid it is foreground and reports a real RTT,
        exactly as on des."""
        scenario = get_scenario("fig11-latency-migration").quick()
        runner = ScenarioRunner(scenario, backend="hybrid")
        result = runner.run()
        assert [r.flow_name for r in runner.foreground] == ["ping1"]
        assert runner.background == []
        assert result.placed == 1
        assert result.per_flow_mbps["ping1"] == 0.0  # instrument
        assert result.mean_latency_ms > 0.0

    def test_epoch_schedule_is_installed_and_cleared(self):
        scenario = get_scenario("wan-elephant-mice").quick(
            horizon=6.0, warmup=2.0
        )
        runner = ScenarioRunner(scenario, backend="hybrid")
        runner.run()
        # after the final epoch the background must be cleared
        for key, link in runner.network.links.items():
            for node_name in key:
                assert link.background_from(
                    runner.network.node(node_name)
                ) == 0.0


class TestWeightedSolver:
    """``max_min_fair_bounded`` over weighted claimants: a class claimant
    of integer weight k is exactly k unit flows riding the same path."""

    CAPS = {("a", "b"): 8.0, ("b", "c"): 100.0}

    def test_integer_weight_equals_duplicated_unit_flows(self):
        weighted = max_min_fair_bounded(
            [
                FluidFlow.from_path("fg", ["a", "b"]),
                FluidFlow("class:0", (("a", "b"), ("b", "c")), weight=3.0),
            ],
            self.CAPS,
        )
        unit = max_min_fair_bounded(
            [FluidFlow.from_path("fg", ["a", "b"])]
            + [
                FluidFlow.from_path(f"m{i}", ["a", "b", "c"])
                for i in range(3)
            ],
            self.CAPS,
        )
        # the bottleneck (a,b) splits 1:3 — one share to fg, three to
        # the class; the class total equals the sum of the three mice
        assert weighted["fg"] == pytest.approx(unit["fg"])
        assert weighted["class:0"] == pytest.approx(
            unit["m0"] + unit["m1"] + unit["m2"]
        )
        assert weighted["fg"] == pytest.approx(2.0)
        assert weighted["class:0"] == pytest.approx(6.0)

    @staticmethod
    def _with_class(**fields):
        return [
            FluidFlow.from_path("fg", ["a", "b"]),
            FluidFlow("class:0", (("a", "b"),), **fields),
        ]

    def test_fractional_weight_scales_the_share(self):
        # a half-populated class (time-averaged 0.5 concurrent members)
        # claims half a fair share
        rates = max_min_fair_bounded(self._with_class(weight=0.5), self.CAPS)
        assert rates["fg"] == pytest.approx(8.0 / 1.5)
        assert rates["class:0"] == pytest.approx(0.5 * 8.0 / 1.5)

    def test_zero_weight_class_gets_nothing_and_claims_nothing(self):
        rates = max_min_fair_bounded(self._with_class(weight=0.0), self.CAPS)
        assert rates["class:0"] == 0.0
        assert rates["fg"] == pytest.approx(8.0)

    def test_bounded_class_pins_and_reshares(self):
        # a CBR-bounded class pins at its aggregate ceiling; the elastic
        # foreground flow soaks up the rest of the bottleneck
        rates = max_min_fair_bounded(
            self._with_class(weight=2.0, bound=1.0), self.CAPS
        )
        assert rates["class:0"] == pytest.approx(1.0)
        assert rates["fg"] == pytest.approx(7.0)


class TestAggregateMice:
    """``FlowClassSpec(aggregate_background=True)``: mice become
    per-tunnel flow classes; the run must agree with per-flow hybrid."""

    @staticmethod
    def _aggregate(scenario):
        return dataclasses.replace(
            scenario,
            classes=dataclasses.replace(
                scenario.classes, aggregate_background=True
            ),
        )

    def test_agrees_with_per_flow_hybrid(self):
        scenario = get_scenario("wan-elephant-mice").quick(
            horizon=6.0, warmup=2.0
        )
        per_flow = ScenarioRunner(scenario, backend="hybrid").run()
        aggregate = ScenarioRunner(
            self._aggregate(scenario), backend="hybrid"
        ).run()
        # identical admission: routing and spreading are unchanged
        assert aggregate.placed == per_flow.placed
        assert aggregate.offered == per_flow.offered
        assert aggregate.rejected == per_flow.rejected
        # the weighted-class solve is the same allocation whenever the
        # member spans cover their epochs; on this scenario the two
        # modes must agree tightly, not just within backend tolerance
        assert aggregate.total_throughput_mbps == pytest.approx(
            per_flow.total_throughput_mbps, rel=0.05
        )
        assert aggregate.mean_latency_ms == pytest.approx(
            per_flow.mean_latency_ms, rel=0.05
        )

    def test_result_reports_classes_not_mice(self):
        scenario = self._aggregate(
            get_scenario("wan-elephant-mice").quick(horizon=6.0, warmup=2.0)
        )
        runner = ScenarioRunner(scenario, backend="hybrid")
        result = runner.run()
        assert result.background_flows == len(runner.background) == 6
        assert 1 <= result.background_classes <= result.background_flows
        assert result.background_mbps > 0.0
        # per-flow table carries the foreground only; mice appear as
        # class totals in background_mbps
        assert set(result.per_flow_mbps) == {
            r.flow_name for r in runner.foreground
        }

    def test_round_trips_through_json(self):
        scenario = self._aggregate(
            get_scenario("wan-elephant-mice").quick(horizon=4.0, warmup=1.0)
        )
        result = ScenarioRunner(scenario, backend="hybrid").run()
        restored = type(result).from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert restored == result

    def test_deterministic(self):
        scenario = self._aggregate(
            get_scenario("wan-elephant-mice").quick(horizon=4.0, warmup=1.0)
        )
        r1 = ScenarioRunner(scenario, backend="hybrid").run()
        r2 = ScenarioRunner(scenario, backend="hybrid").run()
        assert r1 == r2


class TestHybridSweepDeterminism:
    def test_jobs1_and_jobs2_are_byte_identical(self):
        """The acceptance check: a hybrid-backend sweep must render
        byte-identical JSON whether executed serially or over two
        worker processes."""
        from repro.sweep import SweepEngine, SweepSpec, aggregate, render_json

        spec = SweepSpec(
            scenarios=("scale-fat-tree-2k",),
            seeds=(0, 1),
            backends=("hybrid",),
            overrides={"horizon": 3.0, "warmup": 1.0},
        )
        serial = SweepEngine(spec, jobs=1, cache=None).run()
        parallel = SweepEngine(spec, jobs=2, cache=None).run()
        blob_1 = render_json(
            serial.runs, serial.results,
            aggregate(serial.runs, serial.results),
        )
        blob_2 = render_json(
            parallel.runs, parallel.results,
            aggregate(parallel.runs, parallel.results),
        )
        assert blob_1 == blob_2
        payload = json.loads(blob_1)  # and it is valid JSON
        # the columnar store's sample count is part of the rendered
        # result: a telemetry refactor that changed sampling volume (or
        # made it nondeterministic) must fail here, not ship silently
        samples = [
            run["result"]["telemetry_samples"] for run in payload["runs"]
        ]
        assert all(s > 0 for s in samples)


class TestBackendValidation:
    def test_scenario_accepts_hybrid(self):
        scenario = get_scenario("ring-uniform").with_overrides(
            backend="hybrid"
        )
        assert scenario.backend == "hybrid"

    def test_runner_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ScenarioRunner(get_scenario("ring-uniform"), backend="warp")

    def test_sweep_accepts_hybrid_axis(self):
        from repro.sweep import SweepSpec

        spec = SweepSpec(scenarios=("ring-uniform",), backends=("hybrid",))
        assert spec.expand()[0].backend == "hybrid"

    def test_flow_class_spec_validation(self):
        with pytest.raises(ValueError, match="epoch_s"):
            FlowClassSpec(epoch_s=0.0)
        with pytest.raises(ValueError, match="max_epochs"):
            FlowClassSpec(max_epochs=0)
        with pytest.raises(ValueError, match="max_foreground"):
            FlowClassSpec(max_foreground=-1)

    def test_epoch_type_rejects_empty(self):
        with pytest.raises(ValueError):
            BackgroundEpoch(1.0, 1.0)
