"""Emulation bridge: plan compilation, mock driver, strict parsing."""

import dataclasses

import pytest

from repro.backends.emulation import (
    CommandPlan,
    EmulationBackend,
    FailureCue,
    FlowCommand,
    MockEmulationDriver,
    compile_plan,
    parse_driver_output,
)
from repro.scenarios import ScenarioRunner, get_scenario


def _prepared(name, **quick):
    scenario = get_scenario(name).quick(**quick)
    runner = ScenarioRunner(scenario, backend="emulation-mock").setup()
    return scenario, runner


def _tiny_plan(protocol="udp", rate_mbps=8.0, failures=()):
    """A hand-built one-flow plan over h0-r0-r1-h1 for driver/parser
    tests that need exact control over the inputs."""
    flow = FlowCommand(
        flow_name="u0",
        src="h0",
        dst="h1",
        protocol=protocol,
        start_at=0.0,
        duration=10.0,
        rate_mbps=rate_mbps if protocol == "udp" else None,
        path=("h0", "r0", "r1", "h1"),
        command="iperf -c h1 -p 5001 -t 10"
        + (f" -u -b {rate_mbps:g}M" if protocol == "udp" else ""),
    )
    return CommandPlan(
        scenario="tiny",
        seed=0,
        horizon=10.0,
        warmup=0.0,
        hosts=("h0", "h1"),
        links=(
            ("h0", "r0", 100.0, 0.1),
            ("r0", "r1", 20.0, 1.0),
            ("h1", "r1", 100.0, 0.1),
        ),
        servers=("h1: iperf -s -p 5001",),
        flows=(flow,),
        probes=(),
        failures=tuple(failures),
        failure_events=len(failures),
    )


def _probe_plan():
    """The one-flow plan plus a ping probe ``p0`` on the same path."""
    plan = _tiny_plan(protocol="tcp")
    probe = FlowCommand(
        flow_name="p0",
        src="h0",
        dst="h1",
        protocol="icmp",
        start_at=0.0,
        duration=10.0,
        rate_mbps=None,
        path=("h0", "r0", "r1", "h1"),
        command="ping -c 10 -i 1 h1",
    )
    return dataclasses.replace(plan, probes=(probe,))


def _flow_report(mbps=20.0):
    return (
        "--- flow u0 tcp h0 > h1 via h0>r0>r1>h1 ---\n"
        f"[  3]  0.0-10.0 sec  {mbps * 10 / 8:.2f} MBytes  "
        f"{mbps:.3f} Mbits/sec\n"
    )


class TestCompilePlan:
    def test_plan_echoes_the_prepared_run(self):
        scenario, runner = _prepared("ring-uniform", horizon=6.0, warmup=2.0)
        plan = compile_plan(runner)
        assert plan.scenario == scenario.name
        assert plan.seed == runner.seed
        assert plan.horizon == scenario.horizon
        assert plan.hosts == tuple(sorted(runner.network.hosts))
        assert len(plan.flows) + len(plan.probes) + plan.unplaced == len(
            runner.requests
        )

    def test_flow_commands_are_iperf_shaped(self):
        _, runner = _prepared("ring-uniform", horizon=6.0, warmup=2.0)
        plan = compile_plan(runner)
        for flow in plan.flows:
            assert flow.command.startswith(f"iperf -c {flow.dst} -p 5001")
            if flow.protocol == "udp" and flow.rate_mbps:
                assert " -u -b " in flow.command
            # source-routed: the path runs host-to-host
            assert flow.path[0] == flow.src
            assert flow.path[-1] == flow.dst
        assert all(": iperf -s -p 5001" in s for s in plan.servers)

    def test_icmp_requests_become_ping_probes(self):
        _, runner = _prepared(
            "fig11-latency-migration", horizon=10.0, warmup=2.0
        )
        plan = compile_plan(runner)
        assert len(plan.probes) == 1
        probe = plan.probes[0]
        assert probe.protocol == "icmp"
        assert probe.command.startswith("ping -c ")
        assert not plan.flows

    def test_failure_cues_are_rendered(self):
        _, runner = _prepared("line-link-flap", horizon=6.0, warmup=2.0)
        plan = compile_plan(runner)
        assert plan.failure_events == 2
        actions = [cue.command for cue in plan.failures]
        assert any(c.startswith("link down r0 r1 @") for c in actions)
        assert any(c.startswith("link up r0 r1 @") for c in actions)

    def test_links_are_sorted_and_directionless(self):
        _, runner = _prepared("ring-uniform", horizon=6.0, warmup=2.0)
        plan = compile_plan(runner)
        assert list(plan.links) == sorted(plan.links)
        for a, b, rate, delay in plan.links:
            assert a < b
            assert rate > 0 and delay >= 0


class TestMockDriver:
    def test_output_is_deterministic(self):
        _, runner = _prepared("ring-uniform", horizon=6.0, warmup=2.0)
        plan = compile_plan(runner)
        driver = MockEmulationDriver()
        assert driver.run(plan) == driver.run(plan)

    def test_udp_outage_shows_up_as_datagram_loss(self):
        cues = (
            FailureCue(at=2.0, action="fail", a="r0", b="r1",
                       command="link down r0 r1 @ 2s"),
            FailureCue(at=4.0, action="restore", a="r0", b="r1",
                       command="link up r0 r1 @ 4s"),
        )
        plan = _tiny_plan(protocol="udp", rate_mbps=8.0, failures=cues)
        raw = MockEmulationDriver().run(plan)
        per_flow, latencies, drops = parse_driver_output(plan, raw)
        # 2 of 10 seconds dark: ~20% of the datagrams, rate scaled down
        assert drops > 0
        assert per_flow["u0"] == pytest.approx(8.0 * 0.8, rel=0.05)
        assert latencies == []

    def test_tcp_flow_reports_no_loss_line(self):
        plan = _tiny_plan(protocol="tcp")
        raw = MockEmulationDriver().run(plan)
        per_flow, _, drops = parse_driver_output(plan, raw)
        assert drops == 0  # TCP iperf reports bandwidth only
        assert per_flow["u0"] > 0.0

    def test_each_flow_record_is_built_once(self, monkeypatch):
        """The UDP sender's rate is its claimant's bound, and the epochs
        on either side of an outage solve the same record (the dark
        epoch between them has no claimant, so no solve)."""
        import repro.scenarios.hybrid as hybrid

        seen = []
        solve = hybrid.max_min_fair_bounded

        def spy(claimants, capacities):
            seen.append(list(claimants))
            return solve(claimants, capacities)

        monkeypatch.setattr(hybrid, "max_min_fair_bounded", spy)
        cues = (
            FailureCue(at=2.0, action="fail", a="r0", b="r1",
                       command="link down r0 r1 @ 2s"),
            FailureCue(at=4.0, action="restore", a="r0", b="r1",
                       command="link up r0 r1 @ 4s"),
        )
        MockEmulationDriver().run(_tiny_plan(protocol="udp", failures=cues))
        assert [len(epoch) for epoch in seen] == [1, 1]
        assert seen[0][0] is seen[1][0]
        assert seen[0][0].bound == 8.0

    def test_dark_probe_reports_no_rtt(self):
        """A probe whose path is down for its whole span gets no echo,
        so, like real ping, the mock prints no rtt line for it."""
        cue = FailureCue(at=0.0, action="fail", a="r0", b="r1",
                         command="link down r0 r1 @ 0s")
        plan = dataclasses.replace(
            _probe_plan(), failures=(cue,), failure_events=1
        )
        raw = MockEmulationDriver().run(plan)
        assert "10 packets transmitted, 0 received" in raw
        assert "rtt" not in raw
        per_flow, latencies, drops = parse_driver_output(plan, raw)
        assert latencies == []
        assert drops == 10
        assert per_flow["u0"] == 0.0

    def test_rates_respect_the_bottleneck(self):
        plan = _tiny_plan(protocol="tcp")
        per_flow, _, _ = parse_driver_output(
            plan, MockEmulationDriver().run(plan)
        )
        assert per_flow["u0"] <= 20.0 + 1e-6  # the r0-r1 link


class TestParserReconciliation:
    def test_missing_flow_section_raises(self):
        plan = _tiny_plan()
        with pytest.raises(ValueError, match="missing flow 'u0'"):
            parse_driver_output(plan, "=== emulation ===\n")

    def test_missing_bandwidth_report_raises(self):
        plan = _tiny_plan()
        raw = "--- flow u0 udp h0 > h1 via h0>r0>r1>h1 ---\ngarbage\n"
        with pytest.raises(ValueError, match="no iperf bandwidth report"):
            parse_driver_output(plan, raw)

    def test_missing_probe_section_raises(self):
        _, runner = _prepared(
            "fig11-latency-migration", horizon=10.0, warmup=2.0
        )
        plan = compile_plan(runner)
        with pytest.raises(ValueError, match="missing probe"):
            parse_driver_output(plan, "=== emulation ===\n")

    def test_probe_without_ping_summary_raises(self):
        plan = _probe_plan()
        raw = _flow_report() + (
            "--- probe p0 icmp h0 > h1 ---\n"
            "rtt min/avg/max/mdev = 2.400/2.400/2.400/0.000 ms\n"
        )
        with pytest.raises(ValueError, match="no ping summary for probe 'p0'"):
            parse_driver_output(plan, raw)

    def test_probe_without_rtt_line_raises_when_replies_came_back(self):
        plan = _probe_plan()
        raw = _flow_report() + (
            "--- probe p0 icmp h0 > h1 ---\n"
            "10 packets transmitted, 7 received, 30% packet loss, "
            "time 10000ms\n"
        )
        with pytest.raises(ValueError, match="no rtt line for probe 'p0'"):
            parse_driver_output(plan, raw)

    def test_probe_at_total_loss_needs_no_rtt_line(self):
        plan = _probe_plan()
        raw = _flow_report() + (
            "--- probe p0 icmp h0 > h1 ---\n"
            "10 packets transmitted, 0 received, 100% packet loss, "
            "time 10000ms\n"
        )
        per_flow, latencies, drops = parse_driver_output(plan, raw)
        assert per_flow["p0"] == 0.0
        assert latencies == []
        assert drops == 10

    def test_section_the_plan_does_not_name_raises(self):
        plan = _probe_plan()
        raw = MockEmulationDriver().run(plan) + (
            "--- flow ghost tcp h0 > h1 via h0>r0>r1>h1 ---\n"
            "[  3]  0.0-10.0 sec  1248.75 MBytes  999.000 Mbits/sec\n"
        )
        with pytest.raises(ValueError, match="flow section 'ghost'"):
            parse_driver_output(plan, raw)

    def test_section_of_the_wrong_kind_raises(self):
        plan = _probe_plan()
        raw = _flow_report() + (
            "--- flow p0 icmp h0 > h1 via h0>r0>r1>h1 ---\n"
            "10 packets transmitted, 10 received, 0% packet loss, "
            "time 10000ms\n"
            "rtt min/avg/max/mdev = 2.400/2.400/2.400/0.000 ms\n"
        )
        with pytest.raises(ValueError, match="probe 'p0' as a flow section"):
            parse_driver_output(plan, raw)

    def test_repeated_section_raises(self):
        plan = _tiny_plan(protocol="tcp")
        raw = _flow_report(20.0) + _flow_report(99.0)
        with pytest.raises(ValueError, match="repeats section 'u0'"):
            parse_driver_output(plan, raw)

    def test_udp_report_numbers_are_parsed_exactly(self):
        plan = _tiny_plan(protocol="udp")
        raw = (
            "--- flow u0 udp h0 > h1 via h0>r0>r1>h1 ---\n"
            "[  3]  0.0-10.0 sec  7.50 MBytes  6.000 Mbits/sec   "
            "0.012 ms  17/680 (2.50%)\n"
        )
        per_flow, latencies, drops = parse_driver_output(plan, raw)
        assert per_flow == {"u0": 6.0}
        assert drops == 17
        assert latencies == []


class TestEndToEnd:
    def test_run_is_deterministic_and_reconciles(self):
        scenario = get_scenario("ring-uniform").quick(horizon=6.0, warmup=2.0)
        first = ScenarioRunner(scenario, backend="emulation-mock").run()
        second = ScenarioRunner(scenario, backend="emulation-mock").run()
        assert first == second
        assert first.backend == "emulation-mock"
        assert first.placed + first.rejected == first.offered
        assert first.total_throughput_mbps > 0.0
        assert first.sim_events == 0  # nothing ran in-process

    def test_probe_latency_comes_from_ping_rtt(self):
        scenario = get_scenario("fig11-latency-migration").quick(
            horizon=10.0, warmup=2.0
        )
        result = ScenarioRunner(scenario, backend="emulation-mock").run()
        assert result.per_flow_mbps["ping1"] == 0.0
        assert result.mean_latency_ms > 0.0

    def test_rates_track_the_fluid_model(self):
        """Same placement + same max-min solver: the mock emulation's
        per-flow rates must land within rounding of the fluid backend
        (iperf text carries 3 decimals)."""
        scenario = get_scenario("line-link-flap").quick(
            horizon=6.0, warmup=2.0
        )
        fluid = ScenarioRunner(scenario, backend="fluid").run()
        emu = ScenarioRunner(scenario, backend="emulation-mock").run()
        for name, rate in fluid.per_flow_mbps.items():
            assert emu.per_flow_mbps[name] == pytest.approx(rate, abs=1e-3)

    def test_custom_driver_instance_is_honoured(self):
        class BrokenDriver:
            def run(self, plan):
                return "=== emulation: nothing to see ===\n"

        scenario = get_scenario("ring-uniform").quick(horizon=6.0, warmup=2.0)
        backend = EmulationBackend(driver=BrokenDriver())
        with pytest.raises(ValueError, match="missing flow"):
            ScenarioRunner(scenario, backend=backend).run()

    def test_backend_keeps_the_plan_and_raw_output(self):
        scenario = get_scenario("ring-uniform").quick(horizon=6.0, warmup=2.0)
        backend = EmulationBackend()
        ScenarioRunner(scenario, backend=backend).run()
        assert backend.plan is not None
        assert backend.raw_output.startswith("=== emulation scenario=")
