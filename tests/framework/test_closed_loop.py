"""Integration tests of the full Fig. 3/4 closed loop on the emulated
Global P4 Lab testbed."""

import pytest

from repro.framework import SelfDrivingNetwork
from repro.ml import LinearRegression
from repro.topologies import fig12_capacities, global_p4_lab


def build_sdn(reoptimize_every=None, rates=None, delays=None):
    net = global_p4_lab(rates=rates or fig12_capacities(), delays=delays)
    sdn = SelfDrivingNetwork(
        net, model_factory=LinearRegression, reoptimize_every=reoptimize_every
    )
    sdn.add_tunnel("T1", 1, ["MIA", "SAO", "AMS"])
    sdn.add_tunnel("T2", 2, ["MIA", "CHI", "AMS"])
    sdn.add_tunnel("T3", 3, ["MIA", "CAL", "CHI", "AMS"])
    return sdn


class TestFlowPlacement:
    def test_fig4_sequence_runs_end_to_end(self):
        sdn = build_sdn()
        sdn.run(until=35.0)  # warm telemetry past Hecate's training floor
        result = sdn.request_flow(
            flow_name="f1", src="host1", dst="host2", protocol="tcp",
            tos=32, duration=10.0,
        )
        assert result["ok"] and result["controller"]["ok"]
        record = sdn.flow("f1")
        assert record.tunnel == "T1"  # fattest tunnel wins max_bandwidth
        sdn.run(until=50.0)
        assert record.app.goodput_mbps() > 10.0

    def test_bus_log_contains_fig4_conversation(self):
        sdn = build_sdn()
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="f1", src="host1", dst="host2",
                         protocol="tcp", tos=32, duration=5.0)
        topics = [m.topic for m in sdn.bus.log]
        # the Fig. 4 sequence in order: insert -> schedule -> telemetry ->
        # hecate -> freertr reconfiguration
        for topic in ["dashboard.insert_new_flow", "scheduler.new_flow",
                      "telemetry.get", "hecate.ask_path", "freertr.reconfig"]:
            assert topic in topics, topic
        assert topics.index("dashboard.insert_new_flow") < topics.index(
            "hecate.ask_path"
        )

    def test_decisions_are_audited(self):
        sdn = build_sdn()
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="f1", src="host1", dst="host2",
                         protocol="tcp", tos=32, duration=5.0)
        assert len(sdn.decision_log()) == 1
        assert sdn.decision_log()[0]["path"] == "T1"

    def test_flow_without_tunnels_fails_cleanly(self):
        net = global_p4_lab()
        sdn = SelfDrivingNetwork(net, model_factory=LinearRegression)
        result = sdn.request_flow(flow_name="f1", src="host1", dst="host2")
        assert result["controller"]["ok"] is False
        assert "no tunnels" in result["controller"]["error"]

    def test_duplicate_tunnel_rejected(self):
        sdn = build_sdn()
        with pytest.raises(ValueError):
            sdn.add_tunnel("T1", 9, ["MIA", "SAO", "AMS"])

    def test_icmp_flow_placed(self):
        sdn = build_sdn()
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="ping1", src="host1", dst="host2",
                         protocol="icmp", duration=5.0)
        sdn.run(until=45.0)
        app = sdn.flow("ping1").app
        assert app.received > 0


class TestSelfDrivingReoptimization:
    def test_fig12_spread_happens_automatically(self):
        sdn = build_sdn(reoptimize_every=5.0)
        sdn.run(until=35.0)
        for i, tos in enumerate([32, 64, 96], start=1):
            sdn.request_flow(flow_name=f"f{i}", src="host1", dst="host2",
                             protocol="tcp", tos=tos, duration=45.0)
        sdn.run(until=80.0)
        tunnels = sorted(sdn.flow(f"f{i}").tunnel for i in range(1, 4))
        assert tunnels == ["T1", "T2", "T3"]
        total_before = sum(
            sdn.flow(f"f{i}").app.goodput_mbps(36.0, 40.0) for i in range(1, 4)
        )
        total_after = sum(
            sdn.flow(f"f{i}").app.goodput_mbps(55.0, 75.0) for i in range(1, 4)
        )
        assert total_before < 21.0
        assert total_after > 28.0  # paper: ~30 Mbps after the spread

    def test_no_oscillation_once_spread(self):
        sdn = build_sdn(reoptimize_every=5.0)
        sdn.run(until=35.0)
        for i, tos in enumerate([32, 64, 96], start=1):
            sdn.request_flow(flow_name=f"f{i}", src="host1", dst="host2",
                             protocol="tcp", tos=tos, duration=45.0)
        sdn.run(until=80.0)
        for i in range(1, 4):
            assert len(sdn.flow(f"f{i}").migrations) <= 1

    def test_migration_is_single_pbr_touch(self):
        sdn = build_sdn()
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="f1", src="host1", dst="host2",
                         protocol="tcp", tos=32, duration=30.0)
        policy = sdn.router_config.policy("MIA")
        before = policy.reconfigurations
        sdn.migrate_flow("f1", "T2")
        assert policy.reconfigurations == before + 1
        assert sdn.flow("f1").tunnel == "T2"
        assert sdn.flow("f1").migrations[0][1:] == ("T1", "T2")

    def test_migrate_to_same_tunnel_is_noop(self):
        sdn = build_sdn()
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="f1", src="host1", dst="host2",
                         protocol="tcp", tos=32, duration=30.0)
        sdn.migrate_flow("f1", "T1")
        assert sdn.flow("f1").migrations == []

    def test_reoptimize_now_idempotent_when_optimal(self):
        sdn = build_sdn()
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="f1", src="host1", dst="host2",
                         protocol="tcp", tos=32, duration=30.0)
        sdn.controller.reoptimize_now()
        sdn.controller.reoptimize_now()
        assert len(sdn.flow("f1").migrations) == 0


class TestFig11Migration:
    def test_latency_drops_after_manual_migration(self):
        """Fig. 11 via the framework: ping rides T1 (with the 20 ms tc
        delay on MIA-SAO); migrating to T2 drops the one-way latency."""
        sdn = build_sdn(delays={("MIA", "SAO"): 21.0})
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="ping1", src="host1", dst="host2",
                         protocol="icmp", duration=60.0)
        # force T1 first (Hecate may prefer any; this is Fig 11's phase i)
        sdn.migrate_flow("ping1", "T1")
        sdn.run(until=60.0)
        sdn.migrate_flow("ping1", "T2")
        sdn.run(until=85.0)
        app = sdn.flow("ping1").app
        t, rtts = app.rtt_series()
        before = rtts[(t > 40) & (t < 59)].mean()
        after = rtts[t > 61].mean()
        assert before - after > 15.0  # ~20 ms one-way improvement

    def test_dashboard_views_render(self):
        sdn = build_sdn()
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="f1", src="host1", dst="host2",
                         protocol="tcp", tos=32, duration=20.0)
        sdn.run(until=45.0)
        links = sdn.dashboard.render_links([("MIA", "SAO"), ("MIA", "CHI")])
        assert "MIA" in links
        table = sdn.dashboard.flow_table()
        assert "f1" in table and "T1" in table


class TestIncrementalReoptimization:
    def test_unchanged_group_skipped_on_second_tick(self):
        sdn = build_sdn()
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="f1", src="host1", dst="host2",
                         protocol="tcp", tos=32, duration=30.0)
        controller = sdn.controller
        controller.reoptimize_now()
        assert controller.reopt_solved == 1
        # no sim time has passed: membership, link state and telemetry
        # are all identical, so the group must be skipped
        controller.reoptimize_now()
        assert controller.reopt_solved == 1
        assert controller.reopt_skipped == 1

    def test_link_state_change_forces_resolve(self):
        sdn = build_sdn()
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="f1", src="host1", dst="host2",
                         protocol="tcp", tos=32, duration=30.0)
        controller = sdn.controller
        controller.reoptimize_now()
        controller.reoptimize_now()
        solved = controller.reopt_solved
        sdn.network.fail_link("MIA", "SAO")  # on candidate tunnel T1
        controller.reoptimize_now()
        assert controller.reopt_solved == solved + 1

    def test_membership_change_forces_resolve(self):
        sdn = build_sdn()
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="f1", src="host1", dst="host2",
                         protocol="tcp", tos=32, duration=30.0)
        controller = sdn.controller
        controller.reoptimize_now()
        controller.reoptimize_now()
        solved = controller.reopt_solved
        sdn.request_flow(flow_name="f2", src="host1", dst="host2",
                         protocol="tcp", tos=64, duration=30.0)
        controller.reoptimize_now()
        assert controller.reopt_solved == solved + 1

    def test_batched_tick_uses_one_hecate_request(self):
        """A re-optimization tick issues exactly one ask_path_batch
        message no matter how many groups are stale."""
        sdn = build_sdn()
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="f1", src="host1", dst="host2",
                         protocol="tcp", tos=32, duration=30.0)
        before = [m.topic for m in sdn.bus.log].count(
            "hecate.ask_path_batch"
        )
        sdn.controller.reoptimize_now()
        topics = [m.topic for m in sdn.bus.log]
        assert topics.count("hecate.ask_path_batch") == before + 1
        # decisions audit keeps growing through the batch path
        assert sdn.decision_log()

    def test_fig12_spread_still_reaches_all_tunnels(self):
        """The incremental tick must not lose the Fig. 12 behaviour:
        the first solve spreads the three flows over T1-T3."""
        sdn = build_sdn(reoptimize_every=5.0)
        sdn.run(until=35.0)
        for i, tos in enumerate([32, 64, 96], start=1):
            sdn.request_flow(flow_name=f"f{i}", src="host1", dst="host2",
                             protocol="tcp", tos=tos, duration=45.0)
        sdn.run(until=80.0)
        tunnels = sorted(sdn.flow(f"f{i}").tunnel for i in range(1, 4))
        assert tunnels == ["T1", "T2", "T3"]
        # steady state after the spread: ticks keep getting skipped
        assert sdn.controller.reopt_skipped > 0


class TestFlowRateEstimateWindow:
    def test_window_clamped_to_flow_start(self):
        """An early re-optimization tick must average a young flow over
        its actual lifetime, not a 5 s window padded with pre-start
        zeros (which halved the estimate here)."""
        sdn = build_sdn()
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="f1", src="host1", dst="host2",
                         protocol="tcp", tos=32, duration=30.0)
        sdn.run(until=37.0)  # flow is 2 s old, now - 5 predates it
        record = sdn.flow("f1")
        app = record.app
        now = sdn.network.sim.now
        estimate = sdn.controller._flow_rate_estimate(record)
        assert estimate == pytest.approx(
            app.goodput_mbps(app.started_at, now)
        )
        diluted = app.goodput_mbps(max(0.0, now - 5.0), now)
        assert estimate > diluted * 2.0  # 35..37 of a [32,37] window

    def test_not_yet_started_flows_excluded_from_reoptimization(self):
        """A placed flow whose start_at lies in the future carries no
        load yet; the optimizer must not migrate live flows to make
        room for it (phased scenarios schedule starts deep into the
        horizon)."""
        sdn = build_sdn()
        sdn.run(until=35.0)
        sdn.request_flow(flow_name="live", src="host1", dst="host2",
                         protocol="tcp", tos=32, duration=30.0)
        sdn.request_flow(flow_name="later", src="host1", dst="host2",
                         protocol="udp", tos=64, rate_mbps=15.0,
                         duration=10.0, start_at=100.0)
        controller = sdn.controller
        controller.reoptimize_now()
        sig = controller._group_snapshots[("MIA", "AMS")]
        assert [name for name, _ in sig[0]] == ["live"]
