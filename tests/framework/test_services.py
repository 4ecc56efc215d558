"""Scheduler, TelemetryService, Dashboard and assignment optimizer units."""

import numpy as np
import pytest

from repro.bus import MessageBus
from repro.framework import (
    INSERT_FLOW_TOPIC,
    FlowRequest,
    Scheduler,
    TelemetryService,
    sparkline,
)
from repro.framework.dashboard import Dashboard
from repro.hecate.objectives import assign_flows
from repro.topologies import fig12_capacities, global_p4_lab


class TestFlowRequest:
    def test_valid_tcp(self):
        FlowRequest(flow_name="f", src="a", dst="b").validate()

    def test_bad_protocol(self):
        with pytest.raises(ValueError):
            FlowRequest(flow_name="f", src="a", dst="b", protocol="sctp").validate()

    def test_bad_tos(self):
        with pytest.raises(ValueError):
            FlowRequest(flow_name="f", src="a", dst="b", tos=300).validate()

    def test_udp_needs_rate(self):
        with pytest.raises(ValueError):
            FlowRequest(flow_name="f", src="a", dst="b", protocol="udp").validate()

    def test_bad_duration_and_start(self):
        with pytest.raises(ValueError):
            FlowRequest(flow_name="f", src="a", dst="b", duration=0.0).validate()
        with pytest.raises(ValueError):
            FlowRequest(flow_name="f", src="a", dst="b", start_at=-1.0).validate()


class TestScheduler:
    def test_submit_queues_and_forwards(self):
        bus = MessageBus()
        seen = []
        bus.subscribe("scheduler.new_flow", lambda m: seen.append(m.payload["request"]))
        sched = Scheduler(bus)
        result = sched.submit(FlowRequest(flow_name="f1", src="a", dst="b"))
        assert result["ok"]
        assert len(seen) == 1 and seen[0].flow_name == "f1"
        assert len(sched.pending()) == 1

    def test_duplicate_name_rejected(self):
        sched = Scheduler(MessageBus())
        sched.submit(FlowRequest(flow_name="f1", src="a", dst="b"))
        result = sched.submit(FlowRequest(flow_name="f1", src="a", dst="b"))
        assert not result["ok"]
        assert sched.rejected == 1

    def test_insert_flow_topic(self):
        bus = MessageBus()
        sched = Scheduler(bus)
        replies = bus.request(
            INSERT_FLOW_TOPIC, flow_name="f2", src="a", dst="b", tos=5
        )
        assert replies[0]["ok"]
        assert sched.pending()[0].tos == 5

    def test_insert_flow_bad_field(self):
        bus = MessageBus()
        sched = Scheduler(bus)
        replies = bus.request(INSERT_FLOW_TOPIC, flow_name="f", src="a",
                              dst="b", nonsense=1)
        assert replies[0]["ok"] is False


class TestTelemetryService:
    def test_link_sampling_starts(self):
        net = global_p4_lab()
        bus = MessageBus()
        svc = TelemetryService(net, bus)
        svc.start()
        net.run(until=5.0)
        assert len(svc.db) > 0

    def test_path_probe_via_bus(self):
        net = global_p4_lab()
        bus = MessageBus()
        svc = TelemetryService(net, bus)
        svc.start()
        replies = bus.request("telemetry.start", name="T1",
                              path=["MIA", "SAO", "AMS"])
        assert replies[0]["ok"]
        net.run(until=5.0)
        t, v = svc.db.series("path:T1:available_mbps")
        assert v.size >= 4

    def test_get_topic_returns_series(self):
        net = global_p4_lab()
        bus = MessageBus()
        svc = TelemetryService(net, bus)
        svc.start()
        svc.create_path_probe("T1", ["MIA", "SAO", "AMS"])
        net.run(until=4.0)
        replies = bus.request("telemetry.get", path="T1")
        assert replies[0]["ok"]
        assert len(replies[0]["values"]) >= 3

    def test_get_topic_incremental_cursor(self):
        """``telemetry.get`` with a ``since`` cursor returns only the
        samples appended after it — the Controller's incremental
        getTelemetry pull."""
        net = global_p4_lab()
        bus = MessageBus()
        svc = TelemetryService(net, bus)
        svc.start()
        svc.create_path_probe("T1", ["MIA", "SAO", "AMS"])
        net.run(until=4.0)
        first = bus.request("telemetry.get", path="T1", since=0)[0]
        assert first["ok"] and len(first["values"]) >= 3
        cursor = first["cursor"]
        assert cursor == len(first["values"])
        caught_up = bus.request("telemetry.get", path="T1", since=cursor)[0]
        assert caught_up["values"] == []  # nothing new yet
        assert caught_up["cursor"] == cursor
        net.run(until=8.0)
        more = bus.request("telemetry.get", path="T1", since=cursor)[0]
        assert len(more["values"]) >= 3
        assert more["cursor"] == cursor + len(more["values"])

    @pytest.mark.parametrize(
        "since",
        ["abc", "3", [1], True, 2.5, float("inf")],
        ids=["text", "digits", "list", "bool", "float", "inf"],
    )
    def test_get_rejects_malformed_cursor(self, since):
        """A cursor that is not an integer is an error reply naming the
        field, not an exception out of ``bus.request``."""
        net = global_p4_lab()
        bus = MessageBus()
        svc = TelemetryService(net, bus)
        svc.create_path_probe("T1", ["MIA", "SAO", "AMS"])
        net.run(until=2.0)
        (reply,) = bus.request("telemetry.get", path="T1", since=since)
        assert reply["ok"] is False
        assert "since" in reply["error"]

    def test_get_requires_path(self):
        net = global_p4_lab()
        bus = MessageBus()
        TelemetryService(net, bus)
        replies = bus.request("telemetry.get")
        assert replies[0]["ok"] is False

    def test_probe_idempotent(self):
        net = global_p4_lab()
        svc = TelemetryService(net)
        svc.create_path_probe("T1", ["MIA", "SAO", "AMS"])
        svc.create_path_probe("T1", ["MIA", "SAO", "AMS"])
        assert len(svc.path_probes) == 1

    def test_stop(self):
        net = global_p4_lab()
        svc = TelemetryService(net)
        svc.start()
        net.run(until=2.0)
        svc.stop()
        size_before = len(svc.db.series("link:MIA->SAO:util")[0])
        net.run(until=6.0)
        assert len(svc.db.series("link:MIA->SAO:util")[0]) == size_before


class TestSparkline:
    def test_constant_series(self):
        assert sparkline([1.0, 1.0, 1.0], width=10) == "   "[:1] * 3

    def test_rising_series_rises(self):
        s = sparkline(np.linspace(0, 1, 10), width=10)
        assert s[0] == " " and s[-1] == "@"

    def test_downsampling_to_width(self):
        assert len(sparkline(np.arange(1000.0), width=40)) == 40

    def test_empty(self):
        assert sparkline([], width=5) == "     "


class TestAssignFlows:
    CAPS = dict(fig12_capacities())
    PATHS = {
        "T1": ("MIA", "SAO", "AMS"),
        "T2": ("MIA", "CHI", "AMS"),
        "T3": ("MIA", "CAL", "CHI", "AMS"),
    }

    def test_fig12_spread(self):
        """Three flows piled on T1 are spread one-per-tunnel (35 Mbps)."""
        result = assign_flows(
            current={"f1": "T1", "f2": "T1", "f3": "T1"},
            tunnel_paths=self.PATHS,
            capacities=self.CAPS,
        )
        assert sorted(result.assignment.values()) == ["T1", "T2", "T3"]
        assert result.total_mbps == pytest.approx(35.0)
        assert result.migrations == 2

    def test_stable_assignment_not_churned(self):
        result = assign_flows(
            current={"f1": "T1", "f2": "T2", "f3": "T3"},
            tunnel_paths=self.PATHS,
            capacities=self.CAPS,
        )
        assert result.migrations == 0

    def test_single_flow_takes_fattest_tunnel(self):
        result = assign_flows(
            current={"f1": "T3"},
            tunnel_paths=self.PATHS,
            capacities=self.CAPS,
        )
        assert result.assignment["f1"] == "T1"

    def test_greedy_fallback_matches_small_case(self):
        exhaustive = assign_flows(
            current={"f1": "T1", "f2": "T1", "f3": "T1"},
            tunnel_paths=self.PATHS, capacities=self.CAPS,
        )
        greedy = assign_flows(
            current={"f1": "T1", "f2": "T1", "f3": "T1"},
            tunnel_paths=self.PATHS, capacities=self.CAPS,
            max_enumerate=0,
        )
        assert greedy.total_mbps == pytest.approx(exhaustive.total_mbps)

    def test_validation(self):
        with pytest.raises(ValueError):
            assign_flows({}, self.PATHS, self.CAPS)
        with pytest.raises(ValueError):
            assign_flows({"f": "T1"}, {}, self.CAPS)
        with pytest.raises(KeyError):
            assign_flows({"f": "TX"}, self.PATHS, self.CAPS)


class TestDashboard:
    def test_render_links_and_paths(self):
        net = global_p4_lab()
        bus = MessageBus()
        svc = TelemetryService(net, bus)
        svc.start()
        svc.create_path_probe("T1", ["MIA", "SAO", "AMS"])
        net.run(until=5.0)
        dash = Dashboard(bus, svc.db)
        links_view = dash.render_links([("MIA", "SAO")])
        assert "MIA" in links_view and "[" in links_view
        paths_view = dash.render_paths(["T1"])
        assert "T1" in paths_view

    def test_flow_table_empty(self):
        dash = Dashboard(MessageBus(), None, controller=None)
        assert "no flows" in dash.flow_table()

    def test_request_flow_without_scheduler(self):
        dash = Dashboard(MessageBus(), None)
        assert dash.request_flow(flow_name="f", src="a", dst="b")["ok"] is False
