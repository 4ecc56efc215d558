"""Routers (FIB + PolKA planes), ping, TCP and UDP apps."""

import numpy as np
import pytest

from repro.net import Network, Packet, PingApp, TcpFlow, UdpFlow


def line_network(core_rate=20.0, core_delay=5.0):
    """h1 - r1 - r2 - r3 - h2 with a 20 Mbps core."""
    net = Network()
    net.add_host("h1", ip="10.0.1.1")
    net.add_host("h2", ip="10.0.2.1")
    net.add_router("r1", edge=True)
    net.add_router("r2")
    net.add_router("r3", edge=True)
    net.add_link("h1", "r1", rate_mbps=1000, delay_ms=0.1)
    net.add_link("r1", "r2", rate_mbps=core_rate, delay_ms=core_delay)
    net.add_link("r2", "r3", rate_mbps=core_rate, delay_ms=core_delay)
    net.add_link("r3", "h2", rate_mbps=1000, delay_ms=0.1)
    return net.build()


def diamond_network():
    """Two router paths A->B->D (fast) and A->C->D (slow)."""
    net = Network()
    net.add_host("h1", ip="10.0.1.1")
    net.add_host("h2", ip="10.0.2.1")
    for r in "ABCD":
        net.add_router(r, edge=(r in "AD"))
    net.add_link("h1", "A")
    net.add_link("D", "h2")
    net.add_link("A", "B", delay_ms=1)
    net.add_link("B", "D", delay_ms=1)
    net.add_link("A", "C", delay_ms=30)
    net.add_link("C", "D", delay_ms=30)
    return net.build()


class TestRouterForwarding:
    def test_fib_prefers_shortest_path(self):
        net = diamond_network()
        assert net.routers["A"].fib["h2"] == net.routers["A"].port_of["B"]

    def test_ttl_expiry_drops(self):
        net = line_network()
        pkt = Packet(src="h1", dst="h2", size=100, flow_id=1, ttl=2)
        net.hosts["h1"].send_packet(pkt)
        net.run(until=1.0)
        drops = sum(r.stats.dropped_ttl for r in net.routers.values())
        assert drops == 1
        assert net.hosts["h2"].received_bytes(1) == 0

    def test_unroutable_destination_dropped(self):
        net = line_network()
        net.hosts["h1"].send_packet(Packet(src="h1", dst="ghost", size=100))
        net.run(until=1.0)
        assert net.routers["r1"].stats.dropped_no_route == 1

    def test_polka_plane_bypasses_fib(self):
        net = diamond_network()
        route = net.polka.route_for_path(["A", "C", "D"])
        net.routers["A"].classifier = lambda p: (route.route_id, "D")
        net.hosts["h1"].send_packet(Packet(src="h1", dst="h2", size=100, flow_id=9))
        net.run(until=1.0)
        assert net.routers["C"].stats.polka_forwarded == 1
        assert net.routers["B"].stats.polka_forwarded == 0
        assert net.routers["D"].stats.decapsulated == 1
        assert net.hosts["h2"].received_bytes(9) == 100

    def test_core_router_keeps_no_flow_state(self):
        """PolKA's point: the same core router forwards any routeID with
        zero installed state — only its own node_id."""
        net = diamond_network()
        c = net.routers["C"]
        assert c.classifier is None
        assert "h2" in c.fib  # FIB exists but is not consulted for tunnels
        r1 = net.polka.route_for_path(["A", "C", "D"])
        pkt = Packet(src="h1", dst="h2", size=64, flow_id=1,
                     route_id=r1.route_id, tunnel_egress="D")
        net.routers["A"].inject(pkt)
        net.run(until=1.0)
        assert net.hosts["h2"].received_bytes(1) == 64


class TestPing:
    def test_rtt_matches_propagation(self):
        net = line_network(core_delay=5.0)
        ping = PingApp(net.hosts["h1"], net.hosts["h2"], interval=1.0, count=5).start()
        net.run(until=10.0)
        _, rtts = ping.rtt_series()
        assert len(rtts) == 5
        # 2 * (0.1 + 5 + 5 + 0.1) = 20.4 ms plus serialization
        assert np.all(np.abs(rtts - 20.4) < 1.0)

    def test_count_limits_probes(self):
        net = line_network()
        ping = PingApp(net.hosts["h1"], net.hosts["h2"], interval=0.5, count=3).start()
        net.run(until=10.0)
        assert ping.sent == 3

    def test_loss_reported(self):
        net = line_network()
        ping = PingApp(net.hosts["h1"], net.hosts["h2"], interval=1.0, count=4).start()
        net.run(until=3.01)  # probe at t=3 sent but its reply needs ~20 ms
        assert ping.loss_rate > 0.0

    def test_interval_validation(self):
        net = line_network()
        with pytest.raises(ValueError):
            PingApp(net.hosts["h1"], net.hosts["h2"], interval=0.0)


class TestTcp:
    def test_saturates_bottleneck(self):
        net = line_network(core_rate=20.0)
        flow = TcpFlow(net.hosts["h1"], net.hosts["h2"], duration=15.0).start()
        net.run(until=20.0)
        assert 16.0 < flow.goodput_mbps() < 20.0

    def test_three_flows_share_fairly(self):
        net = line_network(core_rate=18.0)
        flows = [
            TcpFlow(net.hosts["h1"], net.hosts["h2"], tos=i, duration=20.0).start()
            for i in range(3)
        ]
        net.run(until=25.0)
        rates = [f.goodput_mbps(5.0, 20.0) for f in flows]
        assert sum(rates) > 14.0  # aggregate still near capacity
        assert max(rates) < 3.0 * min(rates)  # rough AIMD fairness

    def test_interval_series_reflects_duration(self):
        net = line_network()
        flow = TcpFlow(net.hosts["h1"], net.hosts["h2"], duration=5.0).start(at=1.0)
        net.run(until=10.0)
        t, series = flow.interval_mbps()
        assert len(series) == 5
        assert series.mean() > 5.0

    def test_report_contents(self):
        net = line_network()
        flow = TcpFlow(net.hosts["h1"], net.hosts["h2"], duration=5.0).start()
        net.run(until=8.0)
        rep = flow.report()
        assert rep.src == "h1" and rep.dst == "h2"
        assert rep.bytes_delivered > 0
        assert rep.mean_mbps == pytest.approx(flow.goodput_mbps())

    def test_losses_trigger_retransmits_on_tiny_queue(self):
        net = Network()
        net.add_host("h1", ip="1.1.1.1")
        net.add_host("h2", ip="1.1.1.2")
        net.add_router("r1", edge=True)
        net.add_router("r2", edge=True)
        net.add_link("h1", "r1", rate_mbps=1000, delay_ms=0.1)
        net.add_link("r1", "r2", rate_mbps=5.0, delay_ms=10.0, queue_packets=5)
        net.add_link("r2", "h2", rate_mbps=1000, delay_ms=0.1)
        net.build()
        flow = TcpFlow(net.hosts["h1"], net.hosts["h2"], duration=10.0).start()
        net.run(until=15.0)
        assert flow.retransmits > 0
        assert flow.goodput_mbps() > 2.0  # still makes progress

    def test_duration_validation(self):
        net = line_network()
        with pytest.raises(ValueError):
            TcpFlow(net.hosts["h1"], net.hosts["h2"], duration=0.0)


class TestUdp:
    def test_cbr_rate_delivered(self):
        net = line_network(core_rate=20.0)
        flow = UdpFlow(net.hosts["h1"], net.hosts["h2"], rate_mbps=5.0, duration=10.0).start()
        net.run(until=12.0)
        assert flow.delivered_mbps() == pytest.approx(5.0, rel=0.05)
        assert flow.loss_rate < 0.01

    def test_overdriven_udp_loses_packets(self):
        net = line_network(core_rate=10.0)
        flow = UdpFlow(net.hosts["h1"], net.hosts["h2"], rate_mbps=30.0, duration=5.0).start()
        net.run(until=8.0)
        assert flow.loss_rate > 0.4  # 30 Mbps into a 10 Mbps pipe
        assert flow.delivered_mbps() < 11.0

    def test_validation(self):
        net = line_network()
        with pytest.raises(ValueError):
            UdpFlow(net.hosts["h1"], net.hosts["h2"], rate_mbps=0.0)
        with pytest.raises(ValueError):
            UdpFlow(net.hosts["h1"], net.hosts["h2"], rate_mbps=1.0, duration=0.0)

    def test_report_records_jitter_and_latency(self):
        # the VoIP MOS model needs per-packet inter-arrival jitter and
        # one-way latency, not just the mean delivered rate
        net = line_network(core_rate=20.0, core_delay=5.0)
        flow = UdpFlow(
            net.hosts["h1"], net.hosts["h2"], rate_mbps=5.0, duration=10.0
        ).start()
        net.run(until=12.0)
        report = flow.report()
        # one-way prop delay is ~10.2 ms + serialization/queueing
        assert 10.0 <= report.mean_latency_ms < 30.0
        assert report.mean_latency_ms == pytest.approx(
            flow.mean_latency_ms
        )
        # an unloaded CBR flow sees near-constant transit: tiny jitter
        assert 0.0 <= report.jitter_ms < 2.0
        assert report.loss_rate == pytest.approx(flow.loss_rate)
        assert report.mean_mbps == pytest.approx(flow.delivered_mbps())

    def test_queueing_raises_jitter(self):
        # an oscillating queue (AIMD cross traffic) spreads transit
        # times; RFC 3550 jitter must move with it — strictly greater
        # than the unloaded run's near-zero value
        quiet = line_network(core_rate=20.0)
        q = UdpFlow(
            quiet.hosts["h1"], quiet.hosts["h2"], rate_mbps=5.0, duration=5.0
        ).start()
        quiet.run(until=8.0)
        busy = line_network(core_rate=20.0)
        TcpFlow(busy.hosts["h1"], busy.hosts["h2"], duration=8.0).start()
        b = UdpFlow(
            busy.hosts["h1"], busy.hosts["h2"], rate_mbps=5.0, duration=5.0
        ).start()
        busy.run(until=8.0)
        assert b.jitter_ms > max(q.jitter_ms * 1e3, 1e-3)
        assert b.mean_latency_ms > q.mean_latency_ms + 5.0
        assert b.report().jitter_ms == pytest.approx(b.jitter_ms)


class TestNetworkApi:
    def test_duplicate_names_rejected(self):
        net = Network()
        net.add_host("x")
        with pytest.raises(ValueError):
            net.add_router("x")

    def test_unknown_link_endpoint(self):
        net = Network()
        net.add_host("a")
        with pytest.raises(ValueError):
            net.add_link("a", "nope")

    def test_duplicate_link_rejected(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_link("a", "b")
        with pytest.raises(ValueError):
            net.add_link("b", "a")

    def test_declare_after_build_rejected(self):
        net = line_network()
        with pytest.raises(RuntimeError):
            net.add_host("late")

    def test_run_requires_build(self):
        with pytest.raises(RuntimeError):
            Network().run(until=1.0)

    def test_impairments_validate(self):
        net = line_network()
        with pytest.raises(ValueError):
            net.set_link_rate("r1", "r2", 0.0)
        with pytest.raises(ValueError):
            net.set_link_delay("r1", "r2", -1.0)
        with pytest.raises(KeyError):
            net.link("r1", "r3")

    def test_path_metrics(self):
        net = diamond_network()
        assert net.path_delay_ms(["A", "C", "D"]) == pytest.approx(60.0)

    def test_runtime_impairment_changes_rtt(self):
        net = line_network(core_delay=1.0)
        ping1 = PingApp(net.hosts["h1"], net.hosts["h2"], interval=1.0, count=2).start()
        net.run(until=3.0)
        net.set_link_delay("r1", "r2", 21.0)  # +20 ms like the paper's tc
        ping2 = PingApp(net.hosts["h1"], net.hosts["h2"], interval=1.0, count=2).start(0.0)
        net.run(until=8.0)
        _, r1 = ping1.rtt_series()
        _, r2 = ping2.rtt_series()
        assert r2.mean() - r1.mean() == pytest.approx(40.0, abs=2.0)
