"""Failure injection: link down/up, FIB reconvergence."""

import pytest

from repro.net import Network, Packet, PingApp, TcpFlow


def diamond():
    net = Network()
    net.add_host("h1", ip="10.0.1.1")
    net.add_host("h2", ip="10.0.2.1")
    for r in "ABCD":
        net.add_router(r, edge=(r in "AD"))
    net.add_link("h1", "A")
    net.add_link("D", "h2")
    net.add_link("A", "B", delay_ms=1)
    net.add_link("B", "D", delay_ms=1)
    net.add_link("A", "C", delay_ms=10)
    net.add_link("C", "D", delay_ms=10)
    return net.build()


class TestLinkFailure:
    def test_failed_link_black_holes(self):
        net = diamond()
        net.fail_link("A", "B")
        # inject a PolKA packet pinned to the dead path: it must vanish
        route = net.polka.route_for_path(["A", "B", "D"])
        pkt = Packet(src="h1", dst="h2", size=100, flow_id=5,
                     route_id=route.route_id, tunnel_egress="D")
        net.routers["A"].inject(pkt)
        net.run(until=1.0)
        assert net.hosts["h2"].received_bytes(5) == 0
        stats = net.link("A", "B").stats_from(net.routers["A"])
        assert stats.dropped_packets == 1

    def test_fib_reconverges_around_failure(self):
        net = diamond()
        ping = PingApp(net.hosts["h1"], net.hosts["h2"], interval=1.0, count=3).start(0.1)
        net.run(until=4.0)
        _, fast = ping.rtt_series()
        net.fail_link("A", "B")  # the fast path dies
        ping2 = PingApp(net.hosts["h1"], net.hosts["h2"], interval=1.0, count=3).start(0.1)
        net.run(until=9.0)
        _, slow = ping2.rtt_series()
        assert len(slow) == 3  # still reachable via C
        assert slow.mean() > fast.mean() + 15.0  # 2*(10+10) vs 2*(1+1)

    def test_restore_link_reverts_paths(self):
        net = diamond()
        net.fail_link("A", "B")
        net.restore_link("A", "B")
        ping = PingApp(net.hosts["h1"], net.hosts["h2"], interval=1.0, count=2).start(0.1)
        net.run(until=3.0)
        _, rtts = ping.rtt_series()
        assert rtts.mean() < 10.0  # back on the fast path

    def test_tcp_survives_midstream_failover(self):
        net = diamond()
        flow = TcpFlow(net.hosts["h1"], net.hosts["h2"], duration=20.0).start()
        net.run(until=8.0)
        net.fail_link("A", "B")
        net.run(until=25.0)
        # retransmissions recover onto the surviving path
        assert flow.retransmits > 0
        assert flow.goodput_mbps(10.0, 20.0) > 1.0

    def test_unknown_link_failure_raises(self):
        net = diamond()
        with pytest.raises(KeyError):
            net.fail_link("A", "D")
