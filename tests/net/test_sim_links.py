"""Event loop and link-level behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Link, Network, Packet, Simulator
from repro.net.devices import Host


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_fifo(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run(until=3.0)
        assert sim.now == 3.0 and not fired
        sim.run(until=10.0)
        assert fired and sim.now == 10.0

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append(1))
        ev.cancel()
        sim.run()
        assert not fired

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def outer():
            sim.schedule(1.0, lambda: times.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert times == [2.0]

    def test_runaway_guard(self):
        from repro.net import EventBudgetExceeded

        sim = Simulator()

        def forever():
            sim.schedule(0.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(EventBudgetExceeded, match="budget"):
            sim.run(until=1.0, max_events=100)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=30)
    def test_clock_is_monotonic(self, delays):
        sim = Simulator()
        seen = []
        for d in delays:
            sim.schedule(d, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)


def two_hosts(rate=10.0, delay=1.0, queue=10):
    net = Network()
    net.add_host("a", ip="1.1.1.1")
    net.add_host("b", ip="1.1.1.2")
    net.add_link("a", "b", rate_mbps=rate, delay_ms=delay, queue_packets=queue)
    net.build()
    return net


class TestLink:
    def test_serialization_plus_propagation_delay(self):
        net = two_hosts(rate=8.0, delay=5.0)
        got = []
        net.hosts["b"].register_flow(7, lambda p: got.append(net.sim.now))
        pkt = Packet(src="a", dst="b", size=1000, flow_id=7)
        net.hosts["a"].send_packet(pkt)
        net.run(until=1.0)
        # 1000 B at 8 Mbps = 1 ms serialization + 5 ms propagation
        assert got and got[0] == pytest.approx(0.006, abs=1e-9)

    def test_fifo_order_preserved(self):
        net = two_hosts()
        seqs = []
        net.hosts["b"].register_flow(7, lambda p: seqs.append(p.seq))
        for i in range(5):
            net.hosts["a"].send_packet(Packet(src="a", dst="b", size=500, flow_id=7, seq=i))
        net.run(until=1.0)
        assert seqs == [0, 1, 2, 3, 4]

    def test_queue_overflow_drops_tail(self):
        net = two_hosts(rate=1.0, queue=5)
        delivered = []
        net.hosts["b"].register_flow(7, lambda p: delivered.append(p.seq))
        # burst of 20 into a queue of 5 (plus 1 in service)
        for i in range(20):
            net.hosts["a"].send_packet(Packet(src="a", dst="b", size=1500, flow_id=7, seq=i))
        net.run(until=10.0)
        stats = net.link("a", "b").stats_from(net.hosts["a"])
        assert stats.dropped_packets == 20 - len(delivered)
        assert len(delivered) == 6  # 1 in service + 5 queued
        assert delivered == [0, 1, 2, 3, 4, 5]  # head of burst survives

    def test_full_duplex_no_interference(self):
        net = two_hosts(rate=8.0, delay=1.0)
        times = {}
        net.hosts["a"].register_flow(2, lambda p: times.setdefault("a", net.sim.now))
        net.hosts["b"].register_flow(1, lambda p: times.setdefault("b", net.sim.now))
        net.hosts["a"].send_packet(Packet(src="a", dst="b", size=1000, flow_id=1))
        net.hosts["b"].send_packet(Packet(src="b", dst="a", size=1000, flow_id=2))
        net.run(until=1.0)
        # both directions complete in one serialization + propagation
        assert times["a"] == pytest.approx(0.002, abs=1e-9)
        assert times["b"] == pytest.approx(0.002, abs=1e-9)

    def test_rate_cap_enforced(self):
        net = two_hosts(rate=10.0, delay=0.1, queue=1000)
        received = []
        net.hosts["b"].register_flow(3, lambda p: received.append(p.size))
        for i in range(200):
            net.hosts["a"].send_packet(Packet(src="a", dst="b", size=1500, flow_id=3, seq=i))
        net.run(until=0.1)  # 100 ms at 10 Mbps fits ~83 x 1500 B
        achieved = sum(received) * 8 / 0.1 / 1e6
        assert achieved <= 10.0 + 0.2

    def test_stats_counters(self):
        net = two_hosts()
        net.hosts["a"].send_packet(Packet(src="a", dst="b", size=777, flow_id=1))
        net.run(until=1.0)
        stats = net.link("a", "b").stats_from(net.hosts["a"])
        assert stats.tx_packets == 1
        assert stats.tx_bytes == 777

    def test_every_per_direction_query_rejects_a_stranger(self):
        net = two_hosts()
        link = net.link("a", "b")
        stranger = Host(net.sim, "c")
        for query in (
            link.queue_depth_from,
            link.stats_from,
            link.background_from,
            link.direction_from,
            link.other,
        ):
            with pytest.raises(ValueError, match="c is not attached"):
                query(stranger)
        assert link.queue_depth_from(net.hosts["b"]) == 0

    def test_validation(self):
        sim = Simulator()
        a, b = Host(sim, "a"), Host(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, rate_mbps=0.0)
        with pytest.raises(ValueError):
            Link(sim, a, b, delay_ms=-1.0)
        with pytest.raises(ValueError):
            Link(sim, a, b, queue_packets=0)

    def test_packet_size_validation(self):
        with pytest.raises(ValueError):
            Packet(src="a", dst="b", size=0)
