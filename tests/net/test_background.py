"""Background-load term: links, telemetry, epoch schedules, UDP trains."""

import pytest

from repro.net import (
    BackgroundEpoch,
    LinkTelemetryCollector,
    Network,
    Packet,
    TimeSeriesDB,
    UdpFlow,
    apply_background,
    install_background_schedule,
)


def two_hosts(rate=10.0):
    net = Network()
    net.add_host("a", ip="1.1.1.1")
    net.add_host("b", ip="1.1.1.2")
    net.add_link("a", "b", rate_mbps=rate, delay_ms=1.0, queue_packets=50)
    net.build()
    return net


def arrival_time(net, size=1500):
    """Virtual time one ``size``-byte packet from a reaches b."""
    got = []
    net.hosts["b"].register_flow(9, lambda p: got.append(net.sim.now))
    net.hosts["a"].send_packet(Packet(src="a", dst="b", size=size, flow_id=9))
    net.run(until=10.0)
    assert len(got) == 1
    return got[0]


class TestLinkBackground:
    def test_background_slows_effective_serialization(self):
        net = two_hosts(rate=10.0)
        link = net.link("a", "b")
        node = net.node("a")
        assert link.background_from(node) == 0.0
        link.set_background_from(node, 6.0)
        assert link.background_from(node) == 6.0
        # direction b->a is independent
        assert link.background_from(net.node("b")) == 0.0
        # 1500 B at the 4 Mbps left = 3 ms serialization + 1 ms delay
        assert arrival_time(net) == pytest.approx(0.004, abs=1e-9)

    def test_background_is_floored_not_stalling(self):
        net = two_hosts(rate=10.0)
        link = net.link("a", "b")
        node = net.node("a")
        link.set_background_from(node, 1e9)  # absurd oversubscription
        # floored at 1 % of 10 Mbps: 1500 B take 120 ms, plus 1 ms delay
        assert arrival_time(net) == pytest.approx(0.121, abs=1e-9)

    def test_negative_background_rejected(self):
        net = two_hosts()
        with pytest.raises(ValueError, match=">= 0"):
            net.link("a", "b").set_background_from(net.node("a"), -1.0)

    def test_background_stretches_packet_delivery(self):
        loaded = two_hosts(rate=10.0)
        clear = two_hosts(rate=10.0)
        loaded.link("a", "b").set_background_from(loaded.node("a"), 5.0)
        for net in (loaded, clear):
            UdpFlow(
                net.hosts["a"], net.hosts["b"], rate_mbps=8.0, duration=2.0
            ).start()
            net.run(4.0)
        assert (
            loaded.link("a", "b").stats_from(loaded.node("a")).tx_bytes
            <= clear.link("a", "b").stats_from(clear.node("a")).tx_bytes
        )
        # 8 Mbps offered into 5 Mbps effective: the loaded link must
        # drop what the clear link carries comfortably
        assert (
            loaded.link("a", "b").stats_from(loaded.node("a")).dropped_packets
            > 0
        )
        assert (
            clear.link("a", "b").stats_from(clear.node("a")).dropped_packets
            == 0
        )


class TestTelemetryBackground:
    def test_link_samples_include_background(self):
        net = two_hosts(rate=10.0)
        db = TimeSeriesDB()
        LinkTelemetryCollector(net, db, interval=1.0).start()
        net.link("a", "b").set_background_from(net.node("a"), 4.0)
        net.run(3.5)
        _, mbps = db.series("link:a->b:mbps")
        assert mbps[-1] == pytest.approx(4.0)  # no packets, pure term
        _, util = db.series("link:a->b:util")
        assert util[-1] == pytest.approx(0.4)
        # the unloaded reverse direction stays at zero
        _, rev = db.series("link:b->a:mbps")
        assert rev[-1] == pytest.approx(0.0)


class TestApplyBackground:
    def test_applies_and_clears_directed_loads(self):
        net = two_hosts()
        link = net.link("a", "b")
        apply_background(net, {("a", "b"): 3.0})
        assert link.background_from(net.node("a")) == 3.0
        assert link.background_from(net.node("b")) == 0.0
        # a new mapping clears directions it does not name
        apply_background(net, {("b", "a"): 1.0})
        assert link.background_from(net.node("a")) == 0.0
        assert link.background_from(net.node("b")) == 1.0
        apply_background(net, {})
        assert link.background_from(net.node("b")) == 0.0

    def test_unknown_link_rejected(self):
        net = two_hosts()
        with pytest.raises(KeyError, match="absent"):
            apply_background(net, {("a", "nope"): 1.0})

    def test_empty_epoch_rejected(self):
        with pytest.raises(ValueError, match="empty epoch"):
            BackgroundEpoch(t0=2.0, t1=2.0)

    def test_schedule_applies_per_epoch_and_clears_after(self):
        net = two_hosts()
        link = net.link("a", "b")
        node = net.node("a")
        epochs = [
            BackgroundEpoch(0.0, 1.0, {("a", "b"): 2.0}),
            BackgroundEpoch(1.0, 2.0, {("a", "b"): 5.0}),
        ]
        events = install_background_schedule(net, epochs, offset=1.0)
        assert len(events) == 3  # two epochs + the trailing clear
        net.run(1.5)
        assert link.background_from(node) == 2.0
        net.run(2.5)
        assert link.background_from(node) == 5.0
        net.run(3.5)  # past offset + last epoch end: cleared
        assert link.background_from(node) == 0.0


class TestUdpTrains:
    def test_train_preserves_average_rate(self):
        paced = two_hosts(rate=100.0)
        trained = two_hosts(rate=100.0)
        f1 = UdpFlow(
            paced.hosts["a"], paced.hosts["b"], rate_mbps=5.0, duration=4.0
        ).start()
        f8 = UdpFlow(
            trained.hosts["a"], trained.hosts["b"], rate_mbps=5.0,
            duration=4.0, train_packets=8,
        ).start()
        paced.run(6.0)
        trained.run(6.0)
        assert f8.delivered_mbps() == pytest.approx(
            f1.delivered_mbps(), rel=0.1
        )
        # the whole point: an 8-packet train needs ~1/8th the timer ticks
        assert trained.sim.events_processed < paced.sim.events_processed

    def test_train_must_be_positive(self):
        net = two_hosts()
        with pytest.raises(ValueError, match="train_packets"):
            UdpFlow(net.hosts["a"], net.hosts["b"], rate_mbps=1.0,
                    train_packets=0)

    def test_delivered_mbps_honest_for_single_train_flow(self):
        """A flow whose lifetime fits in one back-to-back train must
        report its trickle rate, not the link serialization rate."""
        net = two_hosts(rate=100.0)
        flow = UdpFlow(
            net.hosts["a"], net.hosts["b"], rate_mbps=0.5, duration=1.0,
            train_packets=64,
        ).start()
        net.run(3.0)
        # 0.5 Mbps for 1 s is ~5-6 MTU packets; they all leave in one
        # train burst, but the average over the active window is ~0.5
        assert flow.delivered_mbps() < 2.0
