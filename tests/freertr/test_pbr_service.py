"""EdgePolicy/PBR mechanics, the bus, and the reconfiguration service."""

import pytest

from repro.bus import MessageBus
from repro.freertr import (
    RECONFIG_TOPIC,
    AccessList,
    AclRule,
    EdgePolicy,
    PolkaTunnel,
    RouterConfigService,
)
from repro.net import Packet, PingApp, TcpFlow
from repro.topologies import TUNNEL1, TUNNEL2, global_p4_lab


def any_acl(name="all"):
    acl = AccessList(name)
    acl.add(AclRule.parse("permit any 0.0.0.0 0.0.0.0 0.0.0.0 0.0.0.0".split()))
    return acl


def make_policy(net, tunnels=((1, TUNNEL1), (2, TUNNEL2))):
    policy = EdgePolicy("MIA")
    policy.add_access_list(any_acl())
    for tid, path in tunnels:
        policy.add_tunnel(
            PolkaTunnel(tunnel_id=tid, path=path, route=net.polka.route_for_path(path))
        )
    return policy


class TestMessageBus:
    def test_publish_reaches_subscribers_in_order(self):
        bus = MessageBus()
        seen = []
        bus.subscribe("t", lambda m: seen.append(("a", m.payload["x"])))
        bus.subscribe("t", lambda m: seen.append(("b", m.payload["x"])))
        bus.request("t", x=1)
        assert seen == [("a", 1), ("b", 1)]

    def test_request_collects_replies(self):
        bus = MessageBus()
        bus.subscribe("q", lambda m: m.payload["x"] * 2)
        bus.subscribe("q", lambda m: None)
        assert bus.request("q", x=3) == [6]

    def test_history_filter(self):
        bus = MessageBus()
        bus.request("a", v=1)
        bus.request("b", v=2)
        bus.request("a", v=3)
        assert [m.payload["v"] for m in bus.history("a")] == [1, 3]


class TestEdgePolicy:
    def test_bind_then_classify(self):
        net = global_p4_lab()
        policy = make_policy(net)
        policy.bind("all", 1)
        pkt = Packet(src="h", dst="h2", size=100, protocol="tcp",
                     src_ip="1.1.1.1", dst_ip="2.2.2.2")
        route_id, egress = policy.classify(pkt)
        assert egress == "AMS"
        assert policy.entries[0].hits == 1

    def test_repoint_is_single_touch(self):
        net = global_p4_lab()
        policy = make_policy(net)
        policy.bind("all", 1)
        assert policy.reconfigurations == 1
        policy.bind("all", 2)  # the Fig. 11 migration
        assert policy.reconfigurations == 2
        assert policy.binding_of("all") == 2

    def test_rebind_same_tunnel_is_noop(self):
        net = global_p4_lab()
        policy = make_policy(net)
        policy.bind("all", 1)
        policy.bind("all", 1)
        assert policy.reconfigurations == 1

    def test_unbind(self):
        net = global_p4_lab()
        policy = make_policy(net)
        policy.bind("all", 1)
        policy.unbind("all")
        assert policy.binding_of("all") is None
        with pytest.raises(KeyError):
            policy.unbind("all")

    def test_bind_validation(self):
        net = global_p4_lab()
        policy = make_policy(net)
        with pytest.raises(KeyError):
            policy.bind("ghost", 1)
        with pytest.raises(KeyError):
            policy.bind("all", 99)

    def test_foreign_ingress_tunnel_rejected(self):
        net = global_p4_lab()
        policy = EdgePolicy("AMS")
        with pytest.raises(ValueError):
            policy.add_tunnel(
                PolkaTunnel(1, TUNNEL1, net.polka.route_for_path(TUNNEL1))
            )

    def test_describe_mentions_everything(self):
        net = global_p4_lab()
        policy = make_policy(net)
        policy.bind("all", 1)
        text = policy.describe()
        assert "tunnel1" in text and "access-list all" in text and "pbr" in text


FIG12_CONFIG = """
access-list f1
 permit 6 40.40.1.0 255.255.255.0 40.40.2.2 255.255.255.255 tos 32
exit
interface tunnel1
 tunnel domain-name MIA SAO AMS
exit
interface tunnel2
 tunnel domain-name MIA CHI AMS
exit
pbr f1 tunnel 1
"""


class TestRouterConfigService:
    def test_apply_config_via_bus(self):
        net = global_p4_lab()
        bus = MessageBus()
        service = RouterConfigService(net, bus)
        replies = bus.request(
            RECONFIG_TOPIC, command="apply_config", router="MIA", text=FIG12_CONFIG
        )
        assert replies == [{"ok": True, "router": "MIA", "tunnels": [1, 2],
                            "pbr_entries": 1}]
        assert service.policy("MIA").binding_of("f1") == 1

    def test_bind_pbr_via_bus(self):
        net = global_p4_lab()
        bus = MessageBus()
        service = RouterConfigService(net, bus)
        bus.request(RECONFIG_TOPIC, command="apply_config", router="MIA", text=FIG12_CONFIG)
        replies = bus.request(
            RECONFIG_TOPIC, command="bind_pbr", router="MIA", acl="f1", tunnel_id=2
        )
        assert replies[0]["ok"]
        assert service.policy("MIA").binding_of("f1") == 2

    def test_create_tunnel_via_bus(self):
        net = global_p4_lab()
        bus = MessageBus()
        service = RouterConfigService(net, bus)
        bus.request(RECONFIG_TOPIC, command="apply_config", router="MIA", text=FIG12_CONFIG)
        replies = bus.request(
            RECONFIG_TOPIC, command="create_tunnel", router="MIA",
            tunnel_id=3, path=["MIA", "CAL", "CHI", "AMS"],
        )
        assert replies[0]["ok"]
        assert 3 in service.policy("MIA").tunnels

    def test_errors_are_reported_not_raised(self):
        net = global_p4_lab()
        bus = MessageBus()
        service = RouterConfigService(net, bus)
        replies = bus.request(RECONFIG_TOPIC, command="bind_pbr", router="MIA",
                              acl="x", tunnel_id=1)
        assert replies[0]["ok"] is False
        assert service.failed == 1

    def test_unknown_command(self):
        net = global_p4_lab()
        bus = MessageBus()
        RouterConfigService(net, bus)
        replies = bus.request(RECONFIG_TOPIC, command="reboot")
        assert replies[0]["ok"] is False


class TestEndToEndSteering:
    def test_pbr_flip_changes_live_ping_latency(self):
        """Miniature Fig. 11: ping rides Tunnel 1 (slow via 20 ms MIA-SAO),
        a single PBR flip moves it to Tunnel 2 (fast via CHI)."""
        net = global_p4_lab(delays={("MIA", "SAO"): 21.0})
        bus = MessageBus()
        service = RouterConfigService(net, bus)
        config = (
            "access-list icmp1\n"
            " permit icmp 40.40.1.0 255.255.255.0 40.40.2.2 255.255.255.255\n"
            "exit\n"
            "interface tunnel1\n tunnel domain-name MIA SAO AMS\nexit\n"
            "interface tunnel2\n tunnel domain-name MIA CHI AMS\nexit\n"
            "pbr icmp1 tunnel 1\n"
        )
        bus.request(RECONFIG_TOPIC, command="apply_config", router="MIA", text=config)
        ping = PingApp(net.hosts["host1"], net.hosts["host2"], interval=1.0).start(0.5)
        net.run(until=10.0)
        bus.request(RECONFIG_TOPIC, command="bind_pbr", router="MIA", acl="icmp1", tunnel_id=2)
        net.run(until=20.0)
        t, rtts = ping.rtt_series()
        before = rtts[t < 9.5].mean()
        after = rtts[t > 10.5].mean()
        # the *forward* direction leaves the 21 ms MIA-SAO link; the echo
        # reply always returns via the FIB path, so the RTT improvement is
        # the one-way delta of ~20 ms
        assert before - after == pytest.approx(20.0, abs=3.0)
        assert after < before

    def test_acks_return_via_fib_not_tunnel(self):
        net = global_p4_lab()
        bus = MessageBus()
        RouterConfigService(net, bus)
        config = (
            "access-list t\n"
            " permit 6 40.40.1.0 255.255.255.0 40.40.2.2 255.255.255.255\n"
            "exit\n"
            "interface tunnel1\n tunnel domain-name MIA SAO AMS\nexit\n"
            "pbr t tunnel 1\n"
        )
        bus.request(RECONFIG_TOPIC, command="apply_config", router="MIA", text=config)
        flow = TcpFlow(net.hosts["host1"], net.hosts["host2"], duration=3.0).start()
        net.run(until=5.0)
        assert flow.goodput_mbps() > 1.0
        # data went via SAO; acks took the FIB path (AMS's classifier is unset)
        assert net.routers["SAO"].stats.polka_forwarded > 0
        assert net.routers["AMS"].stats.decapsulated > 0
