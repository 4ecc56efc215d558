"""Hosts and routers.

Routers implement both forwarding planes the paper contrasts:

* **table-based** — a FIB of ``destination host -> output port`` computed
  from the topology (the role OSPF/static routes play on freeRtr);
* **PolKA source routing** — if a packet carries a ``route_id`` the router
  ignores its tables entirely and computes ``route_id mod node_id``
  (:class:`repro.polka.routing.PolkaNode`), the stateless core behaviour.

Edge routers additionally run a *classifier* installed by the freeRtr
config layer (:mod:`repro.freertr`): it matches new packets against
access-lists + PBR and returns the PolKA tunnel to encapsulate into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.polka.routing import PolkaNode

from .links import Link
from .packets import Packet
from .sim import Simulator

__all__ = ["Node", "Host", "Router", "RouterStats"]


class Node:
    """Anything with ports: base for Host and Router."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.ports: Dict[int, Link] = {}
        self.port_of: Dict[str, int] = {}  # neighbour name -> port
        # port -> ``send`` of this node's transmit direction on that
        # port's link, resolved once at attach so a hop sends without
        # asking the link which end it is
        self._send_on: Dict[int, Callable[[Packet], bool]] = {}

    def attach(self, port: int, link: Link) -> None:
        if port in self.ports:
            raise ValueError(f"{self.name}: port {port} already attached")
        self.ports[port] = link
        self.port_of[link.other(self).name] = port
        self._send_on[port] = link.direction_from(self).send

    def send_out(self, port: int, packet: Packet) -> bool:
        try:
            send = self._send_on[port]
        except KeyError:
            raise KeyError(f"{self.name}: no link on port {port}") from None
        return send(packet)

    def receive(self, packet: Packet, link: Link) -> None:  # pragma: no cover
        raise NotImplementedError


class Host(Node):
    """An end host: owns an IP, runs apps, answers pings.

    Incoming data packets are dispatched to per-flow receive hooks that
    applications register; unclaimed traffic is counted so tests can
    assert on misdelivery.
    """

    def __init__(self, sim: Simulator, name: str, ip: str = ""):
        super().__init__(sim, name)
        self.ip = ip
        self.flow_handlers: Dict[int, Callable[[Packet], None]] = {}
        self.received_unclaimed: int = 0
        self.rx_log: List[Tuple[float, int, int]] = []  # (t, flow_id, bytes)

    @property
    def uplink_port(self) -> int:
        if not self.ports:
            raise RuntimeError(f"host {self.name} has no link")
        return next(iter(self.ports))

    def register_flow(self, flow_id: int, handler: Callable[[Packet], None]) -> None:
        self.flow_handlers[flow_id] = handler

    def unregister_flow(self, flow_id: int) -> None:
        """Drop a flow's handler (idempotent).  Retired flows must not
        pin their applications in the handler map forever — under
        sustained churn that map is the host-side leak.  Packets still
        in flight for the flow land in ``received_unclaimed``."""
        self.flow_handlers.pop(flow_id, None)

    def send_packet(self, packet: Packet) -> bool:
        packet.created_at = self.sim.now if packet.created_at == 0.0 else packet.created_at
        return self.send_out(self.uplink_port, packet)

    def receive(self, packet: Packet, link: Link) -> None:
        if packet.dst != self.name:
            self.received_unclaimed += 1
            return
        if packet.protocol == "icmp":
            reply = Packet(
                src=self.name,
                dst=packet.src,
                size=packet.size,
                protocol="icmp-reply",
                tos=packet.tos,
                flow_id=packet.flow_id,
                seq=packet.seq,
                src_ip=self.ip,
                dst_ip=packet.src_ip,
                created_at=packet.created_at,  # echo the original timestamp
            )
            self.send_packet(reply)
            return
        self.rx_log.append((self.sim.now, packet.flow_id, packet.size))
        handler = self.flow_handlers.get(packet.flow_id)
        if handler is not None:
            handler(packet)
        elif packet.protocol != "icmp-reply":
            self.received_unclaimed += 1

    def received_bytes(self, flow_id: Optional[int] = None) -> int:
        return sum(
            b for _, f, b in self.rx_log if flow_id is None or f == flow_id
        )


@dataclass
class RouterStats:
    forwarded: int = 0
    polka_forwarded: int = 0
    encapsulated: int = 0
    decapsulated: int = 0
    dropped_no_route: int = 0
    dropped_ttl: int = 0
    dropped_queue_full: int = 0


class Router(Node):
    """A router with a FIB, an optional PolKA node identity and (for edge
    routers) a freeRtr-style classifier."""

    def __init__(self, sim: Simulator, name: str, edge: bool = False):
        super().__init__(sim, name)
        self.edge = edge
        self.fib: Dict[str, int] = {}  # dst host name -> output port
        self.polka_node: Optional[PolkaNode] = None
        # classifier(packet) -> (route_id, egress_router_name) or None
        self.classifier: Optional[
            Callable[[Packet], Optional[Tuple[int, str]]]
        ] = None
        self.stats = RouterStats()

    # ------------------------------------------------------------ forwarding

    def receive(self, packet: Packet, link: Link) -> None:
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.stats.dropped_ttl += 1
            return
        self._forward(packet)

    def inject(self, packet: Packet) -> None:
        """Locally originated traffic (used by tests and probes)."""
        self._forward(packet)

    def _forward(self, packet: Packet) -> None:
        # 1. tunnel egress: strip the PolKA header, deliver by table
        if packet.route_id is not None and packet.tunnel_egress == self.name:
            packet.decapsulated()
            self.stats.decapsulated += 1

        # 2. PolKA core: stateless residue forwarding
        if packet.route_id is not None:
            if self.polka_node is None:
                self.stats.dropped_no_route += 1
                return
            port = self.polka_node.forward(packet.route_id)
            self.stats.polka_forwarded += 1
            self._transmit(port, packet)
            return

        # 3. edge ingress: classify and encapsulate new flows
        if self.edge and self.classifier is not None:
            binding = self.classifier(packet)
            if binding is not None:
                route_id, egress = binding
                packet.route_id = route_id
                packet.tunnel_egress = egress
                self.stats.encapsulated += 1
                if self.polka_node is not None:
                    port = self.polka_node.forward(route_id)
                    self.stats.polka_forwarded += 1
                    self._transmit(port, packet)
                    return

        # 4. plain table-based forwarding
        port = self.fib.get(packet.dst)
        if port is None:
            self.stats.dropped_no_route += 1
            return
        self.stats.forwarded += 1
        self._transmit(port, packet)

    def _transmit(self, port: int, packet: Packet) -> None:
        send = self._send_on.get(port)
        if send is None:
            self.stats.dropped_no_route += 1
        elif not send(packet):
            self.stats.dropped_queue_full += 1
