"""Packet model.

One mutable dataclass serves every protocol in the emulator; the PolKA
encapsulation is the ``route_id`` field (set by the ingress edge router,
cleared by the egress edge), mirroring how freeRtr pushes the polynomial
routeID header onto tunnelled traffic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Packet", "DATA_MTU", "ACK_SIZE", "ICMP_SIZE"]

DATA_MTU = 1500  # bytes, standard Ethernet MTU used by the emulated iperf
ACK_SIZE = 40  # bytes, TCP ACK
ICMP_SIZE = 64  # bytes, default ping payload

_packet_ids = itertools.count()


@dataclass
class Packet:
    """A packet in flight.

    Attributes
    ----------
    src, dst:
        Host names (stable identifiers; IPs live on the hosts).
    src_ip, dst_ip:
        Dotted-quad strings used by freeRtr-style access lists.
    protocol:
        ``"tcp"``, ``"udp"``, ``"icmp"`` or ``"icmp-reply"``.
    tos:
        Type-of-Service byte; the paper's Fig. 12 distinguishes its three
        flows by ToS, and PBR matches on it.
    flow_id:
        Application flow identifier (ties packets to their sender app).
    seq / ack:
        Sequence number of data packets; ``ack`` marks ACK segments and
        carries the acknowledged sequence number.
    route_id:
        PolKA polynomial routeID when tunnelled, else None.
    tunnel_egress:
        Name of the edge router that must decapsulate (the tunnel
        destination configured in freeRtr's ``tunnel destination``).
    ttl:
        Hop budget; routers drop at zero to contain forwarding loops.
    """

    src: str
    dst: str
    size: int
    protocol: str = "udp"
    tos: int = 0
    flow_id: int = 0
    seq: int = 0
    ack: Optional[int] = None
    src_ip: str = ""
    dst_ip: str = ""
    route_id: Optional[int] = None
    tunnel_egress: Optional[str] = None
    created_at: float = 0.0
    ttl: int = 64
    uid: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")

    def decapsulated(self) -> "Packet":
        """Strip the PolKA header (egress edge behaviour)."""
        self.route_id = None
        self.tunnel_egress = None
        return self
