"""The concrete topologies of the paper.

Fig. 9's testbed is a subset of the Global P4 Lab: edge routers MIA
(Miami) and AMS (Amsterdam), core routers SAO (Sao Paulo), CHI (Chicago)
and CAL (California), host1 behind MIA and host2 behind AMS.  The three
tunnels of the experiments are

    Tunnel 1: MIA - SAO - AMS
    Tunnel 2: MIA - CHI - AMS
    Tunnel 3: MIA - CAL - CHI - AMS

Fig. 11 injects a 20 ms delay on MIA-SAO (the paper does it with ``tc``
on the host OS); Fig. 12 caps link rates at 20/10/5 Mbps as listed in
:func:`fig12_capacities`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.net.topology import Network

__all__ = [
    "fig1_line",
    "FIG1_NODE_IDS",
    "global_p4_lab",
    "fig12_capacities",
    "ROUTER_IPS",
    "TUNNEL1",
    "TUNNEL2",
    "TUNNEL3",
]

#: Node IDs used in the paper's Fig. 1 worked example.
FIG1_NODE_IDS = {"s1": 0b11, "s2": 0b111, "s3": 0b1011}

#: Loopback-style addresses for the Fig. 9 routers ("tunnel destination
#: 20.20.0.7" in the Fig. 10 config is AMS).
ROUTER_IPS = {
    "MIA": "20.20.0.1",
    "SAO": "20.20.0.3",
    "CHI": "20.20.0.5",
    "CAL": "20.20.0.6",
    "AMS": "20.20.0.7",
}

TUNNEL1 = ("MIA", "SAO", "AMS")
TUNNEL2 = ("MIA", "CHI", "AMS")
TUNNEL3 = ("MIA", "CAL", "CHI", "AMS")

#: Host addressing from the Fig. 10 access list: 40.40.1.0/24 behind MIA
#: reaches 40.40.2.2 behind AMS.
HOST1_IP = "40.40.1.2"
HOST2_IP = "40.40.2.2"


def fig1_line():
    """Adjacency + node IDs of the Fig. 1 example (PolKA layer only).

    Ports are numbered so the output-port polynomials match the paper:
    o1 = 1, o2 = t (port 2), o3 = t^2 + t (port 6).
    """
    adjacency = {
        "s1": {"s2": 1, "edge_in": 0},
        "s2": {"s3": 2, "s1": 1, "stub2": 0},
        "s3": {"edge_out": 6, "s2": 1, "stub3": 0},
    }
    return adjacency, dict(FIG1_NODE_IDS)


def fig12_capacities() -> Dict[Tuple[str, str], float]:
    """Link rate caps of the Fig. 12 experiment (Mbps)."""
    return {
        ("MIA", "SAO"): 20.0,
        ("SAO", "AMS"): 20.0,
        ("CHI", "AMS"): 20.0,
        ("MIA", "CHI"): 10.0,
        ("MIA", "CAL"): 5.0,
        ("CAL", "CHI"): 5.0,
    }


def global_p4_lab(
    rates: Optional[Mapping[Tuple[str, str], float]] = None,
    delays: Optional[Mapping[Tuple[str, str], float]] = None,
    queue_packets: int = 100,
    host_rate_mbps: float = 1000.0,
) -> Network:
    """Build the Fig. 9 testbed subset.

    Parameters
    ----------
    rates:
        Per-link Mbps overrides, e.g. :func:`fig12_capacities`; links not
        listed default to 100 Mbps.
    delays:
        Per-link one-way ms overrides (Fig. 11 uses
        ``{("MIA", "SAO"): 20.0}``); default 1 ms per core link.
    """
    rates = dict(rates or {})
    delays = dict(delays or {})

    def rate(a: str, b: str) -> float:
        return rates.get((a, b), rates.get((b, a), 100.0))

    def delay(a: str, b: str) -> float:
        return delays.get((a, b), delays.get((b, a), 1.0))

    net = Network()
    net.add_host("host1", ip=HOST1_IP)
    net.add_host("host2", ip=HOST2_IP)
    for router in ("MIA", "SAO", "CHI", "CAL", "AMS"):
        net.add_router(router, edge=(router in ("MIA", "AMS")))
    net.add_link("host1", "MIA", rate_mbps=host_rate_mbps, delay_ms=0.1)
    net.add_link("AMS", "host2", rate_mbps=host_rate_mbps, delay_ms=0.1)
    for a, b in [
        ("MIA", "SAO"), ("SAO", "AMS"), ("MIA", "CHI"),
        ("CHI", "AMS"), ("MIA", "CAL"), ("CAL", "CHI"),
    ]:
        net.add_link(
            a, b,
            rate_mbps=rate(a, b),
            delay_ms=delay(a, b),
            queue_packets=queue_packets,
        )
    return net.build()
