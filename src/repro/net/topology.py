"""Network assembly: topology graph -> wired devices + PolKA domain + FIBs.

:class:`Network` is the emulator's façade.  Declare hosts, routers and
links; :meth:`build` then

1. numbers every router port deterministically (sorted neighbour names),
2. assigns PolKA node IDs and builds the :class:`~repro.polka.routing.PolkaDomain`,
3. computes hop-count-shortest FIB entries towards every host,
4. instantiates the rate/delay/queue link objects on a shared simulator.

Impairment methods (:meth:`set_link_rate`, :meth:`set_link_delay`) mirror
the VirtualBox bandwidth caps and ``tc netem`` delay the paper injects
into its virtual testbed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import networkx as nx

from repro.polka.routing import PolkaDomain

from .devices import Host, Node, Router
from .links import Link
from .sim import Simulator

__all__ = ["Network"]


class Network:
    def __init__(self, sim: Optional[Simulator] = None):
        self.sim = sim or Simulator()
        self.graph = nx.Graph()
        self.hosts: Dict[str, Host] = {}
        self.routers: Dict[str, Router] = {}
        self.links: Dict[frozenset, Link] = {}
        self.polka: Optional[PolkaDomain] = None
        self._built = False

    # ------------------------------------------------------------- declare

    def add_host(self, name: str, ip: str = "") -> Host:
        self._ensure_not_built()
        if name in self.hosts or name in self.routers:
            raise ValueError(f"duplicate node name {name!r}")
        host = Host(self.sim, name, ip=ip)
        self.hosts[name] = host
        self.graph.add_node(name, kind="host")
        return host

    def add_router(self, name: str, edge: bool = False) -> Router:
        self._ensure_not_built()
        if name in self.hosts or name in self.routers:
            raise ValueError(f"duplicate node name {name!r}")
        router = Router(self.sim, name, edge=edge)
        self.routers[name] = router
        self.graph.add_node(name, kind="router")
        return router

    def add_link(
        self,
        a: str,
        b: str,
        rate_mbps: float = 1000.0,
        delay_ms: float = 0.1,
        queue_packets: int = 100,
    ) -> None:
        self._ensure_not_built()
        for end in (a, b):
            if end not in self.hosts and end not in self.routers:
                raise ValueError(f"unknown node {end!r}")
        if self.graph.has_edge(a, b):
            raise ValueError(f"duplicate link {a}<->{b}")
        self.graph.add_edge(
            a, b, rate_mbps=rate_mbps, delay_ms=delay_ms, queue_packets=queue_packets
        )

    def _ensure_not_built(self) -> None:
        if self._built:
            raise RuntimeError("network already built; declare before build()")

    # --------------------------------------------------------------- build

    def node(self, name: str) -> Node:
        if name in self.hosts:
            return self.hosts[name]
        if name in self.routers:
            return self.routers[name]
        raise KeyError(f"unknown node {name!r}")

    def build(self) -> "Network":
        if self._built:
            return self
        # 1. deterministic port numbering on routers (hosts use port 0..)
        adjacency: Dict[str, Dict[str, int]] = {}
        for rname in self.routers:
            neighbours = sorted(self.graph.neighbors(rname))
            adjacency[rname] = {nbr: i for i, nbr in enumerate(neighbours)}
        # 2. PolKA identities over the router fabric
        self.polka = PolkaDomain(adjacency)
        for rname, router in self.routers.items():
            router.polka_node = self.polka.node(rname)
        # 3. physical links
        for a, b, attrs in self.graph.edges(data=True):
            node_a, node_b = self.node(a), self.node(b)
            link = Link(
                self.sim,
                node_a,
                node_b,
                rate_mbps=attrs["rate_mbps"],
                delay_ms=attrs["delay_ms"],
                queue_packets=attrs["queue_packets"],
            )
            port_a = adjacency.get(a, {}).get(b, len(node_a.ports))
            port_b = adjacency.get(b, {}).get(a, len(node_b.ports))
            node_a.attach(port_a, link)
            node_b.attach(port_b, link)
            self.links[frozenset((a, b))] = link
        # 4. FIBs: hop-count shortest path towards every host
        self._rebuild_fibs()
        self._built = True
        return self

    def _rebuild_fibs(self) -> None:
        healthy: nx.Graph = self.graph
        if any(failed for _, _, failed in healthy.edges(data="failed")):
            # the filtered view keeps the graph's neighbour order, so
            # with nothing to filter both yield the same FIBs
            healthy = nx.subgraph_view(
                self.graph,
                filter_edge=lambda a, b: not self.graph[a][b].get(
                    "failed", False
                ),
            )
        for rname, router in self.routers.items():
            router.fib.clear()
            for hname in self.hosts:
                try:
                    path = nx.shortest_path(healthy, rname, hname)
                except nx.NetworkXNoPath:
                    continue
                if len(path) < 2:
                    continue
                router.fib[hname] = router.port_of[path[1]]

    # --------------------------------------------------------- impairments

    def link(self, a: str, b: str) -> Link:
        try:
            return self.links[frozenset((a, b))]
        except KeyError:
            raise KeyError(f"no link {a}<->{b}") from None

    def set_link_rate(self, a: str, b: str, rate_mbps: float) -> None:
        """VirtualBox-style bandwidth cap, changeable at runtime."""
        if rate_mbps <= 0:
            raise ValueError("rate_mbps must be positive")
        self.link(a, b).rate_mbps = float(rate_mbps)

    def set_link_delay(self, a: str, b: str, delay_ms: float) -> None:
        """tc-netem-style one-way delay, changeable at runtime."""
        if delay_ms < 0:
            raise ValueError("delay_ms must be non-negative")
        self.link(a, b).delay_ms = float(delay_ms)

    def fail_link(self, a: str, b: str) -> None:
        """Failure injection: the link black-holes traffic and FIBs
        reconverge around it (PolKA routeIDs are untouched — steering
        around a failure is the edge's job, e.g. via
        :class:`repro.polka.failover.FailoverTable`)."""
        link = self.link(a, b)
        link.up = False
        self.graph[a][b]["failed"] = True
        self._rebuild_fibs()

    def restore_link(self, a: str, b: str) -> None:
        link = self.link(a, b)
        link.up = True
        self.graph[a][b].pop("failed", None)
        self._rebuild_fibs()

    # ------------------------------------------------------------- queries

    def edge_router_of(self, host_name: str) -> str:
        """The router a host's single uplink attaches to.

        The one canonical implementation of this lookup — the Controller,
        traffic generators and scenario runner all resolve ingress/egress
        edges through it, so a future multi-homed-host model only needs
        changing here.
        """
        if host_name not in self.hosts:
            raise KeyError(f"unknown host {host_name!r}")
        for neighbour in self.graph.neighbors(host_name):
            if neighbour in self.routers:
                return neighbour
        raise ValueError(f"host {host_name!r} has no router uplink")

    def router_path(self, path: Iterable[str]) -> List[str]:
        """Validate that ``path`` crosses only known routers."""
        path = list(path)
        for hop in path:
            if hop not in self.routers:
                raise ValueError(f"{hop!r} is not a router")
        return path

    def path_capacity_mbps(self, path: List[str]) -> float:
        """Min link rate along a node path (static bottleneck capacity)."""
        return min(
            self.link(a, b).rate_mbps for a, b in zip(path[:-1], path[1:])
        )

    def path_delay_ms(self, path: List[str]) -> float:
        """Sum of one-way propagation delays along a node path."""
        return sum(
            self.link(a, b).delay_ms for a, b in zip(path[:-1], path[1:])
        )

    def run(self, until: float) -> None:
        if not self._built:
            raise RuntimeError("call build() before run()")
        self.sim.run(until=until)
