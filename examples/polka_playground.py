#!/usr/bin/env python3
"""PolKA playground: the polynomial routing substrate by itself.

Walks through (1) the paper's Fig. 1 example bit-for-bit and (2) routing
on a larger topology with automatic node-ID assignment.

Run:  python examples/polka_playground.py
"""

import networkx as nx

from repro.polka import PolkaDomain, gf2
from repro.topologies import fig1_line


def fig1_example() -> None:
    print("=" * 70)
    print("1. Paper Fig. 1 — the worked example")
    adjacency, node_ids = fig1_line()
    domain = PolkaDomain(adjacency, node_ids=node_ids)
    route = domain.route_for_path(["s1", "s2", "s3", "edge_out"])
    for name, node_id in node_ids.items():
        print(f"   {name}: nodeID = {gf2.poly_to_str(node_id)}")
    print(f"   routeID = 0b{route.route_id:b} (paper: 10000)")
    for node, port in domain.walk(route):
        print(f"   at {node}: routeID mod nodeID -> port {port}")


def grid_routing() -> None:
    print("=" * 70)
    print("2. Automatic node IDs on a 4x4 grid")
    g = nx.grid_2d_graph(4, 4)
    g = nx.relabel_nodes(g, {n: f"n{n[0]}{n[1]}" for n in g})
    adjacency = {
        n: {nbr: i for i, nbr in enumerate(sorted(g.neighbors(n)))} for n in g
    }
    domain = PolkaDomain(adjacency)
    path = nx.shortest_path(g, "n00", "n33")
    route = domain.route_for_path(path)
    print(f"   path {' -> '.join(path)}")
    print(f"   routeID = 0b{route.route_id:b} ({route.header_bits} bits, "
          f"header never rewritten)")
    print(f"   hops verified: {len(domain.walk(route))}")


if __name__ == "__main__":
    fig1_example()
    grid_routing()
