"""CRT and PolkaDomain tests — including the paper's
Fig. 1 worked example, reproduced bit-for-bit."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.polka import (
    PolkaDomain,
    PolkaNode,
    assign_node_ids,
    crt,
    gf2,
    pairwise_coprime,
    verify_crt,
)


class TestCrt:
    def test_fig1_route_id_is_10000(self):
        """Paper Fig. 1: s1=t+1, s2=t^2+t+1, s3=t^3+t+1 with ports
        o1=1, o2=t, o3=t^2+t combine to routeID 10000 (binary)."""
        residues = [0b1, 0b10, 0b110]
        moduli = [0b11, 0b111, 0b1011]
        route_id, big = crt(residues, moduli)
        assert route_id == 0b10000
        assert big == gf2.mul(gf2.mul(0b11, 0b111), 0b1011)
        assert verify_crt(route_id, residues, moduli)

    def test_single_modulus(self):
        x, m = crt([0b10], [0b111])
        assert x == 0b10 and m == 0b111

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crt([1], [0b11, 0b111])

    def test_empty(self):
        with pytest.raises(ValueError):
            crt([], [])

    def test_residue_too_large(self):
        with pytest.raises(ValueError):
            crt([0b111], [0b11])

    def test_constant_modulus_rejected(self):
        with pytest.raises(ValueError):
            crt([0], [1])

    def test_non_coprime_moduli_rejected(self):
        with pytest.raises(ValueError):
            crt([0b1, 0b1], [0b111, 0b111])

    def test_pairwise_coprime_helper(self):
        assert pairwise_coprime([0b11, 0b111, 0b1011])
        assert not pairwise_coprime([0b111, 0b111])

    @given(st.integers(min_value=2, max_value=6), st.data())
    @settings(max_examples=60)
    def test_crt_solution_satisfies_all_congruences(self, n, data):
        moduli = gf2.first_irreducibles(n, min_degree=2)
        residues = [
            data.draw(st.integers(min_value=0, max_value=(1 << gf2.deg(m)) - 1))
            for m in moduli
        ]
        x, big = crt(residues, moduli)
        assert verify_crt(x, residues, moduli)
        assert gf2.deg(x) < gf2.deg(big)


LINE3 = {
    # Fig. 1 topology: edge -> s1 -> s2 -> s3 -> edge, plus unused ports so
    # the port numbers match the paper's polynomials.
    "s1": {"s2": 1, "edge_in": 0},
    "s2": {"s3": 2, "s1": 1, "x2": 0},
    "s3": {"edge_out": 6, "s2": 1, "x3": 0},
}
FIG1_IDS = {"s1": 0b11, "s2": 0b111, "s3": 0b1011}


class TestPolkaNode:
    def test_rejects_reducible_id(self):
        with pytest.raises(ValueError):
            PolkaNode(name="bad", node_id=0b110, ports={})

    def test_rejects_port_wider_than_id(self):
        with pytest.raises(ValueError):
            PolkaNode(name="s1", node_id=0b11, ports={"n": 2})

    def test_port_lookup(self):
        node = PolkaNode(name="s2", node_id=0b111, ports={"s3": 2})
        assert node.port_to("s3") == 2
        with pytest.raises(KeyError):
            node.port_to("nowhere")

    def test_forward_is_mod(self):
        node = PolkaNode(name="s2", node_id=0b111, ports={"s3": 2})
        assert node.forward(0b10000) == 2


class TestPolkaDomain:
    def test_fig1_route_compiles_to_10000(self):
        domain = PolkaDomain(LINE3, node_ids=FIG1_IDS)
        route = domain.route_for_path(["s1", "s2", "s3", "edge_out"])
        assert route.route_id == 0b10000
        assert route.moduli == (0b11, 0b111, 0b1011)

    def test_fig1_walk_reproduces_ports(self):
        domain = PolkaDomain(LINE3, node_ids=FIG1_IDS)
        route = domain.route_for_path(["s1", "s2", "s3", "edge_out"])
        assert domain.walk(route) == [("s1", 1), ("s2", 2), ("s3", 6)]

    def test_auto_node_ids_are_coprime_and_wide_enough(self):
        domain = PolkaDomain(LINE3)
        ids = [n.node_id for n in domain.nodes.values()]
        assert pairwise_coprime(ids)
        for node in domain.nodes.values():
            if node.ports:
                assert (1 << gf2.deg(node.node_id)) > max(node.ports.values())

    def test_short_path_rejected(self):
        domain = PolkaDomain(LINE3, node_ids=FIG1_IDS)
        with pytest.raises(ValueError):
            domain.route_for_path(["s1"])

    def test_unknown_hop_rejected(self):
        domain = PolkaDomain(LINE3, node_ids=FIG1_IDS)
        with pytest.raises(KeyError):
            domain.route_for_path(["s1", "ghost"])

    def test_non_coprime_ids_rejected(self):
        with pytest.raises(ValueError):
            PolkaDomain(LINE3, node_ids={"s1": 0b111, "s2": 0b111, "s3": 0b1011})

    def test_header_bits(self):
        domain = PolkaDomain(LINE3, node_ids=FIG1_IDS)
        route = domain.route_for_path(["s1", "s2", "s3", "edge_out"])
        assert route.header_bits == 5  # 0b10000

    def test_route_len(self):
        domain = PolkaDomain(LINE3, node_ids=FIG1_IDS)
        assert len(domain.route_for_path(["s1", "s2", "s3", "edge_out"])) == 4


class TestPortSwitchingBaseline:
    def test_pop_per_hop_and_rewrite_count(self):
        domain = PolkaDomain(LINE3, node_ids=FIG1_IDS)
        psr = domain.port_switching_route(["s1", "s2", "s3", "edge_out"])
        assert psr.ports == [1, 2, 6]
        assert [psr.forward() for _ in range(3)] == [1, 2, 6]
        assert psr.rewrites == 3  # one header rewrite per hop
        with pytest.raises(IndexError):
            psr.forward()

    def test_polka_header_never_rewritten(self):
        domain = PolkaDomain(LINE3, node_ids=FIG1_IDS)
        route = domain.route_for_path(["s1", "s2", "s3", "edge_out"])
        before = route.route_id
        domain.walk(route)
        assert route.route_id == before


def grid_adjacency(n=4):
    """n x n grid with deterministic port numbering."""
    g = nx.grid_2d_graph(n, n)
    g = nx.relabel_nodes(g, {node: f"n{node[0]}_{node[1]}" for node in g})
    adj = {}
    for node in g:
        adj[node] = {nbr: i for i, nbr in enumerate(sorted(g.neighbors(node)))}
    return g, adj


class TestRandomTopologies:
    @given(st.integers(min_value=0, max_value=999))
    @settings(max_examples=25, deadline=None)
    def test_any_simple_path_walks_correctly(self, seed):
        import numpy as np

        g, adj = grid_adjacency(4)
        domain = PolkaDomain(adj)
        rng = np.random.default_rng(seed)
        nodes = sorted(g)
        src, dst = rng.choice(nodes, size=2, replace=False)
        path = nx.shortest_path(g, src, dst)
        if len(path) < 2:
            return
        route = domain.route_for_path(path)
        decisions = domain.walk(route)  # raises on divergence
        assert len(decisions) == len(path) - 1


class TestAssignNodeIds:
    def test_degree_respects_max_port(self):
        ids = assign_node_ids(["a", "b", "c"], max_port=6)
        for p in ids.values():
            assert (1 << gf2.deg(p)) > 6

    def test_negative_max_port(self):
        with pytest.raises(ValueError):
            assign_node_ids(["a"], max_port=-1)

    def test_distinct(self):
        ids = assign_node_ids([f"n{i}" for i in range(25)], max_port=3)
        assert len(set(ids.values())) == 25
