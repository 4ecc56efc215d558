"""Deeper property-based tests of the PolKA substrate."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.polka import PolkaDomain, gf2, pairwise_coprime
from repro.polka import routing


class TestFieldProperties:
    """GF(2)[t]/(p) is a field when p is irreducible — verify the axioms
    our forwarding correctness silently depends on."""

    @given(st.sampled_from([0b111, 0b1011, 0b10011, 0b100101]))
    def test_every_nonzero_residue_invertible(self, modulus):
        size = 1 << gf2.deg(modulus)
        for a in range(1, size):
            inv = gf2.modinv(a, modulus)
            assert gf2.mulmod(a, inv, modulus) == 1

    @given(
        st.sampled_from([0b111, 0b1011, 0b10011]),
        st.integers(min_value=1, max_value=31),
    )
    def test_fermat_little_theorem(self, modulus, a):
        """a^(2^n - 1) = 1 for nonzero a in GF(2^n)."""
        n = gf2.deg(modulus)
        a = gf2.mod(a, modulus)
        if a == 0:
            return
        assert gf2.powmod(a, (1 << n) - 1, modulus) == 1

    @given(st.integers(min_value=2, max_value=8))
    def test_distinct_irreducibles_always_coprime(self, degree):
        polys = gf2.first_irreducibles(6, min_degree=degree)
        assert pairwise_coprime(polys)


def random_connected_graph(seed: int, n: int = 10):
    rng = np.random.default_rng(seed)
    g = nx.Graph()
    names = [f"r{i}" for i in range(n)]
    g.add_nodes_from(names)
    order = rng.permutation(n)
    for i in range(1, n):
        g.add_edge(names[order[i]], names[order[int(rng.integers(0, i))]])
    for _ in range(n // 2):
        a, b = rng.choice(names, size=2, replace=False)
        g.add_edge(a, b)
    adjacency = {
        node: {nbr: i for i, nbr in enumerate(sorted(g.neighbors(node)))}
        for node in g
    }
    return g, adjacency


class TestRoutingProperties:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_compile_then_walk_is_identity(self, seed):
        """For any simple path on any topology, the compiled routeID
        walks back exactly the intended hops."""
        g, adjacency = random_connected_graph(seed)
        domain = PolkaDomain(adjacency)
        rng = np.random.default_rng(seed)
        nodes = sorted(g)
        src, dst = rng.choice(nodes, size=2, replace=False)
        paths = list(nx.all_simple_paths(g, src, dst, cutoff=6))
        if not paths:
            return
        path = paths[int(rng.integers(0, len(paths)))]
        route = domain.route_for_path(path)
        decisions = domain.walk(route)  # raises on divergence
        assert [n for n, _ in decisions] == list(path[:-1])

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_distinct_paths_get_distinct_route_ids(self, seed):
        g, adjacency = random_connected_graph(seed)
        domain = PolkaDomain(adjacency)
        nodes = sorted(g)
        src, dst = nodes[0], nodes[-1]
        paths = list(nx.all_simple_paths(g, src, dst, cutoff=5))
        if len(paths) < 2:
            return
        ids = {domain.route_for_path(p).route_id for p in paths[:8]}
        # routeIDs over distinct node sets collide only if both reduce to
        # identical residues at every shared node; with distinct next hops
        # at the source this cannot happen
        distinct_first_hops = {p[1] for p in paths[:8]}
        if len(distinct_first_hops) > 1:
            assert len(ids) > 1


class TestHeaderScaling:
    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_route_id_bounded_by_modulus_product(self, length):
        adjacency = {}
        names = [f"n{i}" for i in range(length + 1)]
        for i, name in enumerate(names):
            ports = {}
            if i > 0:
                ports[names[i - 1]] = 0
            if i < length:
                ports[names[i + 1]] = 1
            adjacency[name] = ports
        domain = PolkaDomain(adjacency)
        route = domain.route_for_path(names)
        bound = sum(gf2.deg(m) for m in route.moduli)
        assert route.header_bits <= bound + 1


class TestResidueMemo:
    """``PolkaNode.forward`` answers from a bounded memo of ``gf2.mod``;
    the memo must be invisible."""

    NODE_IDS = tuple(gf2.first_irreducibles(4, min_degree=5))

    @given(
        st.integers(min_value=0, max_value=(1 << 400) - 1),
        st.sampled_from(NODE_IDS),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_forward_is_the_polynomial_remainder(self, route_id, node_id):
        node = routing.PolkaNode("n", node_id)
        assert node.forward(route_id) == gf2.mod(route_id, node_id)
        assert node.forward(route_id) == gf2.mod(route_id, node_id)  # a hit

    def test_right_and_bounded_past_the_memo_size(self):
        size = routing._residue.cache_parameters()["maxsize"]
        rng = np.random.default_rng(0)
        nodes = [
            routing.PolkaNode(f"n{i}", p)
            for i, p in enumerate(self.NODE_IDS)
        ]
        route_ids = [
            int.from_bytes(rng.bytes(int(rng.integers(1, 51))), "big")
            for _ in range(size // len(nodes) + 300)
        ]
        for _ in range(2):  # second pass: evicted pairs are recomputed
            for route_id in route_ids:
                for node in nodes:
                    assert node.forward(route_id) == gf2.mod(
                        route_id, node.node_id
                    )
        assert len(route_ids) * len(nodes) > size
        assert routing._residue.cache_info().currsize == size
