"""Vectorized max-min solver vs the scalar oracle, directed capacities,
the relative-epsilon saturation fix, and the counted claimant
``assign_flows`` solves in place of a tunnel's flows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fluid import (
    _VECTOR_MIN_FLOWS,
    FluidFlow,
    _canonicalize,
    _fill_scalar,
    _fill_vector,
    link_capacities,
    max_min_fair,
    total_throughput,
)
from repro.net.topology import Network

#: the two fills, called directly; ``auto`` is the dispatching entry point
FILLS = {
    "scalar": lambda flows, caps: _fill_scalar(*_canonicalize(flows, caps)),
    "vector": _fill_vector,
    "auto": max_min_fair,
}


def random_case(seed, n_links=None, n_flows=None):
    """A random flow/link set (directed keys, arbitrary paths)."""
    rng = np.random.default_rng(seed)
    n_links = n_links or int(rng.integers(3, 40))
    n_flows = n_flows or int(rng.integers(1, 60))
    links = [(f"a{i}", f"b{i}") for i in range(n_links)]
    caps = {link: float(rng.uniform(0.5, 5000.0)) for link in links}
    flows = []
    for f in range(n_flows):
        k = int(rng.integers(1, min(6, n_links) + 1))
        chosen = rng.choice(n_links, size=k, replace=False)
        flows.append(
            FluidFlow(name=f"f{f}", links=tuple(links[i] for i in chosen))
        )
    return flows, caps


class TestVectorizedMatchesScalar:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_cross_check(self, seed):
        """Property: on randomized flow/link sets, the scalar fill, the
        vectorized fill and ``max_min_fair`` return the same floats, bit
        for bit — ``max_min_fair`` picks a fill from the claimant count,
        so a looser agreement would let the byte-identity pins move with
        an unrelated flow's presence."""
        flows, caps = random_case(seed)
        scalar = FILLS["scalar"](flows, caps)
        assert list(scalar.items()) == list(_fill_vector(flows, caps).items())
        assert list(scalar.items()) == list(max_min_fair(flows, caps).items())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_allocation_is_feasible(self, seed):
        """No link carries more than its capacity (tiny float slack)."""
        flows, caps = random_case(seed)
        rates = max_min_fair(flows, caps)
        load = {link: 0.0 for link in caps}
        for flow in flows:
            for link in flow.links:
                load[link] += rates[flow.name]
        for link, capacity in caps.items():
            assert load[link] <= capacity * (1.0 + 1e-6)

    def test_auto_dispatches_both_ways(self):
        flows, caps = random_case(3, n_links=10, n_flows=5)
        assert max_min_fair(flows, caps) == pytest.approx(
            _fill_vector(flows, caps)
        )
        flows, caps = random_case(4, n_links=20, n_flows=50)
        assert max_min_fair(flows, caps) == pytest.approx(
            FILLS["scalar"](flows, caps)
        )

    def test_a_weighted_claimant_takes_the_vector_fill(self):
        """The scalar fill has no weights: below the threshold, one
        weighted claimant sends the whole solve to the vector fill."""
        flows = [
            FluidFlow("w", (("a", "b"),), weight=3.0),
            FluidFlow.from_path("u", ("a", "b")),
        ]
        caps = {("a", "b"): 8.0}
        assert max_min_fair(flows, caps) == _fill_vector(flows, caps)
        assert max_min_fair(flows, caps) == {"w": 6.0, "u": 2.0}

    def test_empty_flow_set(self):
        assert max_min_fair([], {("a", "b"): 10.0}) == {}

    @pytest.mark.parametrize("fill", ["scalar", "vector"])
    def test_repeated_link_counts_per_traversal(self, fill):
        """A flow crossing one capacity entry twice (both directions of
        an undirected map) consumes it twice; the scalar solver once
        counted such a flow as a single user and over-allocated 15 Mbps
        onto a 10 Mbps link (vector and scalar also disagreed)."""
        caps = {("a", "b"): 10.0}
        flows = [
            FluidFlow(name="f0", links=(("a", "b"), ("b", "a"))),
            FluidFlow(name="f1", links=(("a", "b"),)),
        ]
        rates = FILLS[fill](flows, caps)
        assert rates["f0"] == pytest.approx(10.0 / 3)
        assert rates["f1"] == pytest.approx(10.0 / 3)

    @pytest.mark.parametrize("fill", ["scalar", "vector"])
    def test_rates_returned_in_input_order(self, fill):
        """Regression: rates must be inserted in input (flow) order, not
        set-iteration order — downstream float sums over rates.values()
        would otherwise vary with PYTHONHASHSEED, flipping exact ties in
        assign_flows between processes."""
        flows, caps = random_case(11)
        rates = FILLS[fill](flows, caps)
        assert list(rates) == [flow.name for flow in flows]


def grouped_case(seed):
    """1-5 tunnels over a few nodes, each carrying 1-40 identical member
    flows: ``(paths, counts, capacities, members)``.

    Paths are random walks, so many revisit a node (looped paths, and
    under undirected keys a path charging one entry both ways).  The
    seed picks directed, undirected or tie-heavy capacities; members
    come back shuffled, as ``assign_flows`` interleaves tunnels."""
    rng = np.random.default_rng(seed)
    nodes = [f"n{i}" for i in range(int(rng.integers(3, 8)))]
    paths = {}
    for t in range(int(rng.integers(1, 6))):
        path = [nodes[int(rng.integers(len(nodes)))]]
        for _ in range(int(rng.integers(1, 6))):
            hop = nodes[int(rng.integers(len(nodes) - 1))]
            path.append(hop if hop != path[-1] else nodes[-1])
        paths[f"T{t}"] = tuple(path)
    counts = {t: int(rng.integers(1, 41)) for t in paths}
    style = ("directed", "undirected", "ties")[seed % 3]
    caps = {}
    for path in paths.values():
        for link in zip(path[:-1], path[1:]):
            key = tuple(sorted(link)) if style == "undirected" else link
            if key not in caps:
                caps[key] = (
                    float(rng.choice((10.0, 40.0, 100.0)))
                    if style == "ties"
                    else float(rng.uniform(1.0, 1000.0))
                )
    members = [
        FluidFlow.from_path(f"{t}#{i}", path)
        for t, path in paths.items()
        for i in range(counts[t])
    ]
    members = [members[i] for i in rng.permutation(len(members))]
    return paths, counts, caps, members


def counted(paths, counts):
    """One claimant per tunnel, counting its members."""
    return [
        FluidFlow(t, FluidFlow.from_path(t, path).links, count=counts[t])
        for t, path in paths.items()
    ]


def repeated(paths, counts):
    """The reference shape: one flow crossing its tunnel's path once per
    member, which both fills charge exactly as the members."""
    return [
        FluidFlow(t, FluidFlow.from_path(t, path).links * counts[t])
        for t, path in paths.items()
    ]


class TestCountedClaimant:
    """``m`` flows on one path get exactly the rate of one claimant of
    ``count=m`` on it (and of one flow crossing that path ``m`` times):
    both fills charge a link once per traversal per member with integer
    usage sums, and a claimant gains each round's increment once, as
    every member does.  ``assign_flows`` relies on this to solve one
    claimant per used tunnel."""

    @pytest.mark.parametrize("fill", ["scalar", "vector", "auto"])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_members_get_the_claimant_rate(self, fill, seed):
        paths, counts, caps, members = grouped_case(seed)
        solve = FILLS[fill]
        per_member = solve(members, caps)
        by_count = solve(counted(paths, counts), caps)
        by_repeat = solve(repeated(paths, counts), caps)
        assert [rate.hex() for rate in by_count.values()] == [
            rate.hex() for rate in by_repeat.values()
        ]
        assert [rate.hex() for rate in per_member.values()] == [
            by_count[flow.name.split("#")[0]].hex() for flow in members
        ]

    def test_cases_cross_the_vector_threshold(self):
        """``auto`` solves the members and the claimants with different
        fills on some cases, so the property covers that pairing."""
        sizes = {len(grouped_case(seed)[3]) for seed in range(30)}
        assert min(sizes) < _VECTOR_MIN_FLOWS <= max(sizes)

    def test_weighted_claimant_is_not_the_same(self):
        """The weighted form (one claimant at ``weight=m``, its rate
        divided by ``m``) scales each increment by ``m`` and rounds
        differently; on this instance it is one ulp off, so it cannot
        stand in for the count."""
        paths, counts, caps, members = grouped_case(0)
        per_member = max_min_fair(members, caps)
        grouped = max_min_fair(counted(paths, counts), caps)
        weighted = max_min_fair(
            [
                FluidFlow(c.name, c.links, weight=c.count)
                for c in counted(paths, counts)
            ],
            caps,
        )
        member = per_member["T1#0"]
        assert counts["T1"] == 27
        assert grouped["T1"].hex() == member.hex()
        assert weighted["T1"] / 27 - member == math.ulp(member)


class TestDirectedCapacities:
    def build_line(self):
        net = Network()
        net.add_host("h1", ip="10.0.0.1")
        net.add_host("h2", ip="10.0.0.2")
        net.add_router("r1", edge=True)
        net.add_router("r2", edge=True)
        net.add_link("h1", "r1", rate_mbps=100.0)
        net.add_link("r1", "r2", rate_mbps=10.0)
        net.add_link("r2", "h2", rate_mbps=100.0)
        return net.build()

    def test_both_directions_emitted(self):
        caps = link_capacities(self.build_line())
        assert caps[("r1", "r2")] == 10.0
        assert caps[("r2", "r1")] == 10.0
        # one entry per direction per link
        assert len(caps) == 6

    def test_opposite_directions_do_not_compete(self):
        """Regression: full-duplex semantics.  Two flows crossing the
        same link in opposite directions each get the full rate; the old
        tuple(sorted(...)) collapse made them share one 10 Mbps entry
        (5 Mbps each)."""
        caps = link_capacities(self.build_line())
        rates = max_min_fair(
            [
                FluidFlow.from_path("east", ("r1", "r2")),
                FluidFlow.from_path("west", ("r2", "r1")),
            ],
            caps,
        )
        assert rates["east"] == pytest.approx(10.0)
        assert rates["west"] == pytest.approx(10.0)

    def test_same_direction_still_shares(self):
        caps = link_capacities(self.build_line())
        rates = max_min_fair(
            [
                FluidFlow.from_path("one", ("r1", "r2")),
                FluidFlow.from_path("two", ("r1", "r2")),
            ],
            caps,
        )
        assert rates["one"] == pytest.approx(5.0)
        assert rates["two"] == pytest.approx(5.0)

    def test_undirected_maps_still_share_one_entry(self):
        """Legacy behaviour preserved: an undirected capacity map (one
        entry per link) makes both directions draw on that one entry."""
        rates = max_min_fair(
            [
                FluidFlow.from_path("east", ("a", "b")),
                FluidFlow.from_path("west", ("b", "a")),
            ],
            {("a", "b"): 10.0},
        )
        assert rates["east"] == pytest.approx(5.0)
        assert rates["west"] == pytest.approx(5.0)


class TestRelativeEpsilonSaturation:
    @pytest.mark.parametrize("fill", ["scalar", "vector"])
    def test_large_capacity_grid_fully_allocates(self, fill):
        """Regression: with huge capacities the float residue of
        ``remaining -= inc * users`` exceeds any absolute epsilon (here
        link A retains 128.0 after its saturating round), so under the
        old ``<= 1e-12`` test A never registered as saturated, filling
        stopped early, and f1 froze at A's fair share (~3.67e17) instead
        of growing on to C's 6e17."""
        cap_a = 1.1000000000000001e18  # chosen so cap - 3*(cap/3) == 128.0
        caps = {("x", "a"): cap_a, ("x", "c"): 6e17}
        flows = [
            FluidFlow(name="f1", links=(("x", "c"),)),
            FluidFlow(name="f2", links=(("x", "a"),)),
            FluidFlow(name="f3", links=(("x", "a"),)),
            FluidFlow(name="f4", links=(("x", "a"),)),
        ]
        rates = FILLS[fill](flows, caps)
        assert rates["f1"] == pytest.approx(6e17, rel=1e-6)
        for name in ("f2", "f3", "f4"):
            assert rates[name] == pytest.approx(cap_a / 3, rel=1e-6)

    @pytest.mark.parametrize("fill", ["scalar", "vector"])
    def test_terminates_on_degenerate_capacities(self, fill):
        """Zero-ish and astronomically mixed capacities must terminate
        deterministically (the underflow break), never spin."""
        caps = {("x", "a"): 1e-15, ("x", "b"): 1e18}
        flows = [
            FluidFlow(name="tiny", links=(("x", "a"), ("x", "b"))),
            FluidFlow(name="big", links=(("x", "b"),)),
        ]
        rates = FILLS[fill](flows, caps)
        assert rates["tiny"] == pytest.approx(0.0, abs=1e-9)
        assert rates["big"] == pytest.approx(1e18, rel=1e-6)

    def test_total_throughput_helper(self):
        assert total_throughput({"a": 1.5, "b": 2.5}) == pytest.approx(4.0)
