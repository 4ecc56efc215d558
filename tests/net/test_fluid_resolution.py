"""Path resolution, the bincount incidence and the input checks of the
fluid solver.

- ``_canonicalize`` resolves each distinct link once per call into a
  ``{key: traversals x count}`` map per claimant; the property test
  replays the one-lookup-per-traversal reference on repeated, reversed,
  counted and undirected-map paths and compares results and raised
  errors exactly.
- ``_fill_vector`` tallies its incidence with one ``np.bincount``
  weighted by those multiplicities; its rates must equal the scalar
  fill's, bit for bit, on inputs on both sides of ``_VECTOR_MIN_FLOWS``.
- A claimant rejects a negative or NaN bound, ``max_min_fair`` any bound,
  and the fills a NaN capacity, instead of inventing capacity or
  returning NaN.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fluid import (
    _VECTOR_MIN_FLOWS,
    FluidFlow,
    _canonicalize,
    _fill_scalar,
    _fill_vector,
    max_min_fair,
    max_min_fair_bounded,
)

NODES = ("a", "b", "c", "d", "e")

#: the two fills, called directly
FILLS = {
    "scalar": lambda flows, caps: _fill_scalar(*_canonicalize(flows, caps)),
    "vector": _fill_vector,
}


def reference_canonicalize(flows, capacities):
    """One lookup per traversal, tallied per key and scaled by the
    claimant's count: the resolution the memo must reproduce."""
    flow_links, caps = {}, {}
    for flow in flows:
        canon = []
        for link in flow.links:
            if link in capacities:
                key = link
            else:
                rev = (link[1], link[0])
                if rev not in capacities:
                    raise KeyError(f"no capacity declared for link {link}")
                key = rev
            canon.append(key)
            caps.setdefault(key, float(capacities[key]))
        if flow.name in flow_links:
            raise ValueError(f"duplicate flow name {flow.name!r}")
        flow_links[flow.name] = {
            key: n * flow.count for key, n in Counter(canon).items()
        }
    return flow_links, caps


def outcome(fn, *args):
    try:
        flow_links, caps = fn(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    return list(flow_links.items()), list(caps.items())


hops = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
    lambda hop: hop[0] != hop[1]
)


@st.composite
def resolution_cases(draw):
    """Flows over a five-node alphabet: some share one path, some cross
    it reversed or repeated, counts vary, names may collide, and the
    capacity map is directed, undirected (one direction per link) or
    missing links."""
    paths = draw(st.lists(st.lists(hops, min_size=1, max_size=4), min_size=1,
                          max_size=4))
    flows = []
    for i in range(draw(st.integers(1, 12))):
        path = tuple(paths[draw(st.integers(0, len(paths) - 1))])
        if draw(st.booleans()):
            path = tuple((b, a) for a, b in reversed(path))
        path *= draw(st.integers(1, 3))
        name = f"f{draw(st.integers(0, 14)) if draw(st.booleans()) else i}"
        flows.append(FluidFlow(name, path, count=draw(st.integers(1, 3))))
    links = sorted({hop for flow in flows for hop in flow.links})
    capacities = {}
    for a, b in links:
        mode = draw(st.sampled_from(("directed", "undirected", "missing")))
        if mode == "directed":
            capacities[(a, b)] = float(draw(st.integers(1, 100)))
        elif mode == "undirected":
            capacities[tuple(sorted((a, b)))] = float(draw(st.integers(1, 100)))
    return flows, capacities


class TestCanonicalizeMemo:
    @settings(max_examples=300, deadline=None)
    @given(case=resolution_cases())
    def test_matches_the_per_traversal_reference(self, case):
        """Same key lists, same capacity order, and the same first
        ``KeyError`` or duplicate-name ``ValueError`` text."""
        flows, capacities = case
        assert outcome(_canonicalize, flows, capacities) == outcome(
            reference_canonicalize, flows, capacities
        )

    def test_missing_link_names_the_first_one_met(self):
        flows = [
            FluidFlow("f0", (("a", "b"), ("b", "c"))),
            FluidFlow("f1", (("a", "b"), ("c", "d"), ("d", "e"))),
        ]
        with pytest.raises(KeyError, match=r"\('c', 'd'\)"):
            _canonicalize(flows, {("a", "b"): 1.0, ("c", "b"): 1.0})

    def test_duplicate_name_on_a_resolved_path_still_raises(self):
        flows = [FluidFlow("f", (("a", "b"),))] * 2
        with pytest.raises(ValueError, match="duplicate flow name 'f'"):
            _canonicalize(flows, {("a", "b"): 1.0})


@st.composite
def straddling_cases(draw):
    """Between ``_VECTOR_MIN_FLOWS - 8`` and ``+ 8`` claimants on a few
    shared paths, some crossing a link more than once, some counted."""
    n_links = draw(st.integers(2, 10))
    links = [(f"u{i}", f"v{i}") for i in range(n_links)]
    caps = {
        link: draw(st.floats(0.5, 1e4, allow_nan=False)) for link in links
    }
    index = st.integers(0, n_links - 1)
    paths = draw(
        st.lists(st.lists(index, min_size=1, max_size=5), min_size=1,
                 max_size=6)
    )
    n_flows = draw(
        st.integers(_VECTOR_MIN_FLOWS - 8, _VECTOR_MIN_FLOWS + 8)
    )
    flows = [
        FluidFlow(
            f"f{i}",
            tuple(links[k] for k in paths[draw(st.integers(0, len(paths) - 1))])
            * draw(st.integers(1, 3)),
            count=draw(st.integers(1, 3)),
        )
        for i in range(n_flows)
    ]
    return flows, caps


class TestBincountIncidence:
    @settings(max_examples=120, deadline=None)
    @given(case=straddling_cases())
    def test_vector_rates_equal_scalar_rates(self, case):
        flows, caps = case
        scalar = FILLS["scalar"](flows, caps)
        vector = FILLS["vector"](flows, caps)
        auto = max_min_fair(flows, caps)
        assert list(vector.items()) == list(scalar.items())
        assert list(auto.items()) == list(scalar.items())


class TestRejectsInventedCapacity:
    PATHS = {"a": ("x", "y", "z"), "b": ("x", "y")}
    CAPS = {("x", "y"): 10.0, ("y", "z"): 5.0}

    def claimants(self, bounds):
        return [
            FluidFlow.from_path(name, path, bound=bounds.get(name))
            for name, path in self.PATHS.items()
        ]

    @pytest.mark.parametrize("bound", [-2.0, -1e-9, math.nan])
    def test_bad_bound_names_the_flow(self, bound):
        """A negative bound would hand capacity back (``b`` got 12 Mbps on
        a 10 Mbps link); a NaN bound was silently ignored."""
        with pytest.raises(ValueError, match="flow 'a'"):
            self.claimants({"a": bound})

    def test_zero_and_infinite_bounds_still_allowed(self):
        rates = max_min_fair_bounded(
            self.claimants({"a": 0.0, "b": math.inf}), self.CAPS
        )
        assert rates == {"a": 0.0, "b": 10.0}

    def test_max_min_fair_rejects_a_bounded_claimant(self):
        """A bound means the pin-and-reshare loop; the plain solve
        would silently ignore it."""
        with pytest.raises(ValueError, match="flow 'a' carries a rate bound"):
            max_min_fair(self.claimants({"a": 1.0}), self.CAPS)

    def test_nan_capacity_names_the_link(self):
        caps = {("x", "y"): 10.0, ("y", "z"): math.nan}
        with pytest.raises(ValueError, match=r"\('y', 'z'\)"):
            max_min_fair_bounded(self.claimants({}), caps)
        flows = [FluidFlow.from_path("a", ("x", "y", "z"))]
        for fill in FILLS.values():
            with pytest.raises(ValueError, match="NaN"):
                fill(flows, caps)

    def test_nan_capacity_nobody_crosses_is_ignored(self):
        caps = {**self.CAPS, ("q", "r"): math.nan}
        assert max_min_fair_bounded(self.claimants({}), caps) == {
            "a": 5.0, "b": 5.0
        }

    @pytest.mark.parametrize("method", ["scalar", "vector"])
    def test_negative_capacity_still_means_no_headroom(self, method):
        """The controller's effective capacities can dip below zero; that
        keeps meaning a zero share, not an error."""
        rates = FILLS[method](
            self.claimants({}), {("x", "y"): 10.0, ("y", "z"): -3.0}
        )
        assert rates == {"a": 0.0, "b": 10.0}
