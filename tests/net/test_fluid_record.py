"""The claimant record and the pin-and-reshare loop built on it.

- :class:`FluidFlow` rejects a count, weight or bound the fills would
  misread, naming the claimant, and builds its hops from a node path.
- ``_fill`` takes the scalar fill below ``_VECTOR_MIN_FLOWS`` claimants
  of weight exactly 1.0 and the vector fill otherwise; both
  ``max_min_fair`` and ``max_min_fair_bounded`` go through it.
- A ``weight`` scales a claimant's share of every increment, so a class
  of weight ``w`` claims what ``w`` members would, to rounding.
- ``max_min_fair_bounded`` equals ``max_min_fair`` bit for bit when no
  bound binds, never exceeds a capacity or a bound, solves at most once
  per bounded claimant plus once, and charges a pinned claimant's rate
  once per traversal per member.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.fluid as fluid
from repro.net.fluid import (
    _VECTOR_MIN_FLOWS,
    FluidFlow,
    max_min_fair,
    max_min_fair_bounded,
)


def bounded_case(seed, n_flows=None):
    """A random claimant set on directed links, each claimant unbounded,
    bounded at zero, at infinity or somewhere near a fair share."""
    rng = np.random.default_rng(seed)
    n_links = int(rng.integers(2, 12))
    n_flows = n_flows or int(rng.integers(1, 40))
    links = [(f"a{i}", f"b{i}") for i in range(n_links)]
    caps = {link: float(rng.uniform(1.0, 500.0)) for link in links}
    flows = []
    for f in range(n_flows):
        k = int(rng.integers(1, min(4, n_links) + 1))
        chosen = rng.choice(n_links, size=k, replace=False)
        kind = int(rng.integers(0, 6))
        bound = (None, 0.0, math.inf, None)[kind] if kind < 4 else float(
            rng.uniform(0.0, 60.0)
        )
        flows.append(
            FluidFlow(f"f{f}", tuple(links[i] for i in chosen), bound=bound)
        )
    return flows, caps


def unbounded(flows):
    return [dataclasses.replace(flow, bound=None) for flow in flows]


class TestRecordChecks:
    @pytest.mark.parametrize("count", [0, -2, 1.5, 2.0])
    def test_bad_count_names_the_flow(self, count):
        """A zero count would gain every increment while charging no
        link; a float one is not integer usage."""
        with pytest.raises(ValueError, match=rf"flow 'a' .* got {count!r}"):
            FluidFlow("a", (("x", "y"),), count=count)

    @pytest.mark.parametrize("weight", [-1.0, -1e-12, math.nan, math.inf])
    def test_bad_weight_names_the_flow(self, weight):
        """The vector fill read a negative weight as zero, a NaN one as
        a zero rate for every claimant, and an infinite one as NaN."""
        with pytest.raises(ValueError, match=rf"flow 'a' .* and {weight!r}"):
            FluidFlow("a", (("x", "y"),), weight=weight)

    def test_defaults_are_one_unbounded_member(self):
        flow = FluidFlow("a", (("x", "y"),))
        assert (flow.count, flow.weight, flow.bound) == (1, 1.0, None)

    def test_zero_weight_is_a_class_with_no_member_active(self):
        rates = max_min_fair(
            [
                FluidFlow("idle", (("x", "y"),), weight=0.0),
                FluidFlow("busy", (("x", "y"),)),
            ],
            {("x", "y"): 8.0},
        )
        assert rates == {"idle": 0.0, "busy": 8.0}

    def test_from_path_builds_directed_hops(self):
        flow = FluidFlow.from_path("a", ["x", "y", "z"], bound=2.5)
        assert flow.links == (("x", "y"), ("y", "z"))
        assert flow.bound == 2.5

    @pytest.mark.parametrize("path", [(), ("x",)])
    def test_from_path_rejects_a_short_path(self, path):
        with pytest.raises(ValueError, match="at least two nodes"):
            FluidFlow.from_path("a", path)

    def test_record_is_frozen(self):
        """Epoch loops build each flow's record once and hand the same
        object to every solve, so it must not be editable."""
        flow = FluidFlow("a", (("x", "y"),))
        with pytest.raises(dataclasses.FrozenInstanceError):
            flow.count = 2


def uniform(n, **fields):
    return [FluidFlow(f"f{i}", (("x", "y"),), **fields) for i in range(n)]


class TestFillDispatch:
    @pytest.fixture
    def ran(self, monkeypatch):
        calls = []
        scalar, vector = fluid._fill_scalar, fluid._fill_vector

        def spy_scalar(*args):
            calls.append("scalar")
            return scalar(*args)

        def spy_vector(*args):
            calls.append("vector")
            return vector(*args)

        monkeypatch.setattr(fluid, "_fill_scalar", spy_scalar)
        monkeypatch.setattr(fluid, "_fill_vector", spy_vector)
        return calls

    @pytest.mark.parametrize(
        "flows, fill",
        [
            (uniform(_VECTOR_MIN_FLOWS - 1), "scalar"),
            (uniform(_VECTOR_MIN_FLOWS), "vector"),
            (uniform(3, count=5), "scalar"),
            (uniform(2) + [FluidFlow("w", (("x", "y"),), weight=2.0)],
             "vector"),
            ([], "scalar"),
        ],
        ids=["below", "at-threshold", "counted", "weighted", "empty"],
    )
    def test_fill_chosen_by_claimant_count_and_weight(self, ran, flows, fill):
        max_min_fair(flows, {("x", "y"): 100.0})
        max_min_fair_bounded(flows, {("x", "y"): 100.0})
        # no claimant leaves the bounded loop nothing to solve
        assert ran == [fill, fill][: 1 + bool(flows)]


class TestWeightedShare:
    @pytest.mark.parametrize(
        "weights, shares",
        [((1.0, 3.0), (2.0, 6.0)), ((2.0, 2.0), (4.0, 4.0)),
         ((0.5, 1.5), (2.0, 6.0))],
    )
    def test_weight_scales_the_share(self, weights, shares):
        flows = [
            FluidFlow(f"c{i}", (("x", "y"),), weight=w)
            for i, w in enumerate(weights)
        ]
        rates = max_min_fair(flows, {("x", "y"): 8.0})
        assert tuple(rates.values()) == pytest.approx(shares)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_weighted_class_claims_what_its_members_would(self, seed):
        """One claimant of integer weight ``w`` on a path gets the sum of
        what ``w`` members on that path get, to rounding (a weight
        scales the increment, so it is not bit-identical)."""
        flows, caps = bounded_case(seed)
        flows = unbounded(flows)
        rng = np.random.default_rng(seed)
        weights = [int(w) for w in rng.integers(1, 5, size=len(flows))]
        classes = [
            dataclasses.replace(flow, weight=float(w))
            for flow, w in zip(flows, weights)
        ]
        members = [
            FluidFlow(f"{flow.name}#{i}", flow.links)
            for flow, w in zip(flows, weights)
            for i in range(w)
        ]
        by_class = max_min_fair(classes, caps)
        by_member = max_min_fair(members, caps)
        for flow, w in zip(flows, weights):
            summed = sum(by_member[f"{flow.name}#{i}"] for i in range(w))
            assert by_class[flow.name] == pytest.approx(
                summed, rel=1e-6, abs=1e-6
            )


class TestBoundedSolve:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_without_bounds_it_is_max_min_fair(self, seed):
        flows, caps = bounded_case(seed)
        flows = unbounded(flows)
        assert list(max_min_fair_bounded(flows, caps).items()) == list(
            max_min_fair(flows, caps).items()
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_infinite_bounds_never_bind(self, seed):
        flows, caps = bounded_case(seed)
        infinite = [dataclasses.replace(f, bound=math.inf) for f in flows]
        assert list(max_min_fair_bounded(infinite, caps).items()) == list(
            max_min_fair(unbounded(flows), caps).items()
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_allocation_is_feasible_and_within_bounds(self, seed):
        flows, caps = bounded_case(seed)
        rates = max_min_fair_bounded(flows, caps)
        assert set(rates) == {flow.name for flow in flows}
        load = dict.fromkeys(caps, 0.0)
        for flow in flows:
            rate = rates[flow.name]
            assert rate >= 0.0
            if flow.bound is not None:
                assert rate <= flow.bound
            for link in flow.links:
                load[link] += rate
        for link, capacity in caps.items():
            assert load[link] <= capacity * (1.0 + 1e-6)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_one_solve_per_bounded_claimant_at_most(self, seed):
        flows, caps = bounded_case(seed)
        fill = fluid._fill
        calls = []

        def spy(*args):
            calls.append(len(args[0]))
            return fill(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fluid, "_fill", spy)
            max_min_fair_bounded(flows, caps)
        bounded = sum(flow.bound is not None for flow in flows)
        assert 1 <= len(calls) <= bounded + 1
        # each round solves only the claimants still pending
        assert calls == sorted(calls, reverse=True)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_counted_bounded_claimant_matches_its_members(self, seed):
        """A pinned claimant of ``count=m`` charges ``rate * m`` per
        traversal, where ``m`` pinned members charge ``rate`` ``m``
        times: the same allocation, to rounding."""
        flows, caps = bounded_case(seed, n_flows=8)
        rng = np.random.default_rng(seed)
        counts = [int(m) for m in rng.integers(1, 5, size=len(flows))]
        counted = [
            dataclasses.replace(flow, count=m)
            for flow, m in zip(flows, counts)
        ]
        members = [
            dataclasses.replace(flow, name=f"{flow.name}#{i}")
            for flow, m in zip(flows, counts)
            for i in range(m)
        ]
        by_count = max_min_fair_bounded(counted, caps)
        by_member = max_min_fair_bounded(members, caps)
        for flow in members:
            assert by_member[flow.name] == pytest.approx(
                by_count[flow.name.split("#")[0]], rel=1e-6, abs=1e-6
            )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bounded_class_matches_its_bounded_members(self, seed):
        """A class of weight ``w`` under its members' summed bound pins
        exactly when they do, and claims their summed rate."""
        flows, caps = bounded_case(seed, n_flows=8)
        rng = np.random.default_rng(seed)
        weights = [int(w) for w in rng.integers(1, 5, size=len(flows))]
        classes = [
            dataclasses.replace(
                flow,
                weight=float(w),
                bound=None if flow.bound is None else flow.bound * w,
            )
            for flow, w in zip(flows, weights)
        ]
        members = [
            dataclasses.replace(flow, name=f"{flow.name}#{i}")
            for flow, w in zip(flows, weights)
            for i in range(w)
        ]
        by_class = max_min_fair_bounded(classes, caps)
        by_member = max_min_fair_bounded(members, caps)
        for flow, w in zip(flows, weights):
            summed = sum(by_member[f"{flow.name}#{i}"] for i in range(w))
            assert by_class[flow.name] == pytest.approx(
                summed, rel=1e-6, abs=1e-6
            )

    def test_a_pin_frees_capacity_on_every_link_it_crosses(self):
        """Unbounded, ``a`` and ``c`` split y-z at 2 each and ``b`` gets
        8 of x-y; pinned at 1, ``a`` leaves 3 to ``c`` and 9 to ``b``."""
        flows = [
            FluidFlow.from_path("a", ("x", "y", "z"), bound=1.0),
            FluidFlow.from_path("b", ("x", "y")),
            FluidFlow.from_path("c", ("y", "z")),
        ]
        caps = {("x", "y"): 10.0, ("y", "z"): 4.0}
        assert max_min_fair(unbounded(flows), caps) == {
            "a": 2.0, "b": 8.0, "c": 2.0
        }
        assert max_min_fair_bounded(flows, caps) == pytest.approx(
            {"a": 1.0, "b": 9.0, "c": 3.0}
        )

    def test_pinned_members_charge_every_traversal(self):
        """Two members crossing one undirected entry both ways, pinned at
        1 each, charge it four times over: 6 is left for ``u``."""
        flows = [
            FluidFlow("m", (("a", "b"), ("b", "a")), count=2, bound=1.0),
            FluidFlow("u", (("a", "b"),)),
        ]
        rates = max_min_fair_bounded(flows, {("a", "b"): 10.0})
        assert rates == {"m": 1.0, "u": 6.0}

    def test_a_bound_at_the_fair_share_does_not_pin(self, monkeypatch):
        calls = []
        fill = fluid._fill
        monkeypatch.setattr(
            fluid, "_fill", lambda *a: calls.append(1) or fill(*a)
        )
        flows = [
            FluidFlow("a", (("x", "y"),), bound=5.0),
            FluidFlow("b", (("x", "y"),)),
        ]
        assert max_min_fair_bounded(flows, {("x", "y"): 10.0}) == {
            "a": 5.0, "b": 5.0
        }
        assert len(calls) == 1

    def test_pinned_claimants_come_first_in_name_order(self):
        """Rates are keyed pinned claimants first (by name), then the
        rest in input order, whatever the hash seed: callers sum over
        ``rates.values()``."""
        flows = [
            FluidFlow("z", (("x", "y"),)),
            FluidFlow("q", (("x", "y"),), bound=1.0),
            FluidFlow("b", (("x", "y"),), bound=2.0),
            FluidFlow("c", (("x", "y"),)),
        ]
        rates = max_min_fair_bounded(flows, {("x", "y"): 20.0})
        assert list(rates) == ["b", "q", "z", "c"]
        assert rates == {"b": 2.0, "q": 1.0, "z": 8.5, "c": 8.5}

    def test_capacities_are_left_untouched(self):
        caps = {("x", "y"): 10.0, ("y", "z"): 4.0}
        before = dict(caps)
        max_min_fair_bounded(
            [FluidFlow.from_path("a", ("x", "y", "z"), bound=1.0)], caps
        )
        assert caps == before

    def test_no_claimants_no_rates(self):
        assert max_min_fair_bounded([], {("x", "y"): 10.0}) == {}
