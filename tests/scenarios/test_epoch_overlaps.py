"""``solve_epochs`` computes each epoch's span overlaps as two array ops;
they must equal the scalar ``min(end, t1) - max(start, t0) > 0.0`` loop
over the spans, value for value and in spans order."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.failures import FailureEvent
from repro.scenarios.hybrid import solve_epochs

#: endpoints shared by spans and epoch edges, so spans touch t0/t1 often
POINTS = (0, 0.0, 0.5, 1, 1.25, 2.0, 2.5, 3, 7.75, 10.0)


def scalar_overlaps(spans, t0, t1):
    overlaps = {}
    for name, (start, end) in spans.items():
        overlap = min(end, t1) - max(start, t0)
        if overlap > 0.0:
            overlaps[name] = overlap
    return overlaps


endpoint = st.one_of(
    st.sampled_from(POINTS),
    st.sampled_from(POINTS).map(np.float64),
    st.floats(0.0, 10.0, allow_nan=False, allow_subnormal=False),
)


@st.composite
def epoch_cases(draw):
    spans = {}
    for i in range(draw(st.integers(0, 12))):
        start = draw(endpoint)
        # zero-length and reversed spans as well as real ones
        end = start if draw(st.booleans()) else draw(endpoint)
        spans[f"f{i}"] = (start, end)
    # unsorted edges, so some epochs have t1 <= t0 and are skipped
    edges = draw(st.lists(endpoint, min_size=2, max_size=8))
    if draw(st.booleans()):
        edges = sorted(edges)
    return spans, edges


@settings(max_examples=400, deadline=None)
@given(case=epoch_cases())
def test_array_overlaps_equal_the_scalar_loop(case):
    spans, edges = case
    paths = {name: ("a", "b") for name in spans}
    solves = solve_epochs(
        spans, paths, {("a", "b"): 1.0}, {}, set(spans), (), edges
    )
    epochs = [(t0, t1) for t0, t1 in zip(edges[:-1], edges[1:]) if t1 > t0]
    assert [(s.t0, s.t1) for s in solves] == epochs
    for solve, (t0, t1) in zip(solves, epochs):
        expected = scalar_overlaps(spans, t0, t1)
        assert list(solve.overlaps) == list(expected)
        assert [float(v).hex() for v in solve.overlaps.values()] == [
            float(v).hex() for v in expected.values()
        ]
        assert solve.rates == {} and solve.blacked == ()


def test_failed_link_blacks_out_only_crossing_flows():
    """Hop sets are built only while a link is down, and then match the
    undirected hop test."""
    spans = {"x": (0.0, 4.0), "y": (0.0, 4.0), "z": (1.0, 3.0)}
    paths = {"x": ("a", "b", "c"), "y": ("c", "d"), "z": ("c", "b")}
    caps = dict.fromkeys(
        (("a", "b"), ("b", "c"), ("c", "d"), ("c", "b")), 10.0
    )
    plan = [
        FailureEvent(at=2.0, action="fail", a="c", b="b"),
        FailureEvent(at=3.0, action="restore", a="b", b="c"),
    ]
    solves = solve_epochs(
        spans, paths, caps, {}, set(), plan, [0.0, 1.0, 2.0, 3.0, 4.0]
    )
    assert [s.blacked for s in solves] == [(), (), ("x", "z"), ()]
    assert [sorted(s.rates) for s in solves] == [
        ["x", "y"], ["x", "y", "z"], ["y"], ["x", "y"]
    ]
