"""The bounded solve against its complete-fill loop, kept verbatim.

``max_min_fair_bounded`` used to run every round's fill to completion
and keep one fact from it: which bounded claimants end over their
bound.  Its fills now stop as soon as that set is known.  The loop and
the three fills it ran are kept below as the reference, and the solver's
rates must equal it in value (float hex) and in key order on seeded
generated cases that reach every corner the two could split on:

- bounds of ``None``, ``inf``, zero and exactly a claimant's fair share
  (the ties: a claimant at its bound is not capped);
- counts above one, weights of zero and non-unit weights;
- claimant sets on both sides of ``_VECTOR_MIN_FLOWS``;
- undirected capacity maps (both directions share one entry), directed
  ones, and zero-capacity links.

Run directly (``PYTHONPATH=src python
tests/net/test_fluid_bounded_reference.py [cases]``) to compare more
cases than tier-1 does.
"""

import sys
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

import repro.net.fluid as fluid
from repro.net.fluid import (
    _REL_EPS,
    _VECTOR_MIN_FLOWS,
    FluidFlow,
    _canonicalize,
    max_min_fair,
    max_min_fair_bounded,
)

CASES = 2000


# ------------------------------------------- the reference, kept verbatim


def _fill_scalar(
    flow_uses: Dict[str, Dict[Tuple[str, str], int]],
    caps: Dict[Tuple[str, str], float],
) -> Dict[str, float]:
    """Dict-based progressive filling at unit weights (the reference).

    A claimant consumes a link once per traversal per member — the
    multiplicity ``_canonicalize`` tallies, which the vectorized
    incidence matrix encodes too, so the two fills stay interchangeable.
    """
    remaining = dict(caps)
    sat_eps = {link: _REL_EPS * max(1.0, cap) for link, cap in caps.items()}
    # rates is inserted in flow_uses (input) order, never set-iteration
    # order: downstream float sums over rates.values() must not depend
    # on PYTHONHASHSEED, or exact ties in assign_flows' lexicographic
    # scoring flip between processes and parallel sweeps lose their
    # byte-for-byte determinism
    rates: Dict[str, float] = {f: 0.0 for f in flow_uses}
    active = set(flow_uses)
    while active:
        # per-link traversal count over active claimants; the tightest
        # link constrains the common increment
        usage: Dict[Tuple[str, str], int] = {}
        for f in active:
            for link, count in flow_uses[f].items():
                usage[link] = usage.get(link, 0) + count
        increment = min(
            remaining[link] / users for link, users in usage.items()
        )
        if increment < 0.0:
            increment = 0.0
        # apply increment, find newly saturated links
        for f in flow_uses:
            if f in active:
                rates[f] += increment
        for link, users in usage.items():
            remaining[link] -= increment * users
        saturated = {l for l, r in remaining.items() if r <= sat_eps[l]}
        frozen = {
            f for f in active if any(l in saturated for l in flow_uses[f])
        }
        if not frozen:
            # the increment underflowed without saturating any link
            # (float residue on the tightest link); stop deterministically
            # rather than spinning on ever-smaller increments
            break
        active -= frozen
    return rates


def _fill_vector(
    flows: Sequence[FluidFlow],
    capacities: Mapping[Tuple[str, str], float],
) -> Dict[str, float]:
    """Vectorized progressive filling over a link x claimant incidence
    matrix.  Each round computes every link's active claim with one
    matrix-vector product, takes the global tightest increment, applies
    it, and freezes all claimants crossing newly saturated links — the
    same rule as :func:`_fill_scalar`, and bit-identical to it at unit
    weights.  A claimant grows at its ``weight`` times the common fill
    level, so a flow-class aggregate standing in for ``w`` identical
    flows claims exactly the share those ``w`` flows would have claimed
    individually.
    """
    flow_uses, caps = _canonicalize(flows, capacities)
    uses = list(flow_uses.values())
    keys = list(caps)
    key_index = {key: i for i, key in enumerate(keys)}
    # one cell per (link, claimant), its multiplicity tallied by
    # bincount: integer counts, so the same matrix as adding 1.0 per
    # traversal
    n = len(uses)
    rows = [key_index[key] for use in uses for key in use]
    cols = np.repeat(np.arange(n), [len(use) for use in uses])
    incidence = np.bincount(
        np.array(rows, dtype=np.intp) * n + cols,
        weights=[count for use in uses for count in use.values()],
        minlength=len(keys) * n,
    ).reshape(len(keys), n)
    weight = np.array([flow.weight for flow in flows], dtype=float)
    cap = np.array([caps[key] for key in keys])
    remaining = cap.copy()
    sat_eps = _REL_EPS * np.maximum(cap, 1.0)
    rates = np.zeros(n)
    active = weight > 0.0
    # every round freezes at least one claimant or breaks, so <= n rounds
    for _ in range(n):
        growth = weight * active  # rate each claimant gains per unit of fill
        users = incidence @ growth
        used = users > 0.0
        if not used.any():
            break
        increment = float(np.min(remaining[used] / users[used]))
        if increment < 0.0:
            increment = 0.0
        rates += increment * growth
        remaining[used] -= increment * users[used]
        saturated = remaining <= sat_eps
        frozen = active & (incidence[saturated].sum(axis=0) > 0.0)
        if not frozen.any():
            break  # increment underflow: stop deterministically
        active &= ~frozen
        if not active.any():
            break
    return {name: float(rates[j]) for j, name in enumerate(flow_uses)}


def _fill(
    flows: Sequence[FluidFlow],
    capacities: Mapping[Tuple[str, str], float],
) -> Dict[str, float]:
    """The scalar fill below :data:`_VECTOR_MIN_FLOWS` claimants of weight
    exactly 1.0 (it has no weights), the vectorized fill otherwise."""
    if len(flows) < _VECTOR_MIN_FLOWS and all(
        flow.weight == 1.0  # repro-lint: disable=RL006
        for flow in flows
    ):
        return _fill_scalar(*_canonicalize(flows, capacities))
    return _fill_vector(flows, capacities)


def reference_bounded(
    flows: Sequence[FluidFlow],
    capacities: Mapping[Tuple[str, str], float],
) -> Dict[str, float]:
    """``max_min_fair_bounded`` before its fills stopped early."""
    rates: Dict[str, float] = {}
    remaining = dict(capacities)
    pending = list(flows)
    while pending:
        fair = _fill(pending, remaining)
        capped = sorted(
            (flow.name, flow.bound, flow)
            for flow in pending
            if flow.bound is not None and fair[flow.name] > flow.bound
        )
        if not capped:
            rates.update(fair)
            break
        for name, rate, flow in capped:
            rates[name] = rate
            for hop in flow.links:
                # directed lookup, reversed fallback — the same key
                # resolution the fills apply
                key = hop if hop in remaining else (hop[1], hop[0])
                remaining[key] = max(0.0, remaining[key] - rate * flow.count)
        pending = [flow for flow in pending if flow.name not in rates]
    return rates


# ---------------------------------------------------------- the cases


def random_case(seed: int):
    """Claimants on a random node graph, walked along its edges (a walk
    may cross a link twice), with a capacity map that is directed,
    undirected or mixed and sometimes holds zero-capacity links."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(2, 9))
    nodes = [f"n{i}" for i in range(n_nodes)]
    edges = sorted({
        tuple(sorted(rng.choice(n_nodes, size=2, replace=False).tolist()))
        for _ in range(int(rng.integers(1, 3 * n_nodes)))
    })
    style = rng.choice(["directed", "undirected", "mixed"])
    caps: Dict[Tuple[str, str], float] = {}
    for i, j in edges:
        a, b = nodes[i], nodes[j]
        roll = rng.random()
        cap = 0.0 if roll < 0.08 else float(
            rng.choice([1.0, 10.0, 40.0, 100.0]) if roll < 0.5
            else rng.uniform(0.5, 200.0)
        )
        if style == "undirected" or (style == "mixed" and rng.random() < 0.5):
            caps[(a, b) if rng.random() < 0.5 else (b, a)] = cap
        else:
            caps[(a, b)] = cap
            caps[(b, a)] = cap if rng.random() < 0.7 else float(
                rng.uniform(0.5, 200.0)
            )
    neighbours: Dict[int, list] = {}
    for i, j in edges:
        neighbours.setdefault(i, []).append(j)
        neighbours.setdefault(j, []).append(i)

    # both sides of the fill crossover, and its edge
    n_flows = int(rng.choice([
        rng.integers(1, _VECTOR_MIN_FLOWS),
        rng.integers(_VECTOR_MIN_FLOWS, 3 * _VECTOR_MIN_FLOWS),
        _VECTOR_MIN_FLOWS - 1,
        _VECTOR_MIN_FLOWS,
    ]))
    weighted = rng.random() < 0.3
    drafts = []
    for f in range(n_flows):
        at = int(rng.choice(list(neighbours)))
        hops = []
        for _ in range(int(rng.integers(1, 5))):
            nxt = int(rng.choice(neighbours[at]))
            hops.append((nodes[at], nodes[nxt]))
            at = nxt
        count = int(rng.choice([1, 1, 1, 2, 3])) if rng.random() < 0.3 else 1
        weight = 1.0
        if weighted:
            weight = float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.5]))
        drafts.append((f"f{f}", tuple(hops), count, weight))

    # ties: some bounds are exactly a claimant's unbounded fair share
    fair = max_min_fair(
        [FluidFlow(n, h, count=c, weight=w) for n, h, c, w in drafts], caps
    )
    flows = []
    for name, hops, count, weight in drafts:
        roll = rng.random()
        if roll < 0.3:
            bound = None
        elif roll < 0.4:
            bound = float("inf")
        elif roll < 0.5:
            bound = 0.0
        elif roll < 0.65:
            bound = fair[name]
        elif roll < 0.8:
            bound = 0.5  # a mouse's CBR rate
        else:
            bound = float(rng.uniform(0.0, 2.0 * fair[name] + 1.0))
        flows.append(FluidFlow(name, hops, count=count, weight=weight,
                               bound=bound))
    order = rng.permutation(len(flows))
    return [flows[k] for k in order], caps


def hexed(rates: Dict[str, float]):
    return [(name, float(rate).hex()) for name, rate in rates.items()]


def compare(cases: int, first: int = 0) -> int:
    differ = 0
    for seed in range(first, first + cases):
        flows, caps = random_case(seed)
        if hexed(max_min_fair_bounded(flows, caps)) != hexed(
            reference_bounded(flows, caps)
        ):
            differ += 1
    return differ


# ---------------------------------------------------------- the tests


def test_bounded_solve_equals_its_complete_fill_loop():
    assert compare(CASES) == 0


def test_cases_reach_every_corner():
    """The generator is what makes the comparison mean something."""
    seen = set()
    for seed in range(200):
        flows, caps = random_case(seed)
        seen.add("vector" if len(flows) >= _VECTOR_MIN_FLOWS else "scalar")
        seen.add("reversed-key" if any(
            hop not in caps for flow in flows for hop in flow.links
        ) else "directed-only")
        seen.update("zero-cap" for cap in caps.values() if not cap)
        for flow in flows:
            corner = flow.bound in (None, 0.0, float("inf"))
            seen.add(f"bound={flow.bound if corner else 'finite'}")
            seen.add("count>1" if flow.count > 1 else "count=1")
            seen.add(f"weight={flow.weight:g}")
    assert {
        "vector", "scalar", "reversed-key", "directed-only", "zero-cap",
        "bound=None", "bound=0.0", "bound=inf", "bound=finite",
        "count>1", "weight=0", "weight=0.5", "weight=3.5",
    } <= seen


def mice_and_elephants(mice: int, extra=()):
    """``mice`` claimants of bound 0.5 with one elephant on link A
    (capacity ``2 * (mice + 1)``, so round one gives everyone 2.0) and a
    second elephant alone on link B behind it."""
    flows = [FluidFlow(f"m{i}", (("a", "x"),), bound=0.5)
             for i in range(mice)]
    flows.append(FluidFlow("e1", (("a", "x"), ("x", "y"))))
    flows.append(FluidFlow("e2", (("x", "y"),)))
    flows.extend(extra)
    caps = {("a", "x"): 2.0 * (mice + 1), ("x", "y"): 100.0}
    return flows, caps


def spy_fills(monkeypatch):
    """Record every fill ``max_min_fair_bounded`` runs and its answer."""
    seen = []
    fill = fluid._fill

    def spy(*args):
        rates = fill(*args)
        seen.append(dict(rates))
        return rates

    monkeypatch.setattr(fluid, "_fill", spy)
    return seen


class TestEarlyStop:
    def test_fires_once_every_bounded_claimant_is_over(self, monkeypatch):
        """After round one all mice sit at 2.0 > 0.5 and link A is full:
        the capped set is known, so the fill stops with ``e2`` at 2.0
        where the complete fill takes it to 98.0.  Both fills, both
        sides of the crossover."""
        for mice in (4, 40):
            seen = spy_fills(monkeypatch)
            flows, caps = mice_and_elephants(mice)
            rates = max_min_fair_bounded(flows, caps)
            assert seen[0]["e2"] == 2.0
            assert _fill(flows, caps)["e2"] == 98.0
            assert hexed(rates) == hexed(reference_bounded(flows, caps))
            monkeypatch.undo()

    def test_holds_while_a_bounded_claimant_is_under(self, monkeypatch):
        """A claimant bounded at 50 on link B is still under its bound
        after round one, so that fill runs to completion."""
        for mice in (4, 40):
            seen = spy_fills(monkeypatch)
            flows, caps = mice_and_elephants(
                mice, [FluidFlow("b", (("x", "y"),), bound=50.0)]
            )
            rates = max_min_fair_bounded(flows, caps)
            assert hexed(seen[0]) == hexed(_fill(flows, caps))
            assert seen[0]["e2"] == seen[0]["b"] == 49.0
            assert hexed(rates) == hexed(reference_bounded(flows, caps))
            monkeypatch.undo()


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    print(f"{n} cases, {compare(n)} differ")
