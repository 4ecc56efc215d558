"""Closed-form max-min fair throughput model (fluid approximation).

The packet-level emulator answers *how* flows behave over time; this
module answers *where they should converge*: given each flow's path and
the link capacities, progressive filling computes the max-min fair rate
allocation that competing AIMD flows approximate in steady state.

One progressive-filling rule, two fills selected by input size:

- a **vectorized** fill over a flow x link incidence matrix (numpy),
  optionally weighted, for the wide flow sets dynamic-scenario sweeps
  produce;
- the **scalar** dict-based fill, faster below
  :data:`_VECTOR_MIN_FLOWS` flows (most solves of a sweep cell are that
  small) and the cross-check oracle the property tests compare against.

Both return bit-identical rates, and :func:`max_min_fair_bounded` is the
only pin-and-reshare loop on top of them: plain max-min is unit weights
with no bounds, a flow-class aggregate is one weighted claimant under
one demand bound.

Capacity keys are **directed** ``(a, b)`` node pairs.  Lookup tries the
exact direction first and falls back to the reversed key, so legacy
undirected capacity maps (one entry per full-duplex link, shared by both
directions) still work; :func:`link_capacities` emits both directions of
every built link so opposite-direction flows no longer compete for one
shared entry.

Used as (a) a fast cross-check of the Fig. 12 experiment, (b) the
ablation benchmark comparing fluid vs. packet-level predictions, and
(c) the per-epoch solver behind the scenario suite's fluid backend.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .topology import Network

__all__ = [
    "FluidFlow",
    "max_min_fair",
    "max_min_fair_bounded",
    "total_throughput",
    "link_capacities",
]

#: A link is saturated when its remaining capacity falls below this
#: fraction of its original capacity.  Relative, not absolute: on a
#: large-capacity grid the float residue of ``remaining -= inc * users``
#: can exceed any fixed epsilon (ulp(1e17) is ~16), which under the old
#: absolute test left the bottleneck unsaturated and ended progressive
#: filling early with under-allocated rates.
_REL_EPS = 1e-9

#: Below this many flows the scalar fill wins (no matrix setup cost);
#: docs/PERFORMANCE.md records the measured crossover.
_VECTOR_MIN_FLOWS = 24


@dataclass(frozen=True)
class FluidFlow:
    """A flow abstracted to the ordered set of directed links it crosses."""

    name: str
    links: Tuple[Tuple[str, str], ...]

    @staticmethod
    def from_path(name: str, path: Sequence[str]) -> "FluidFlow":
        if len(path) < 2:
            raise ValueError("path needs at least two nodes")
        return FluidFlow(name=name, links=tuple(zip(path[:-1], path[1:])))


def _canonicalize(
    flows: Sequence[FluidFlow],
    capacities: Mapping[Tuple[str, str], float],
) -> Tuple[Dict[str, List[Tuple[str, str]]], Dict[Tuple[str, str], float]]:
    """Resolve every flow's links onto capacity keys.

    Directed lookup first, reversed fallback second — so a directed
    capacity map gives each direction its own budget while an undirected
    one (legacy) shares a single entry between both directions.  Returns
    ``(flow name -> canonical keys, key -> capacity)`` restricted to the
    links some flow actually crosses.
    """
    flow_links: Dict[str, List[Tuple[str, str]]] = {}
    caps: Dict[Tuple[str, str], float] = {}
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
        flow_links[flow.name] = canon
    return flow_links, caps


def _fill_scalar(
    flow_links: Dict[str, List[Tuple[str, str]]],
    caps: Dict[Tuple[str, str], float],
) -> Dict[str, float]:
    """Dict-based progressive filling (the reference implementation).

    A flow crossing a link more than once (e.g. both directions of an
    undirected capacity entry) consumes capacity once per traversal —
    the same multiplicity rule the vectorized incidence matrix encodes,
    so the two implementations stay interchangeable.
    """
    remaining = dict(caps)
    sat_eps = {link: _REL_EPS * max(1.0, cap) for link, cap in caps.items()}
    flow_counts = {f: Counter(links) for f, links in flow_links.items()}
    # rates is inserted in flow_links (input) order, never set-iteration
    # order: downstream float sums over rates.values() must not depend
    # on PYTHONHASHSEED, or exact ties in assign_flows' lexicographic
    # scoring flip between processes and parallel sweeps lose their
    # byte-for-byte determinism
    rates: Dict[str, float] = {f: 0.0 for f in flow_links}
    active = set(flow_links)
    while active:
        # per-link traversal count over active flows; the tightest link
        # constrains the common increment
        usage: Dict[Tuple[str, str], int] = {}
        for f in active:
            for link, count in flow_counts[f].items():
                usage[link] = usage.get(link, 0) + count
        increment = min(
            remaining[link] / users for link, users in usage.items()
        )
        if increment < 0.0:
            increment = 0.0
        # apply increment, find newly saturated links
        for f in flow_links:
            if f in active:
                rates[f] += increment
        for link, users in usage.items():
            remaining[link] -= increment * users
        saturated = {l for l, r in remaining.items() if r <= sat_eps[l]}
        frozen = {
            f for f in active if any(l in saturated for l in flow_counts[f])
        }
        if not frozen:
            # the increment underflowed without saturating any link
            # (float residue on the tightest link); stop deterministically
            # rather than spinning on ever-smaller increments
            break
        active -= frozen
    return rates


def _fill_vector(
    flow_links: Dict[str, List[Tuple[str, str]]],
    caps: Dict[Tuple[str, str], float],
    weights: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Vectorized progressive filling over a link x flow incidence matrix.

    Each round computes every link's active claim with one matrix-vector
    product, takes the global tightest increment, applies it, and
    freezes all flows crossing newly saturated links — the same rule as
    :func:`_fill_scalar`, and bit-identical to it at unit weights.

    Flow ``f`` grows at ``weights[f]`` (default 1.0) times the common
    fill level, so a flow-class aggregate standing in for ``w`` identical
    flows claims exactly the share those ``w`` flows would have claimed
    individually; zero-weight flows never claim capacity.
    """
    names = list(flow_links)
    keys = list(caps)
    key_index = {key: i for i, key in enumerate(keys)}
    incidence = np.zeros((len(keys), len(names)))
    for j, name in enumerate(names):
        for key in flow_links[name]:
            incidence[key_index[key], j] += 1.0
    if weights is None:
        weight = np.ones(len(names))
    else:
        weight = np.array([float(weights.get(name, 1.0)) for name in names])
    cap = np.array([caps[key] for key in keys])
    remaining = cap.copy()
    sat_eps = _REL_EPS * np.maximum(cap, 1.0)
    rates = np.zeros(len(names))
    active = weight > 0.0
    # every round freezes at least one flow or breaks, so <= n_flows rounds
    for _ in range(len(names)):
        growth = weight * active  # rate each flow gains per unit of fill
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
    return {name: float(rates[j]) for j, name in enumerate(names)}


def max_min_fair(
    flows: Sequence[FluidFlow],
    capacities: Mapping[Tuple[str, str], float],
    method: str = "auto",
    weights: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Progressive-filling max-min fair allocation.

    All flows grow at the same rate until some link saturates; flows
    crossing saturated links freeze, remaining capacity is recomputed,
    and the process repeats.  Raises ``KeyError`` if a flow crosses a
    link not present in ``capacities`` (directed lookup with reversed
    fallback).

    ``method`` selects the implementation: ``"vector"`` (numpy incidence
    matrix), ``"scalar"`` (reference dicts), or ``"auto"`` (vectorized
    from :data:`_VECTOR_MIN_FLOWS` flows up, scalar below, where each is
    fastest).  The two are **bit-identical**, not merely close: which
    one runs depends on how many flows happen to be active in an epoch,
    so anything looser would let an unrelated flow count move a byte of
    a pinned result (the property tests assert ``==``).

    ``weights`` (flow name -> fair shares claimed per filling round,
    absent names 1.0) makes the allocation weighted max-min.  Only the
    vectorized fill carries weights, so ``"auto"`` selects it and
    ``"scalar"`` is rejected.
    """
    if method not in ("auto", "vector", "scalar"):
        raise ValueError(
            f"method must be 'auto', 'vector' or 'scalar', got {method!r}"
        )
    if weights is not None and method == "scalar":
        raise ValueError("the scalar fill is unweighted; use 'vector'")
    flow_links, caps = _canonicalize(flows, capacities)
    if not flow_links:
        return {}
    if method == "scalar" or (
        method == "auto"
        and weights is None
        and len(flow_links) < _VECTOR_MIN_FLOWS
    ):
        return _fill_scalar(flow_links, caps)
    return _fill_vector(flow_links, caps, weights)


def max_min_fair_bounded(
    flow_paths: Mapping[str, Sequence[str]],
    capacities: Mapping[Tuple[str, str], float],
    bounds: Mapping[str, float],
    weights: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """(Weighted) max-min fair allocation with per-flow rate ceilings.

    Water-filling with bounds: flows whose fair share exceeds their
    ceiling (CBR UDP senders) are pinned at the ceiling, their usage is
    subtracted from link capacities, and the unbounded flows re-share
    the remainder — so elastic flows soak up what rigid ones leave,
    matching what AIMD does at packet level.  ``flow_paths`` maps flow
    name to its node path; converges in at most ``len(bounds)`` rounds.

    With ``weights`` this is the solver behind the hybrid backend's
    *aggregate-mice* mode: an entry is either a real flow (weight 1, the
    default) or a flow-class aggregate whose weight is the number of its
    members active in the epoch — the class then claims ``weight`` fair
    shares per filling round, exactly what its members would have
    claimed as individual flows on the same path — and whose bound is
    the summed offered load of its CBR members.  Zero-weight entries are
    reported at 0.0 and never claim capacity; returned rates are per
    *entry* (an aggregate's rate is the whole class's Mbps).
    """
    rates: Dict[str, float] = {}
    pending = {name: tuple(path) for name, path in flow_paths.items()}
    remaining = dict(capacities)
    while pending:
        fair = max_min_fair(
            [FluidFlow.from_path(n, p) for n, p in pending.items()],
            remaining,
            weights=weights,
        )
        capped = {
            name for name, rate in fair.items()
            if name in bounds and rate > bounds[name]
        }
        if not capped:
            rates.update(fair)
            break
        for name in sorted(capped):
            rate = bounds[name]
            rates[name] = rate
            path = pending[name]
            for hop in zip(path[:-1], path[1:]):
                # directed lookup, reversed fallback — the same key
                # resolution max_min_fair applies
                key = hop if hop in remaining else (hop[1], hop[0])
                remaining[key] = max(0.0, remaining[key] - rate)
            del pending[name]
    return rates


def total_throughput(rates: Mapping[str, float]) -> float:
    return float(sum(rates.values()))


def link_capacities(network: "Network") -> Dict[Tuple[str, str], float]:
    """Directed per-link capacities of a built :class:`Network`.

    Both directions of every full-duplex link are emitted, each with the
    link's full rate, so opposite-direction flows draw on independent
    budgets (the physical links are full duplex; the old single
    ``tuple(sorted(key))`` entry wrongly made them compete).  This is
    the bridge the scenario runner's fluid backend uses to evaluate a
    declared topology without running packets through it.
    """
    caps: Dict[Tuple[str, str], float] = {}
    for key, link in network.links.items():
        a, b = sorted(key)
        caps[(a, b)] = link.rate_mbps
        caps[(b, a)] = link.rate_mbps
    return caps
