"""Closed-form max-min fair throughput model (fluid approximation).

The packet-level emulator answers *how* flows behave over time; this
module answers *where they should converge*: given each flow's path and
the link capacities, progressive filling computes the max-min fair rate
allocation that competing AIMD flows approximate in steady state.

One claimant record (:class:`FluidFlow`), one progressive-filling rule,
two fills selected by claimant count and weight:

- a **vectorized** fill over a claimant x link incidence matrix (numpy),
  optionally weighted, for the wide claimant sets dynamic-scenario
  sweeps produce;
- the **scalar** dict-based fill, faster below
  :data:`_VECTOR_MIN_FLOWS` unit-weight claimants (most solves of a
  sweep cell are that small) and the cross-check oracle the property
  tests compare against.

Both return bit-identical rates at unit weights, and
:func:`max_min_fair_bounded` is the only pin-and-reshare loop on top.
Of a round that caps some claimant, that loop uses only the capped set,
so its fills stop as soon as the set is known (every still-active
bounded claimant already over its bound); the rates it returns are
those of the complete fills, bit for bit.

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

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
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
    """A claimant: the directed links it crosses, and how it claims.

    ``count`` identical members share the path: integer usage, rounded
    exactly as that many flows, and a per-member rate.  ``weight`` fair
    shares make a flow-class aggregate: a scaled increment, which rounds
    differently, and the whole class's rate.  ``bound`` is a CBR ceiling
    (:func:`max_min_fair_bounded`); a negative or NaN one raises: pinned
    at it, the claimant would hand capacity back (or never be pinned).
    A count below one or a negative, NaN or infinite weight raises too;
    a zero weight (a class with no member active) claims nothing.
    """

    name: str
    links: Tuple[Tuple[str, str], ...]
    count: int = 1
    weight: float = 1.0
    bound: Optional[float] = None

    def __post_init__(self) -> None:
        if not (isinstance(self.count, int) and self.count >= 1
                and 0.0 <= self.weight < math.inf):
            raise ValueError(
                f"flow {self.name!r} needs an integer count >= 1 and a finite "
                f"weight >= 0, got {self.count!r} and {self.weight!r}"
            )
        if self.bound is not None and not self.bound >= 0.0:
            raise ValueError(
                f"rate bound of flow {self.name!r} must be >= 0, "
                f"got {self.bound!r}"
            )

    @staticmethod
    def from_path(
        name: str, path: Sequence[str], bound: Optional[float] = None
    ) -> "FluidFlow":
        if len(path) < 2:
            raise ValueError("path needs at least two nodes")
        links = tuple(zip(path[:-1], path[1:]))
        return FluidFlow(name, links, bound=bound)


def _canonicalize(
    flows: Sequence[FluidFlow],
    capacities: Mapping[Tuple[str, str], float],
) -> Tuple[
    Dict[str, Dict[Tuple[str, str], int]], Dict[Tuple[str, str], float]
]:
    """Resolve every claimant's links onto capacity keys.

    Directed lookup first, reversed fallback second — so a directed
    capacity map gives each direction its own budget while an undirected
    one (legacy) shares a single entry between both directions.  Returns
    ``(claimant name -> {key: traversals x count}, key -> capacity)``,
    keys in first-traversal order, restricted to the links some claimant
    actually crosses.  Each distinct link is resolved once per call,
    however many claimants (or traversals of one) cross it.  Raises
    ``KeyError`` for the first link met with no capacity in either
    direction and ``ValueError`` for a NaN capacity or a duplicate
    claimant name.
    """
    flow_uses: Dict[str, Dict[Tuple[str, str], int]] = {}
    caps: Dict[Tuple[str, str], float] = {}
    key_of: Dict[Tuple[str, str], Tuple[str, str]] = {}
    for flow in flows:
        uses: Dict[Tuple[str, str], int] = {}
        for link in flow.links:
            key = key_of.get(link)
            if key is None:
                if link in capacities:
                    key = link
                else:
                    key = (link[1], link[0])
                    if key not in capacities:
                        raise KeyError(f"no capacity declared for link {link}")
                key_of[link] = key
                if key not in caps:
                    cap = caps[key] = float(capacities[key])
                    if cap != cap:
                        raise ValueError(f"capacity of link {key} is NaN")
            uses[key] = uses.get(key, 0) + flow.count
        if flow.name in flow_uses:
            raise ValueError(f"duplicate flow name {flow.name!r}")
        flow_uses[flow.name] = uses
    return flow_uses, caps


def _fill_scalar(
    flow_uses: Dict[str, Dict[Tuple[str, str], int]],
    caps: Dict[Tuple[str, str], float],
    bounds: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Dict-based progressive filling at unit weights (the reference).

    A claimant consumes a link once per traversal per member — the
    multiplicity ``_canonicalize`` tallies, which the vectorized
    incidence matrix encodes too, so the two fills stay interchangeable.
    With ``bounds`` (claimant name -> finite bound) the fill stops once
    its capped set is known (see :func:`_fill`).
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
        if bounds and any(rates[f] > b for f, b in bounds.items()) and all(
            rates[f] > bounds[f] for f in active if f in bounds
        ):
            break
    return rates


def _fill_vector(
    flows: Sequence[FluidFlow],
    capacities: Mapping[Tuple[str, str], float],
    stop_once_capped: bool = False,
) -> Dict[str, float]:
    """Vectorized progressive filling over a link x claimant incidence
    matrix.  Each round computes every link's active claim with one
    matrix-vector product, takes the global tightest increment, applies
    it, and freezes all claimants crossing newly saturated links — the
    same rule as :func:`_fill_scalar`, and bit-identical to it at unit
    weights.  A claimant grows at its ``weight`` times the common fill
    level, so a flow-class aggregate standing in for ``w`` identical
    flows claims exactly the share those ``w`` flows would have claimed
    individually.  With ``stop_once_capped`` the fill stops once its
    capped set is known (see :func:`_fill`).
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
    if stop_once_capped:
        bound = np.array(
            [math.inf if flow.bound is None else flow.bound for flow in flows]
        )
        bounded = bound < math.inf
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
        if stop_once_capped:
            over = rates > bound
            if over.any() and not (active & bounded & ~over).any():
                break
    return {name: float(rates[j]) for j, name in enumerate(flow_uses)}


def _fill(
    flows: Sequence[FluidFlow],
    capacities: Mapping[Tuple[str, str], float],
    stop_once_capped: bool = False,
) -> Dict[str, float]:
    """The scalar fill below :data:`_VECTOR_MIN_FLOWS` claimants of weight
    exactly 1.0 (it has no weights), the vectorized fill otherwise.

    With ``stop_once_capped`` the fill returns as soon as some claimant
    is over its bound and every still-active claimant with a finite
    bound is over it too.  Rates only grow (the increment is clamped at
    zero) and a frozen claimant's rate is final, so the set of claimants
    with ``rate > bound`` is then the one the complete fill would give;
    only that set is exact, the other rates are partial.  A fill in
    which no claimant exceeds its bound runs to completion.
    """
    if len(flows) < _VECTOR_MIN_FLOWS and all(
        flow.weight == 1.0  # repro-lint: disable=RL006
        for flow in flows
    ):
        bounds = {
            flow.name: flow.bound
            for flow in flows
            if flow.bound is not None and flow.bound < math.inf
        } if stop_once_capped else None
        return _fill_scalar(*_canonicalize(flows, capacities), bounds)
    return _fill_vector(flows, capacities, stop_once_capped)


def max_min_fair(
    flows: Sequence[FluidFlow],
    capacities: Mapping[Tuple[str, str], float],
) -> Dict[str, float]:
    """Progressive-filling (weighted) max-min fair allocation.

    All claimants grow at the same rate (times their weight) until some
    link saturates; claimants crossing saturated links freeze, remaining
    capacity is recomputed, and the process repeats.  Raises
    ``KeyError`` if a claimant crosses a link not present in
    ``capacities`` (directed lookup with reversed fallback), and
    ``ValueError`` if a crossed link's capacity is NaN (every rate would
    be NaN) or a claimant carries a ``bound``.  Which fill runs depends
    on how many claimants an epoch happens to hold, so the two are
    **bit-identical**, not merely close (the property tests assert
    ``==``): a looser match would let an unrelated flow move a byte.
    """
    for flow in flows:
        if flow.bound is not None:
            raise ValueError(
                f"flow {flow.name!r} carries a rate bound; "
                "use max_min_fair_bounded"
            )
    return _fill(flows, capacities)


def max_min_fair_bounded(
    flows: Sequence[FluidFlow],
    capacities: Mapping[Tuple[str, str], float],
) -> Dict[str, float]:
    """(Weighted) max-min fair allocation under the claimants' bounds.

    Water-filling with bounds: claimants whose fair share exceeds their
    ``bound`` (CBR UDP senders, or a flow class's summed CBR demand) are
    pinned at it, their usage is subtracted from link capacities once
    per traversal, and the rest re-share the remainder — so elastic
    flows soak up what rigid ones leave, matching what AIMD does at
    packet level.  Converges in at most one round per bounded claimant.
    A round that pins some claimant keeps nothing else of its fill, so
    that fill stops once the pinned set is known (see :func:`_fill`);
    only the last round, which pins none, fills to completion.  A class
    claimant's weight is the number of its members active in the epoch,
    so it claims what they would as individual flows.  A NaN capacity
    raises (see :func:`max_min_fair`); a negative one means no headroom,
    as in the fills.
    """
    rates: Dict[str, float] = {}
    remaining = dict(capacities)
    pending = list(flows)
    while pending:
        # stop_once_capped: of a round that caps some claimant only the
        # capped set is used, so its fill stops once that set is known
        fair = _fill(pending, remaining, True)
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
                left = remaining[key] - rate * flow.count
                remaining[key] = left if left > 0.0 else 0.0
        pending = [flow for flow in pending if flow.name not in rates]
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
