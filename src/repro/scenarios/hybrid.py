"""Flow-class machinery behind the ``hybrid`` scenario backend.

The hybrid backend splits one offered workload in two:

- **foreground** flows (elephants, probes someone chose to promote —
  see :class:`~repro.scenarios.spec.FlowClassSpec`) run packet-level
  through the full self-driving framework, exactly as on the ``des``
  backend;
- **background** flows (the mice) never reach the packet domain.  They
  are assigned round-robin over their (ingress, egress) group's
  candidate tunnels — unmanaged, ECMP-style — and solved as a fluid
  max-min allocation per *epoch* (a coarse time grid plus every failure
  event and phase transition).  Each epoch's per-flow rates are summed
  along their paths into directed per-link loads, which the runner
  installs on the emulator as background-utilization terms
  (:mod:`repro.net.background`): foreground packets then serialize into
  the capacity the mice left behind, and telemetry reports the link as
  busy, so Hecate steers elephants around mice it never saw as packets.

With ``FlowClassSpec.aggregate_background`` the mice are first collapsed
into per-path classes (:class:`BackgroundAggregate`) and enter the same
:func:`solve_epochs` as weighted claimants: one epoch loop, one solver,
two representations of the background.

The epoch solver here is also what the pure ``fluid`` backend runs: on
small scenarios its epoch edges are the exact flow start/stop instants
(bit-identical to the pre-hybrid implementation), and beyond
``FlowClassSpec.max_epochs`` boundaries it coalesces them onto a uniform
grid so a 10k-flow scenario costs hundreds, not tens of thousands, of
fluid solves.

Everything in this module is a pure function of its inputs; the
simulator is only touched by the runner, which keeps hybrid runs exactly
as deterministic as the other two backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.framework.controller import select_candidates
from repro.framework.scheduler import FlowRequest
from repro.net.background import BackgroundEpoch
from repro.net.fluid import FluidFlow, max_min_fair_bounded
from repro.net.topology import Network

from .failures import FailureEvent
from .spec import FlowClassSpec

__all__ = [
    "EpochSolve",
    "BackgroundAggregate",
    "split_requests",
    "assign_class_paths",
    "aggregate_background",
    "epoch_edges",
    "quantize_edges",
    "solve_epochs",
    "background_epochs",
]


def split_requests(
    requests: Sequence[FlowRequest], classes: FlowClassSpec
) -> Tuple[List[FlowRequest], List[FlowRequest]]:
    """Partition offered flows into (foreground, background).

    A flow is foreground when its name matches any
    ``classes.foreground`` glob (case-sensitive, so ``elephant*`` never
    surprises) and the ``classes.max_foreground`` budget is not yet
    spent; offered order decides who wins the budget.  ICMP probes are
    always promoted regardless of name or budget: they are latency
    instruments (one packet per second — negligible cost) and demoting
    one to the fluid domain would silently disable the measurement a
    probe-driven scenario (e.g. fig11) exists to make.
    """
    foreground: List[FlowRequest] = []
    background: List[FlowRequest] = []
    for request in requests:
        promoted = request.protocol == "icmp" or (
            len(foreground) < classes.max_foreground
            and any(
                fnmatchcase(request.flow_name, pattern)
                for pattern in classes.foreground
            )
        )
        (foreground if promoted else background).append(request)
    return foreground, background


def _placements(
    network: Network,
    tunnels: Sequence[Tuple[str, int, Tuple[str, ...]]],
    requests: Sequence[FlowRequest],
    spread: bool,
) -> Iterator[Tuple[FlowRequest, Optional[Tuple[str, ...]]]]:
    """Each request with its router path (``None``: no candidate
    tunnel) — the one placement rule both background representations
    share, so aggregating the mice can never change where they go."""
    by_name = {name: path for name, _, path in tunnels}
    rotation: Dict[Tuple[str, str], int] = {}
    for request in requests:
        pair = (
            network.edge_router_of(request.src),
            network.edge_router_of(request.dst),
        )
        candidates = select_candidates(by_name, *pair)
        if not candidates:
            yield request, None
            continue
        index = 0
        if spread:
            index = rotation.get(pair, 0)
            rotation[pair] = index + 1
        yield request, by_name[candidates[index % len(candidates)]]


def assign_class_paths(
    network: Network,
    tunnels: Sequence[Tuple[str, int, Tuple[str, ...]]],
    requests: Sequence[FlowRequest],
    spread: bool,
) -> Tuple[Dict[str, Tuple[str, ...]], int]:
    """Router paths for one flow class, plus the unplaceable count.

    ``spread=True`` is the background rule: members of each (ingress,
    egress) group round-robin over the group's candidate tunnels in
    offered order — the deterministic stand-in for ECMP hashing of
    unmanaged mice.  ``spread=False`` pins every member to the group's
    default (first) candidate — the estimate of where the controller
    initially lands foreground flows, used only to make the fluid solve
    see elephants as claimants.
    """
    paths: Dict[str, Tuple[str, ...]] = {}
    unplaced = 0
    for request, path in _placements(network, tunnels, requests, spread):
        if path is None:
            unplaced += 1
        else:
            paths[request.flow_name] = path
    return paths, unplaced


@dataclass(frozen=True)
class BackgroundAggregate:
    """Columnar flow-class view of the background population.

    At 100k–1M mice, even the per-flow *fluid* path is too expensive:
    dict-of-spans bookkeeping and one solver variable per mouse dominate
    the run.  This structure collapses the background into **flow
    classes** — one class per candidate-tunnel path actually chosen by
    the round-robin spreading rule (the rotation
    :func:`assign_class_paths` applies with ``spread=True``, so class
    membership is exactly where per-flow mode would have put each mouse).
    Members live on in columnar numpy arrays (start, end, rate cap,
    class index), so every per-epoch reduction is a ``bincount`` over
    100k rows instead of 100k dict operations, and the fluid solver sees
    one weighted variable per class instead of one per mouse.
    """

    #: router path of each class (index = class id)
    class_paths: Tuple[Tuple[str, ...], ...]
    #: per-member horizon-clamped span start / end (seconds)
    starts: np.ndarray
    ends: np.ndarray
    #: per-member rate ceiling in Mbps; ``inf`` marks an elastic (TCP)
    #: member with no CBR cap
    caps: np.ndarray
    #: per-member class id (index into :attr:`class_paths`)
    class_of: np.ndarray
    #: offered background flows with no candidate tunnel at all
    unplaced: int

    @property
    def members(self) -> int:
        return int(self.starts.size)

    def member_seconds(self) -> np.ndarray:
        """Total member-active seconds per class (for averaging a
        class's delivered Mbps-seconds back into a per-mouse rate)."""
        spans = np.clip(self.ends - self.starts, 0.0, None)
        return np.bincount(
            self.class_of, weights=spans, minlength=len(self.class_paths)
        )


def aggregate_background(
    network: Network,
    tunnels: Sequence[Tuple[str, int, Tuple[str, ...]]],
    requests: Sequence[FlowRequest],
    horizon: float,
) -> BackgroundAggregate:
    """Group background flows into per-path classes, columnar form.

    Placement is the rotation :func:`assign_class_paths` applies with
    ``spread=True`` — member *i* of each (ingress, egress) group lands
    on candidate ``i % k`` — so aggregate mode changes the
    representation of the mice, never where they are routed.  Spans are
    clamped to ``[0, horizon]`` exactly as the per-flow solver's
    ``solve_inputs`` clamps them; CBR (rate-capped UDP) members record
    their cap, elastic members record ``inf``.
    """
    class_index: Dict[Tuple[str, ...], int] = {}
    starts: List[float] = []
    ends: List[float] = []
    caps: List[float] = []
    class_of: List[int] = []
    unplaced = 0
    for request, path in _placements(network, tunnels, requests, True):
        if path is None:
            unplaced += 1
            continue
        class_of.append(class_index.setdefault(path, len(class_index)))
        starts.append(min(request.start_at, horizon))
        ends.append(min(request.start_at + request.duration, horizon))
        caps.append(
            float(request.rate_mbps)
            if request.protocol == "udp" and request.rate_mbps
            else np.inf
        )
    return BackgroundAggregate(
        class_paths=tuple(class_index),
        starts=np.asarray(starts, dtype=float),
        ends=np.asarray(ends, dtype=float),
        caps=np.asarray(caps, dtype=float),
        class_of=np.asarray(class_of, dtype=np.intp),
        unplaced=unplaced,
    )


def epoch_edges(
    horizon: float,
    failure_plan: Sequence[FailureEvent],
    phase_fracs: Iterable[float],
    classes: FlowClassSpec,
) -> List[float]:
    """The hybrid backend's epoch grid over ``[0, horizon]``.

    A uniform ``classes.epoch_s`` grid (coarsened so the total stays
    within ``classes.max_epochs``), plus every failure event and phase
    transition as an exact edge — load is re-solved exactly when the
    network or the offered program changes, and merely *refreshed* on
    the grid in between.
    """
    edges = {0.0, horizon}
    edges.update(e.at for e in failure_plan if 0.0 < e.at < horizon)
    edges.update(f * horizon for f in phase_fracs if 0.0 < f < 1.0)
    if classes.epoch_s is not None:
        step = classes.epoch_s
        if horizon / step > classes.max_epochs:
            step = horizon / classes.max_epochs
        k = 1
        while k * step < horizon:
            edges.add(k * step)
            k += 1
    return sorted(edges)


def quantize_edges(
    exact: Set[float],
    horizon: float,
    failure_plan: Sequence[FailureEvent],
    phase_fracs: Iterable[float],
    classes: FlowClassSpec,
) -> List[float]:
    """Exact edges when they fit the epoch budget, the coalesced grid
    otherwise.

    The pure fluid backend re-solves at every flow start/stop, which is
    bit-faithful for the small suite but quadratic pain at thousands of
    flows; past ``classes.max_epochs`` boundaries it snaps flow edges
    onto the :func:`epoch_edges` grid (failure and phase edges stay
    exact) and credits delivery by per-epoch overlap instead.
    """
    if len(exact) <= classes.max_epochs:
        return sorted(exact)
    return epoch_edges(horizon, failure_plan, phase_fracs, classes)


@dataclass(frozen=True)
class EpochSolve:
    """One solved epoch: instantaneous fair rates and per-flow overlap.

    ``rates`` covers the healthy, non-probe flows active in the epoch;
    ``overlaps`` maps every *active* flow (including blacked-out ones)
    to the seconds its span intersects the epoch; ``blacked`` names the
    flows crossing a failed link for the whole epoch.

    A background solved as a :class:`BackgroundAggregate` appears only
    as per-class columns (empty without one): ``class_rates`` is each
    class's **time-averaged** Mbps across the epoch (the solver's
    per-member allocation scaled by the members' mean overlap fraction)
    and ``blacked_members`` counts the active members of classes whose
    path crossed a failed link (the aggregate analogue of a per-flow
    blackout, counted into ``drops``).
    """

    t0: float
    t1: float
    rates: Mapping[str, float]
    overlaps: Mapping[str, float]
    blacked: Tuple[str, ...]
    class_rates: np.ndarray
    blacked_members: int


def _class_claims(
    aggregate: BackgroundAggregate,
    blocked: np.ndarray,
    t0: float,
    t1: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One epoch's per-class reductions over the aggregate's columns.

    Returns ``(count, population, bound, blacked_members)``: the members
    overlapping the epoch (the class's solver weight — per-flow mode
    likewise treats every epoch-overlapping flow as fully concurrent
    regardless of its sub-interval), their time-averaged number (what
    scales the solver's allocation into carried load), the class's
    demand bound (summed CBR caps; one elastic member makes the whole
    class elastic, ``inf``), and the active members of ``blocked``
    classes, which claim nothing.
    """
    n_classes = len(aggregate.class_paths)
    member_overlap = np.clip(
        np.minimum(aggregate.ends, t1) - np.maximum(aggregate.starts, t0),
        0.0,
        None,
    )
    member_blocked = blocked[aggregate.class_of]
    blacked_members = int(
        np.count_nonzero((member_overlap > 0.0) & member_blocked)
    )
    usable = np.where(member_blocked, 0.0, member_overlap)
    population = np.bincount(
        aggregate.class_of, weights=usable, minlength=n_classes
    ) / (t1 - t0)
    member = usable > 0.0
    count = np.bincount(
        aggregate.class_of, weights=member.astype(float), minlength=n_classes
    )
    finite = np.isfinite(aggregate.caps)
    capped_sum = np.bincount(
        aggregate.class_of,
        weights=np.where(finite & member, aggregate.caps, 0.0),
        minlength=n_classes,
    )
    elastic_members = np.bincount(
        aggregate.class_of, weights=member & ~finite, minlength=n_classes
    )
    bound = np.where(elastic_members > 0.0, np.inf, capped_sum)
    return count, population, bound, blacked_members


def solve_epochs(
    spans: Mapping[str, Tuple[float, float]],
    paths: Mapping[str, Tuple[str, ...]],
    capacities: Mapping[Tuple[str, str], float],
    rate_caps: Mapping[str, float],
    probes: Set[str],
    failure_plan: Sequence[FailureEvent],
    edges: Sequence[float],
    aggregate: Optional[BackgroundAggregate] = None,
) -> List[EpochSolve]:
    """Fluid max-min rates for every epoch between consecutive edges.

    Failure events are replayed in time order (the plan is already
    sorted): a flow whose path crosses a link failed at epoch start is
    blacked out for that whole epoch; ICMP probes are never credited
    with capacity (they are latency instruments, not load).  Rate caps
    (CBR UDP senders) bound the elastic share via
    :func:`repro.net.fluid.max_min_fair_bounded`.

    With an ``aggregate``, its mouse classes join the same solve as
    weighted claimants next to the per-flow entries (``spans``/``paths``
    then hold the foreground only): each class claims one fair share per
    member overlapping the epoch, under its summed CBR demand bound, and
    the class allocation is scaled by the members' mean overlap fraction
    before it becomes ``class_rates`` — the aggregate form of per-flow
    mode crediting ``rate * overlap / duration`` per mouse.  Because
    every member of a class shares one path by construction, the two
    modes coincide (to the last few ulps — the arithmetic is grouped
    differently) whenever a class's members carry identical caps, always
    true for the generated scale workloads; mixed caps within one class
    are the only residual approximation.
    """
    class_paths = aggregate.class_paths if aggregate is not None else ()
    class_hops = [tuple(zip(path[:-1], path[1:])) for path in class_paths]
    class_links = [
        frozenset(tuple(sorted(hop)) for hop in hops) for hops in class_hops
    ]
    # every non-probe flow's claimant, its rate cap as the bound, built
    # once per run; each epoch picks the healthy ones
    records = {
        name: FluidFlow.from_path(name, paths[name], bound=rate_caps.get(name))
        for name in spans
        if name not in probes
    }
    # spans as arrays, so each epoch's overlap test is two elementwise
    # IEEE ops (the same doubles as scalar min/max/-), in spans order
    names = list(spans)
    starts = np.array([span[0] for span in spans.values()], dtype=float)
    ends = np.array([span[1] for span in spans.values()], dtype=float)
    # undirected hop sets, built on first use while some link is down
    hop_sets: Dict[str, Set[Tuple[str, ...]]] = {}

    def crosses_failed(name: str) -> bool:
        hops = hop_sets.get(name)
        if hops is None:
            path = paths[name]
            hops = hop_sets[name] = {
                tuple(sorted(hop)) for hop in zip(path[:-1], path[1:])
            }
        return not hops.isdisjoint(failed)

    plan = list(failure_plan)  # already time-ordered
    next_event = 0
    failed: Set[Tuple[str, ...]] = set()
    solves: List[EpochSolve] = []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        if t1 <= t0:
            continue
        while next_event < len(plan) and plan[next_event].at <= t0:
            event = plan[next_event]
            key = tuple(sorted((event.a, event.b)))
            if event.action == "fail":
                failed.add(key)
            else:
                failed.discard(key)
            next_event += 1
        overlap = np.minimum(ends, t1) - np.maximum(starts, t0)
        active = np.flatnonzero(overlap > 0.0).tolist()
        overlaps: Dict[str, float] = dict(
            zip(map(names.__getitem__, active), overlap[active].tolist())
        )
        blacked: List[str] = []
        claimants: List[FluidFlow] = []
        for name in overlaps:
            if failed and crosses_failed(name):
                blacked.append(name)  # blacked out for this whole epoch
            elif name not in probes:
                claimants.append(records[name])
        class_names: Dict[str, int] = {}
        blacked_members = 0
        if aggregate is not None:
            blocked = np.array(
                [bool(links & failed) for links in class_links], dtype=bool
            )
            count, population, bound, blacked_members = _class_claims(
                aggregate, blocked, t0, t1
            )
            class_names = {
                f"class:{k}": int(k) for k in np.flatnonzero(count > 0.0)
            }
            claimants.extend(
                FluidFlow(
                    name,
                    class_hops[k],
                    weight=float(count[k]),
                    bound=float(bound[k]),
                )
                for name, k in class_names.items()
            )
        rates = (
            max_min_fair_bounded(claimants, capacities) if claimants else {}
        )
        class_rates = np.zeros(len(class_paths))
        for name, k in class_names.items():
            class_rates[k] = rates.pop(name) * population[k] / count[k]
        solves.append(
            EpochSolve(
                t0=t0,
                t1=t1,
                rates=rates,
                overlaps=overlaps,
                blacked=tuple(blacked),
                class_rates=class_rates,
                blacked_members=blacked_members,
            )
        )
    return solves


#: a background rate at or below this (Mbps) is a solver zero, not load
_MIN_LOAD_MBPS = 1e-9


def background_epochs(
    solves: Sequence[EpochSolve],
    background: Set[str],
    paths: Mapping[str, Tuple[str, ...]],
    aggregate: Optional[BackgroundAggregate] = None,
) -> List[BackgroundEpoch]:
    """Collapse solved background rates into per-link load timelines.

    Each epoch's load on a directed link is the sum, over background
    flows crossing it, of the flow's fair rate time-averaged across the
    epoch (``rate * overlap / epoch length``) — what an observer
    sampling the link over the epoch would measure — plus, for an
    ``aggregate``d background, each class's ``class_rates`` entry
    (already time-averaged) along the class's path.  Foreground flows are
    claimants in the solve but never contribute load here; the packet
    domain carries them for real.
    """
    class_paths = aggregate.class_paths if aggregate is not None else ()
    epochs: List[BackgroundEpoch] = []
    for solve in solves:
        duration = solve.t1 - solve.t0
        carried = [
            (paths[name], rate * solve.overlaps[name] / duration)
            for name, rate in solve.rates.items()
            if name in background
        ]
        carried.extend(zip(class_paths, solve.class_rates.tolist()))
        loads: Dict[Tuple[str, str], float] = {}
        for path, mbps in carried:
            if mbps <= _MIN_LOAD_MBPS:
                continue
            for hop in zip(path[:-1], path[1:]):
                loads[hop] = loads.get(hop, 0.0) + mbps
        epochs.append(BackgroundEpoch(t0=solve.t0, t1=solve.t1, loads=loads))
    return epochs
