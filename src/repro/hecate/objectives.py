"""Path-selection objectives (a pluggable registry) and the optimizer.

After forecasting each candidate path's QoS, the Optimizer picks a path
according to a named *objective*.  The paper's integrated framework uses
*most predicted available bandwidth* (Sec. V.B: flows get "less
congestion points in the future"), the Fig. 11 experiment uses *minimum
latency*, min-max utilization is the Sec. III objective, and ``max_qoe``
scores each path with the requesting flow's application model
(:mod:`repro.net.qoe`) — video, VoIP and bulk each rank the same
forecasts differently.

Objectives live in a registry: :func:`register_objective` adds one,
:func:`objective_names` / :func:`list_objectives` enumerate them (the
CLI derives its ``--objective`` choices and help text from here), and
``get_objective(name).chooser`` is the call site's way in.  A chooser is
``(forecasts, app_class="generic") -> PathForecast``; app-agnostic
objectives simply ignore the class.

:func:`assign_flows` is the *joint* optimizer behind the Fig. 12
experiment: given several flows and candidate tunnels, it searches flow->
tunnel assignments and scores each with the max-min fluid model
(:mod:`repro.net.fluid`), maximizing total throughput, then the worst
flow's rate, then minimizing migrations.  Per-flow greedy selection would
herd every flow onto the currently-emptiest tunnel and oscillate; the
joint search reproduces the paper's "one flow to Tunnel 2 and another to
Tunnel 3" outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import ne
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Sequence,
    Tuple,
)

import numpy as np

from repro.net.fluid import FluidFlow, max_min_fair, total_throughput
from repro.net.qoe import predicted_mos

__all__ = [
    "PathForecast",
    "ObjectiveSpec",
    "register_objective",
    "get_objective",
    "objective_names",
    "list_objectives",
    "choose_max_bandwidth",
    "choose_min_latency",
    "choose_min_max_utilization",
    "choose_max_qoe",
    "assign_flows",
    "AssignmentResult",
]


@dataclass(frozen=True)
class PathForecast:
    """Forecasted QoS for one candidate path."""

    name: str
    available_mbps: np.ndarray  # forecast horizon (e.g. next 10 steps)
    latency_ms: float = 0.0
    bottleneck_utilization: float = 0.0
    jitter_ms: float = 0.0
    loss_rate: float = 0.0

    @property
    def mean_available(self) -> float:
        return float(np.mean(self.available_mbps))


#: an objective chooser: candidate forecasts (+ the requesting flow's
#: app class) -> the chosen forecast
Chooser = Callable[..., PathForecast]


def _check(forecasts: Sequence[PathForecast]) -> None:
    if not forecasts:
        raise ValueError("no candidate paths")
    names = [f.name for f in forecasts]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate path names: {names}")


def choose_max_bandwidth(
    forecasts: Sequence[PathForecast], app_class: str = "generic"
) -> PathForecast:
    """The integrated framework's default: most predicted headroom."""
    _check(forecasts)
    return max(forecasts, key=lambda f: f.mean_available)


def choose_min_latency(
    forecasts: Sequence[PathForecast], app_class: str = "generic"
) -> PathForecast:
    """Fig. 11's objective: lowest path latency."""
    _check(forecasts)
    return min(forecasts, key=lambda f: f.latency_ms)


def choose_min_max_utilization(
    forecasts: Sequence[PathForecast], app_class: str = "generic"
) -> PathForecast:
    """Sec. III's min-max objective on forecast utilization."""
    _check(forecasts)
    return min(forecasts, key=lambda f: f.bottleneck_utilization)


def choose_max_qoe(
    forecasts: Sequence[PathForecast], app_class: str = "generic"
) -> PathForecast:
    """Application-aware: highest predicted MOS for this app class.

    Each candidate's forecast rate/latency/jitter/loss is scored with
    the requesting flow's QoE model (:func:`repro.net.qoe.predicted_mos`);
    bandwidth breaks MOS ties so ``generic`` flows (flat MOS 3.0)
    degrade to max-bandwidth behaviour.
    """
    _check(forecasts)
    return max(
        forecasts,
        key=lambda f: (
            predicted_mos(
                app_class,
                f.mean_available,
                latency_ms=f.latency_ms,
                jitter_ms=f.jitter_ms,
                loss_rate=f.loss_rate,
            ),
            f.mean_available,
        ),
    )


@dataclass(frozen=True)
class ObjectiveSpec:
    """One registered objective: the name the CLI/PolicySpec use, a
    one-line description for help text, the chooser, whether the
    chooser reads the flow's app class, and whether backends without
    per-path telemetry solve it *jointly* — one :func:`assign_flows`
    throughput assignment per flow group — instead of calling the
    chooser per flow on static forecasts (see docs/QOE.md)."""

    name: str
    description: str
    chooser: Chooser
    app_aware: bool = False
    joint: bool = False


_REGISTRY: Dict[str, ObjectiveSpec] = {}


def register_objective(spec: ObjectiveSpec) -> ObjectiveSpec:
    """Add one objective; duplicate names are an error."""
    if spec.name in _REGISTRY:
        raise ValueError(f"objective {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_objective(name: str) -> ObjectiveSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown objective {name!r}; choose from {objective_names()}"
        ) from None


def objective_names() -> Tuple[str, ...]:
    """Registered objective names, sorted (CLI choices come from here)."""
    return tuple(sorted(_REGISTRY))


def list_objectives() -> List[ObjectiveSpec]:
    """All registered objectives, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


register_objective(
    ObjectiveSpec(
        name="max_bandwidth",
        description=(
            "most predicted available bandwidth (the paper's default)"
        ),
        chooser=choose_max_bandwidth,
        joint=True,
    )
)
register_objective(
    ObjectiveSpec(
        name="min_latency",
        description="lowest forecast path latency (Fig. 11)",
        chooser=choose_min_latency,
    )
)
register_objective(
    ObjectiveSpec(
        name="min_max_utilization",
        description="lowest forecast bottleneck utilization (Sec. III)",
        chooser=choose_min_max_utilization,
        joint=True,
    )
)
register_objective(
    ObjectiveSpec(
        name="max_qoe",
        description=(
            "highest predicted MOS for the flow's app class "
            "(video/voip/bulk models, see docs/QOE.md)"
        ),
        chooser=choose_max_qoe,
        app_aware=True,
    )
)


@dataclass(frozen=True)
class AssignmentResult:
    """Joint flow->tunnel assignment plus its predicted fluid rates."""

    assignment: Dict[str, str]  # flow name -> tunnel name
    rates: Dict[str, float]  # flow name -> predicted max-min rate (Mbps)
    total_mbps: float
    migrations: int


def assign_flows(
    current: Mapping[str, str],
    tunnel_paths: Mapping[str, Sequence[str]],
    capacities: Mapping[Tuple[str, str], float],
    max_enumerate: int = 6,
) -> AssignmentResult:
    """Jointly assign flows to tunnels (the Fig. 12 optimizer).

    Parameters
    ----------
    current:
        ``{flow_name: tunnel_name}`` — the present assignment (used to
        count migrations and as the greedy fallback's starting point).
    tunnel_paths:
        ``{tunnel_name: router path}`` for every candidate tunnel.
    capacities:
        Per-link capacities in Mbps; lookup tries the directed ``(a, b)``
        key first and falls back to the reversed key (see
        :func:`repro.net.fluid.max_min_fair`), so undirected single-entry
        maps share one budget between both directions while directed maps
        budget each direction separately.
    max_enumerate:
        Exhaustive search up to this many flows (tunnels^flows
        assignments scored); beyond it, a sequential greedy pass that
        re-scores after each flow (flows x tunnels assignments scored).

    Scoring is lexicographic: total max-min throughput, then the minimum
    per-flow rate, then fewest migrations (ties resolve toward stability).
    The first assignment to reach the best score wins, in ``product``
    order over the sorted flows and tunnels, and ``assignment`` keeps
    sorted flow order (exhaustive) or ``current``'s order (greedy).

    Scoring an assignment does not mean solving it.  Flows of one call
    differ only by name, so the fluid model is solved once per distinct
    vector of per-tunnel flow counts, and every other assignment with
    those counts reads the per-tunnel rates back.  With ``n`` flows on
    ``k`` tunnels that bounds the exhaustive branch by the
    ``C(n+k-1, k-1)`` compositions rather than ``k^n`` (six flows: 84
    solves for 4 tunnels, not 4 096; 462 for 6, not 46 656), and the
    greedy pass by ``n * (k - 1) + 1``, most of which repeat as well.
    A solve sees one claimant per used tunnel, not one flow per flow:
    the ``m`` flows on a tunnel become one flow crossing its path ``m``
    times, which both fills charge exactly as they charge the ``m``
    flows, so each flow's rate is its claimant's, bit for bit.
    """
    flows = sorted(current)
    tunnels = sorted(tunnel_paths)
    if not flows:
        raise ValueError("no flows to assign")
    if not tunnels:
        raise ValueError("no candidate tunnels")
    for tunnel in current.values():
        if tunnel not in tunnel_paths:
            raise KeyError(
                f"current assignment references unknown tunnel {tunnel!r}"
            )

    # flows differ only by name, so a solve depends only on how many sit
    # on each tunnel: per-tunnel rates, memoised on that count vector
    slot = {tunnel: i for i, tunnel in enumerate(tunnels)}
    solved: Dict[Tuple[int, ...], Dict[str, float]] = {}
    # each tunnel's links, built on first use: a short path raises where
    # the per-solve build raised, before any capacity is looked up
    tunnel_links: Dict[str, Tuple[Tuple[str, str], ...]] = {}

    def links_of(tunnel: str) -> Tuple[Tuple[str, str], ...]:
        links = tunnel_links.get(tunnel)
        if links is None:
            links = FluidFlow.from_path(tunnel, tunnel_paths[tunnel]).links
            tunnel_links[tunnel] = links
        return links

    def score(
        on: Sequence[str], counts: Tuple[int, ...], migrations: int
    ) -> Tuple[float, float, int]:
        """The key of the flows-ordered tunnel list ``on``, whose
        per-tunnel tallies are ``counts``."""
        tunnel_rate = solved.get(counts)
        if tunnel_rate is None:
            # one claimant per used tunnel, in first-use order, crossing
            # the path once per flow on it.  Exact because both fills
            # charge a link once per traversal with integer usage sums,
            # and a claimant gains each round's increment once, as every
            # member would.  Not max_min_fair(weights=): scaling the
            # increment by the count rounds differently.  Every claimant
            # is built before the solve, so a short path still raises
            # before a missing capacity, and the first missing link met
            # is the one the per-flow list met first.
            claimants = [
                FluidFlow(t, links_of(t) * counts[slot[t]])
                for t in dict.fromkeys(on)
            ]
            tunnel_rate = solved[counts] = max_min_fair(claimants, capacities)
        # must stay the builtin sum over the flows-ordered rates: the
        # score is lexicographic on this float, and neither a
        # hand-written += loop (Python 3.12's sum is compensated) nor
        # count x rate per tunnel rounds the same way.  The claimants
        # are exactly the tunnels in ``on``, so the minimum over the
        # solve is the minimum over the flows.
        return (
            sum(map(tunnel_rate.__getitem__, on)),
            min(tunnel_rate.values()),
            -migrations,
        )

    start = [current[f] for f in flows]
    chosen: Sequence[str] = start
    if len(flows) <= max_enumerate:
        best_key = None
        for combo in product(tunnels, repeat=len(flows)):
            key = score(
                combo,
                tuple(map(combo.count, tunnels)),
                sum(map(ne, combo, start)),
            )
            if best_key is None or key > best_key:
                best_key, chosen = key, combo
        order = flows
    else:
        # greedy: move one flow at a time to its best tunnel, re-scoring;
        # a trial re-points one slot of ``moved`` and two tallies in place
        moved = list(start)
        tally = [0] * len(tunnels)
        for t in moved:
            tally[slot[t]] += 1
        migrations = 0
        for i, home in enumerate(start):
            tally[slot[home]] -= 1
            best_key, best_tunnel = None, home
            for j, tunnel in enumerate(tunnels):
                moved[i] = tunnel
                tally[j] += 1
                key = score(moved, tuple(tally), migrations + (tunnel != home))
                tally[j] -= 1
                if best_key is None or key > best_key:
                    best_key, best_tunnel = key, tunnel
            moved[i] = best_tunnel
            tally[slot[best_tunnel]] += 1
            migrations += best_tunnel != home
        chosen, order = moved, list(current)
    tunnel_rate = solved[tuple(map(chosen.count, tunnels))]
    assignment = dict(zip(flows, chosen))
    rates = {f: tunnel_rate[t] for f, t in zip(flows, chosen)}
    return AssignmentResult(
        assignment={f: assignment[f] for f in order},
        rates=rates,
        total_mbps=total_throughput(rates),
        migrations=sum(map(ne, chosen, start)),
    )
