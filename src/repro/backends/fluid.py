"""``fluid`` backend: closed-form epoch-sliced max-min steady states.

The horizon is sliced into capacity epochs at every flow start/stop and
failure event, the joint flow->tunnel assignment is solved with the same
candidate rule the packet-level Controller uses
(:func:`repro.framework.controller.select_candidates` +
:func:`repro.hecate.objectives.assign_flows`), and each epoch's max-min
fair rates come from :func:`repro.net.fluid.max_min_fair` — the
steady state the packet level should approximate.

``solve_inputs``, ``delivered_from`` and ``fluid_flows`` are module
functions because the other backends share them: the hybrid backend
solves and scores its per-flow background with all three, and the
emulation mock driver solves a command plan's host paths with the first
two (``solve_inputs`` reads plan commands and flow requests alike).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.framework.controller import select_candidates
from repro.framework.scheduler import FlowRequest
from repro.hecate.objectives import PathForecast, assign_flows, get_objective
from repro.net.fluid import link_capacities
from repro.net.qoe import FlowQoSSample, aggregate_qoe
from repro.scenarios.hybrid import EpochSolve, quantize_edges, solve_epochs
from repro.scenarios.result import ScenarioResult

from .base import (
    BackendCapabilities,
    ExecutionBackend,
    RunContext,
    register_backend,
)

if TYPE_CHECKING:
    from .emulation import FlowCommand

__all__ = [
    "FluidBackend",
    "assign_fluid",
    "solve_inputs",
    "delivered_from",
    "fluid_flows",
]


def _bottleneck_mbps(
    path: Tuple[str, ...],
    capacities: Dict[Tuple[str, str], float],
) -> float:
    """Min configured capacity along a router path (directed lookup
    with the reversed-key fallback max_min_fair uses)."""
    caps = [
        capacities.get((a, b), capacities.get((b, a), 0.0))
        for a, b in zip(path[:-1], path[1:])
    ]
    return min(caps) if caps else 0.0


def assign_fluid(
    context: RunContext,
    capacities: Dict[Tuple[str, str], float],
) -> Tuple[Dict[str, Tuple[str, ...]], int, int]:
    """Assign flows to tunnels per (ingress, egress) group, honouring
    the scenario objective as the registry declares it.  A *joint*
    objective (:attr:`~repro.hecate.objectives.ObjectiveSpec.joint`)
    solves the group's throughput assignment with ``assign_flows``.
    Any other runs its chooser per flow — each app class may rank the
    same candidates differently — on static forecasts in candidate
    order: rate = the tunnel's bottleneck shared across the group,
    latency = the path's propagation delay, utilization, jitter and
    loss zero (the optimistic no-queue model ``fluid_flows`` reports
    with).  Unknown objectives raise the registry's ``KeyError``.

    Returns (flow -> router path, migrations off the default tunnel,
    unplaceable-flow count)."""
    assert context.network is not None
    network = context.network
    by_name = {name: path for name, _, path in context.tunnels}
    objective = get_objective(context.scenario.policy.objective)
    groups: Dict[Tuple[str, str], List[FlowRequest]] = {}
    for request in context.requests:
        pair = (
            network.edge_router_of(request.src),
            network.edge_router_of(request.dst),
        )
        groups.setdefault(pair, []).append(request)
    paths: Dict[str, Tuple[str, ...]] = {}
    migrations = 0
    unplaced = 0
    for (ingress, egress), members in groups.items():
        # the Controller's own candidate rule, so fluid-vs-DES
        # differences come from modelling, never placement policy
        candidates = select_candidates(by_name, ingress, egress)
        if not candidates:
            unplaced += len(members)
            continue
        if not objective.joint:
            share = len(members)
            forecasts = [
                PathForecast(
                    name=name,
                    available_mbps=np.array(
                        [_bottleneck_mbps(by_name[name], capacities) / share]
                    ),
                    latency_ms=network.path_delay_ms(list(by_name[name])),
                )
                for name in candidates
            ]
            for request in members:
                best = objective.chooser(forecasts, request.app_class).name
                paths[request.flow_name] = by_name[best]
                migrations += 1 if best != candidates[0] else 0
            continue
        current = {r.flow_name: candidates[0] for r in members}
        result = assign_flows(
            current=current,
            tunnel_paths={name: by_name[name] for name in candidates},
            capacities=capacities,
        )
        migrations += result.migrations
        for flow_name, tunnel_name in result.assignment.items():
            paths[flow_name] = by_name[tunnel_name]
    return paths, migrations, unplaced


def solve_inputs(
    requests: Sequence[Union[FlowRequest, "FlowCommand"]],
    paths: Mapping[str, Tuple[str, ...]],
    horizon: float,
) -> Tuple[Dict[str, Tuple[float, float]], Dict[str, float], Set[str]]:
    """The epoch solver's workload view of ``requests``: per-flow
    horizon-clamped spans (placed flows only, in offered order), CBR
    rate caps and the ICMP probe set.  Callers pass the flows that exist
    per-flow (aggregate-mice mode: the foreground only).

    ICMP probes send a packet per second — inelastic, negligible
    load; modelling them as elastic flows would credit them with
    the whole path capacity (DES reports them at 0 Mbps too).
    """
    spans = {
        r.flow_name: (
            min(r.start_at, horizon),
            min(r.start_at + r.duration, horizon),
        )
        for r in requests
        if r.flow_name in paths
    }
    rate_caps = {
        r.flow_name: r.rate_mbps
        for r in requests
        if r.protocol == "udp" and r.rate_mbps
    }
    probes = {r.flow_name for r in requests if r.protocol == "icmp"}
    return spans, rate_caps, probes


def delivered_from(
    solves: Sequence[EpochSolve],
    names: Set[str],
) -> Tuple[Dict[str, float], int]:
    """Mbps-seconds delivered per flow in ``names`` across all
    solved epochs, plus that class's (flow, epoch) outage count.

    ``names`` is a set, so the result dict is built in *sorted* order:
    downstream ``sum()``s over it must not depend on str-hash ordering
    (pre-extraction they did, which made ``total_throughput_mbps`` /
    ``background_mbps`` wobble in the last ulp with PYTHONHASHSEED)."""
    delivered: Dict[str, float] = {name: 0.0 for name in sorted(names)}
    outages = 0
    for solve in solves:
        outages += sum(1 for n in solve.blacked if n in names)
        for name, rate in solve.rates.items():
            if name in names:
                delivered[name] += rate * solve.overlaps[name]
    return delivered, outages


def fluid_flows(
    context: RunContext,
    delivered: Mapping[str, float],
    spans: Mapping[str, Tuple[float, float]],
    paths: Mapping[str, Tuple[str, ...]],
    names: Sequence[str],
) -> Tuple[Dict[str, float], List[float], List[Tuple[str, FlowQoSSample]]]:
    """Each named flow's span-averaged rate, path delay and QoE sample,
    in ``names`` order (the callers' means and QoE folds are
    order-sensitive).

    The fluid model has no queues, so each flow's sample is its epoch-
    average rate plus the path's propagation delay with zero jitter and
    loss — an *optimistic* bound relative to DES (documented agreement
    bounds live in tests/scenarios/test_qoe_scenarios.py and
    docs/QOE.md).
    """
    assert context.network is not None
    classes = {r.flow_name: r.app_class for r in context.requests}
    per_flow: Dict[str, float] = {}
    latencies: List[float] = []
    samples: List[Tuple[str, FlowQoSSample]] = []
    for name in names:
        start, end = spans[name]
        rate = delivered[name] / (end - start) if end > start else 0.0
        delay = context.network.path_delay_ms(list(paths[name]))
        per_flow[name] = rate
        latencies.append(delay)
        samples.append(
            (
                classes.get(name, "generic"),
                FlowQoSSample(rate_mbps=rate, latency_ms=delay),
            )
        )
    return per_flow, latencies, samples


@register_backend
class FluidBackend(ExecutionBackend):
    """Closed-form evaluation: epoch-sliced max-min steady states."""

    name = "fluid"

    def __init__(self) -> None:
        super().__init__()
        self._result: Optional[ScenarioResult] = None

    @classmethod
    def capabilities(cls) -> BackendCapabilities:
        return BackendCapabilities(
            name=cls.name,
            description="closed-form fluid model: epoch-sliced max-min "
            "fair steady states, no packet events",
            fluid_model=True,
        )

    def execute(self) -> None:
        context = self._bound_context()
        assert context.network is not None and self.scenario is not None
        scenario = self.scenario
        horizon = scenario.horizon
        capacities = link_capacities(context.network)
        paths, migrations, unplaced = assign_fluid(context, capacities)
        spans, rate_caps, probes = solve_inputs(
            context.requests, paths, horizon
        )
        phase_fracs = tuple(p.at_frac for p in scenario.phases or ())

        boundaries = {0.0, horizon}
        boundaries.update(t for span in spans.values() for t in span)
        boundaries.update(
            e.at for e in context.failure_plan if 0.0 < e.at < horizon
        )
        # phase transitions are epoch edges even when a phase offers no
        # flows (the fluid model re-solves at every transition)
        boundaries.update(f * horizon for f in phase_fracs if 0.0 < f < 1.0)
        # exact flow edges while they fit the epoch budget; the coalesced
        # grid beyond it (scale-tier flow counts)
        edges = quantize_edges(
            boundaries,
            horizon,
            context.failure_plan,
            phase_fracs,
            scenario.classes,
        )
        solves = solve_epochs(
            spans,
            paths,
            capacities,
            rate_caps,
            probes,
            context.failure_plan,
            edges,
        )
        delivered, outages = delivered_from(solves, set(spans))

        per_flow, latencies, samples = fluid_flows(
            context, delivered, spans, paths, list(spans)
        )
        qoe_per_class, mean_qoe, qoe_flows = aggregate_qoe(samples)
        self._result = ScenarioResult(
            scenario=scenario.name,
            backend="fluid",
            seed=context.seed,
            horizon_s=horizon,
            warmup_s=0.0,
            tunnels=len(context.tunnels),
            offered=len(context.requests),
            placed=len(spans),
            rejected=unplaced,
            per_flow_mbps=per_flow,
            total_throughput_mbps=float(sum(delivered.values()) / horizon),
            min_flow_mbps=float(min(per_flow.values())) if per_flow else 0.0,
            mean_latency_ms=float(np.mean(latencies)) if latencies else 0.0,
            max_latency_ms=float(max(latencies)) if latencies else 0.0,
            drops=outages,
            migrations=migrations,
            reconfigurations=0,
            failure_events=len(context.failure_plan),
            mean_qoe=mean_qoe,
            qoe_flows=qoe_flows,
            qoe_per_class=qoe_per_class,
        )

    def collect(self) -> ScenarioResult:
        if self._result is None:
            raise RuntimeError("fluid backend: call execute() first")
        return self._result
