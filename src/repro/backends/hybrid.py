"""``hybrid`` backend: packet-level foreground, fluid background.

The workload is split by flow class
(:func:`repro.scenarios.hybrid.split_requests`): foreground flows run
packet-level through the full framework exactly as in ``des``, while
background classes are solved as per-epoch fluid allocations and applied
to the links as background-utilization terms
(:mod:`repro.net.background`) that telemetry reports and packet
serialization honours — orders of magnitude more flows for a fraction of
the event count.

One backend serves both representations of the background.  By default
every background flow is its own variable in the fluid solve; with
``scenario.classes.aggregate_background`` the mice are collapsed into
:class:`~repro.scenarios.hybrid.BackgroundAggregate` flow classes first
(cost scales with tunnels x epochs instead of users x epochs — the scale
tier's 100k–1M flows).  Solve, packet run and result assembly are shared;
only the background's accounting differs, because per-flow identity
exists in one mode and not in the other.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net.background import install_background_schedule
from repro.net.fluid import link_capacities
from repro.net.qoe import aggregate_qoe
from repro.scenarios.hybrid import (
    aggregate_background,
    assign_class_paths,
    background_epochs,
    epoch_edges,
    solve_epochs,
)
from repro.scenarios.result import ScenarioResult

from .base import BackendCapabilities, ExecutionBackend, register_backend
from .des import des_drop_count, des_flow_metrics, des_qoe_samples
from .fluid import delivered_from, fluid_flows, solve_inputs

__all__ = ["HybridBackend"]


@register_backend
class HybridBackend(ExecutionBackend):
    """Foreground packet-level, background as per-epoch fluid load.

    The background class is solved *before* the packet run (it is a
    pure function of the workload and the failure plan), installed
    on the simulator as one coalesced load-update event per epoch
    edge, and the foreground then competes for what the mice left:
    packet serialization slows on loaded links and telemetry reports
    the aggregate, so Hecate's placement sees the background without
    ever paying packet-level cost for it.
    """

    name = "hybrid"

    def __init__(self) -> None:
        super().__init__()
        self._result: Optional[ScenarioResult] = None

    @classmethod
    def capabilities(cls) -> BackendCapabilities:
        return BackendCapabilities(
            name=cls.name,
            description="flow-class hybrid: packet-level foreground over "
            "per-epoch fluid background load",
            packet_level=True,
            fluid_model=True,
            uses_flow_classes=True,
            reports_sim_events=True,
            reports_telemetry=True,
        )

    def execute(self) -> None:
        context = self._bound_context()
        assert context.network is not None and context.sdn is not None
        assert self.scenario is not None
        scenario = self.scenario
        network = context.network
        horizon = scenario.horizon
        capacities = link_capacities(network)

        # foreground flows join the solve as claimants on their default
        # tunnels (an estimate of initial placement) so background rates
        # never hand the mice capacity the elephants are using; their
        # real throughput comes from the packet domain below
        paths, _ = assign_class_paths(
            network, context.tunnels, context.foreground, spread=False
        )
        aggregate = None
        bg_paths: Dict[str, Tuple[str, ...]] = {}
        if scenario.classes.aggregate_background:
            # no background flow ever exists individually: placement,
            # the solve and the accounting below work on class columns
            aggregate = aggregate_background(
                network, context.tunnels, context.background, horizon
            )
            bg_unplaced = aggregate.unplaced
            per_flow_requests = context.foreground
        else:
            bg_paths, bg_unplaced = assign_class_paths(
                network, context.tunnels, context.background, spread=True
            )
            paths.update(bg_paths)
            per_flow_requests = context.requests
        spans, rate_caps, probes = solve_inputs(
            per_flow_requests, paths, horizon
        )
        phase_fracs = tuple(p.at_frac for p in scenario.phases or ())
        edges = epoch_edges(
            horizon, context.failure_plan, phase_fracs, scenario.classes
        )
        solves = solve_epochs(
            spans,
            paths,
            capacities,
            rate_caps,
            probes,
            context.failure_plan,
            edges,
            aggregate,
        )
        epochs = background_epochs(solves, set(bg_paths), paths, aggregate)

        # ----- packet domain: warmup, foreground, failures, background
        context.sdn.run(until=scenario.warmup)
        context.inject_traffic()
        context.arm_failures()
        install_background_schedule(network, epochs, offset=network.sim.now)
        context.sdn.run(until=scenario.warmup + scenario.horizon)

        # ----- merge the two domains into one result
        per_flow, latencies = des_flow_metrics(context)
        # QoE: foreground flows score from what their apps measured
        # (same extraction as the des backend)
        qoe_samples = des_qoe_samples(context)
        # rates that enter min_flow_mbps next to the per-flow ones
        class_avg_mbps: List[float] = []
        # background share of total_throughput_mbps not in per_flow
        bg_span_avg_total = 0.0
        n_classes = 0
        if aggregate is None:
            bg_delivered, bg_outages = delivered_from(
                solves, {name for name in spans if name in bg_paths}
            )
            bg_flows = len(bg_delivered)
            background_mbps = float(sum(bg_delivered.values()) / horizon)
            bg_rates, bg_latencies, bg_samples = fluid_flows(
                context, bg_delivered, spans, paths, list(bg_delivered)
            )
            per_flow.update(bg_rates)
            latencies.extend(bg_latencies)
            qoe_samples.extend(bg_samples)
            mean_latency = float(np.mean(latencies)) if latencies else 0.0
            max_latency = float(max(latencies)) if latencies else 0.0
        else:
            # only the packet-level foreground has per-flow identity, so
            # only it is in per_flow_mbps and QoE-scored — design scale
            # scenarios so classified (video/voip/bulk) flows match the
            # foreground globs and generic mice form the background
            n_classes = len(aggregate.class_paths)
            bg_flows = aggregate.members
            delivered_c = np.zeros(n_classes)
            bg_outages = 0
            for solve in solves:
                delivered_c += solve.class_rates * (solve.t1 - solve.t0)
                bg_outages += solve.blacked_members
            background_mbps = float(delivered_c.sum() / horizon)
            member_seconds = aggregate.member_seconds()
            # a class's average per-mouse rate: delivered Mbps-seconds over
            # summed member-active seconds — enters min_flow_mbps so a
            # starved class is as visible as a starved flow
            class_avg_mbps = [
                float(delivered_c[k] / member_seconds[k])
                for k in range(n_classes)
                if member_seconds[k] > 0.0
            ]
            # total_throughput keeps the per-flow semantic (sum of
            # span-averaged per-flow rates): each class contributes its
            # average member rate times its positive-span member count, so
            # the two modes report comparable totals.  The horizon-
            # averaged background total is background_mbps above.
            spanned_members = np.bincount(
                aggregate.class_of,
                weights=(aggregate.ends > aggregate.starts),
                minlength=n_classes,
            )
            bg_span_avg_total = float(
                sum(
                    spanned_members[k] * delivered_c[k] / member_seconds[k]
                    for k in range(n_classes)
                    if member_seconds[k] > 0.0
                )
            )
            # latency means weight each class by its member count, so the
            # distribution matches what per-flow mode would report
            members_per_class = np.bincount(
                aggregate.class_of, minlength=n_classes
            )
            class_delays = [
                network.path_delay_ms(list(path))
                for path in aggregate.class_paths
            ]
            latency_sum = float(sum(latencies)) + float(
                sum(
                    delay * int(count)
                    for delay, count in zip(class_delays, members_per_class)
                )
            )
            latency_n = len(latencies) + int(members_per_class.sum())
            mean_latency = latency_sum / latency_n if latency_n else 0.0
            populated_delays = [
                delay
                for delay, count in zip(class_delays, members_per_class)
                if count
            ]
            max_latency = float(max(latencies + populated_delays, default=0.0))
        migrations = sum(
            len(record.migrations)
            for record in context.sdn.controller.flows.values()
        )
        reconfigurations = sum(
            policy.reconfigurations
            for policy in context.sdn.router_config.policies.values()
        )
        flow_rates = list(per_flow.values()) + class_avg_mbps
        qoe_per_class, mean_qoe, qoe_flows = aggregate_qoe(qoe_samples)
        self._result = ScenarioResult(
            scenario=scenario.name,
            backend="hybrid",
            seed=context.seed,
            horizon_s=horizon,
            warmup_s=scenario.warmup,
            tunnels=len(context.tunnels),
            offered=len(context.requests),
            placed=context.placed + bg_flows,
            rejected=context.rejected + bg_unplaced,
            per_flow_mbps=per_flow,
            total_throughput_mbps=float(sum(per_flow.values()))
            + bg_span_avg_total,
            min_flow_mbps=float(min(flow_rates)) if flow_rates else 0.0,
            mean_latency_ms=mean_latency,
            max_latency_ms=max_latency,
            drops=des_drop_count(context) + bg_outages,
            migrations=migrations,
            reconfigurations=reconfigurations,
            failure_events=len(context.failure_plan),
            sim_events=network.sim.events_processed,
            telemetry_samples=context.sdn.telemetry.db.total_samples(),
            background_flows=bg_flows,
            background_classes=n_classes,
            background_mbps=background_mbps,
            mean_qoe=mean_qoe,
            qoe_flows=qoe_flows,
            qoe_per_class=qoe_per_class,
        )

    def collect(self) -> ScenarioResult:
        if self._result is None:
            raise RuntimeError("hybrid backend: call execute() first")
        return self._result
