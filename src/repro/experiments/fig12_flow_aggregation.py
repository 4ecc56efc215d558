"""Fig. 12 — flow aggregation over multiple paths.

The paper's scenario: link caps MIA-SAO / SAO-AMS / CHI-AMS = 20 Mbps,
MIA-CHI = 10, MIA-CAL / CAL-CHI = 5.  Three TCP flows (distinct ToS) all
start on Tunnel 1 and aggregate to *less than 20 Mbps*; a bandwidth-aware
path-allocation request then moves one flow to Tunnel 2 and another to
Tunnel 3, lifting the aggregate to ≈30 Mbps.

This runner executes the packet-level version through the full framework
(telemetry -> assignment optimizer -> PBR re-binds) and cross-checks the
steady states against the closed-form max-min fluid model.

The environment (topology with Fig. 12 caps, framework stack, Tunnels
1-3, the three ToS-tagged flows) is assembled by the scenario suite —
this module replays the registered ``fig12-flow-aggregation`` scenario in
its staged two-phase form: measure on Tunnel 1, trigger one joint
re-optimization, measure again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.net.fluid import FluidFlow, max_min_fair, total_throughput
from repro.scenarios import PolicySpec, ScenarioRunner, TrafficSpec, get_scenario
from repro.topologies import TUNNEL1, TUNNEL2, TUNNEL3, fig12_capacities

from .plotting import ascii_timeseries, comparison_table

__all__ = ["Fig12Result", "run", "fluid_prediction", "scenario"]

PAPER_BEFORE_MBPS = 20.0  # "maximum throughput of less than 20 Mbps"
PAPER_AFTER_MBPS = 30.0  # "increase in total throughput (30 Mbps)"


@dataclass(frozen=True)
class Fig12Result:
    per_flow_before: Dict[str, float]
    per_flow_after: Dict[str, float]
    total_before: float
    total_after: float
    assignment: Dict[str, str]
    migrations: List[Tuple[float, str, str]]
    times: np.ndarray
    aggregate_series: np.ndarray
    fluid_before: float
    fluid_after: float


def fluid_prediction() -> Tuple[float, float]:
    """Closed-form steady states of the two phases."""
    caps = fig12_capacities()
    before = max_min_fair(
        [FluidFlow.from_path(f"f{i}", TUNNEL1) for i in range(1, 4)], caps
    )
    after = max_min_fair(
        [
            FluidFlow.from_path("f1", TUNNEL1),
            FluidFlow.from_path("f2", TUNNEL2),
            FluidFlow.from_path("f3", TUNNEL3),
        ],
        caps,
    )
    return total_throughput(before), total_throughput(after)


def scenario(phase_duration: float = 45.0, warmup: float = 35.0):
    """The Fig. 12 spec, rescaled to ``phase_duration`` per phase and
    with periodic re-optimization disabled (the staged replay triggers
    exactly one joint pass between the phases)."""
    base = get_scenario("fig12-flow-aggregation")
    return base.with_overrides(
        horizon=2 * phase_duration + 1.0,
        warmup=warmup,
        traffic=TrafficSpec("explicit", n_flows=3, params={"flows": [
            {"flow_name": f"f{i}", "src": "host1", "dst": "host2",
             "protocol": "tcp", "tos": tos, "duration": 2 * phase_duration}
            for i, tos in ((1, 32), (2, 64), (3, 96))
        ]}),
        policy=PolicySpec(reoptimize_every=None),
    )


def run(
    phase_duration: float = 45.0,
    warmup: float = 35.0,
) -> Fig12Result:
    runner = ScenarioRunner(scenario(phase_duration, warmup)).setup()
    sdn = runner.sdn
    sdn.run(until=warmup)
    runner.inject_traffic()
    # phase (i): everything on Tunnel 1
    phase1_end = warmup + phase_duration
    sdn.run(until=phase1_end)
    before = {
        f"f{i}": sdn.flow(f"f{i}").app.goodput_mbps(warmup + 10.0, phase1_end)
        for i in range(1, 4)
    }
    # phase (ii): one bandwidth-aware reallocation pass
    sdn.controller.reoptimize_now()
    phase2_end = phase1_end + phase_duration
    sdn.run(until=phase2_end + 1.0)
    after = {
        f"f{i}": sdn.flow(f"f{i}").app.goodput_mbps(phase1_end + 10.0, phase2_end)
        for i in range(1, 4)
    }
    migrations = [
        m for i in range(1, 4) for m in sdn.flow(f"f{i}").migrations
    ]

    # aggregate per-second series across flows
    series = {}
    for i in range(1, 4):
        t, mbps = sdn.flow(f"f{i}").app.interval_mbps()
        series[i] = (t, mbps)
    n = min(v[1].size for v in series.values())
    times = series[1][0][:n]
    aggregate = sum(series[i][1][:n] for i in range(1, 4))

    fluid_before, fluid_after = fluid_prediction()
    return Fig12Result(
        per_flow_before=before,
        per_flow_after=after,
        total_before=float(sum(before.values())),
        total_after=float(sum(after.values())),
        assignment={f"f{i}": sdn.flow(f"f{i}").tunnel for i in range(1, 4)},
        migrations=migrations,
        times=times,
        aggregate_series=aggregate,
        fluid_before=fluid_before,
        fluid_after=fluid_after,
    )


def summary(result: Fig12Result) -> str:
    plot = ascii_timeseries(
        [("aggregate Mbps", result.aggregate_series)],
        title="Fig. 12 — aggregate TCP throughput (3 flows)",
        height=10,
    )
    table = comparison_table(
        [
            ("total before split", f"<{PAPER_BEFORE_MBPS:.0f} Mbps",
             f"{result.total_before:.1f} Mbps"),
            ("total after split", f"~{PAPER_AFTER_MBPS:.0f} Mbps",
             f"{result.total_after:.1f} Mbps"),
            ("fluid model before/after", "-",
             f"{result.fluid_before:.1f} / {result.fluid_after:.1f} Mbps"),
            ("final assignment", "T1, T2, T3",
             ", ".join(sorted(result.assignment.values()))),
            ("migrations (PBR touches)", "2", str(len(result.migrations))),
        ]
    )
    per_flow = "  ".join(
        f"{k}:{result.per_flow_before[k]:.1f}->{result.per_flow_after[k]:.1f}"
        for k in sorted(result.per_flow_before)
    )
    return plot + "\n" + table + f"\n  per-flow Mbps: {per_flow}"
