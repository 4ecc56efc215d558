"""Named scenario registry: the evaluation suite that ships with the repo.

The **static** built-ins cover the cross product the related work
evaluates over — topology families (line / ring / fat tree / random
geometric / random WAN / the paper's Global P4 Lab), traffic patterns
(uniform / hotspot / bursty UDP / elephant-mice / the paper's explicit
flow sets) and failure models (healthy / link flap / node failure).  The
**dynamic** built-ins (see :mod:`repro.scenarios.dynamic`) add
time-varying programs — diurnal sinusoids, flash crowds, elephant
arrival/departure schedules, rolling regional outages — so the
controller's re-optimization tick is stressed by *changing* conditions,
the regime predictive-routing work (NeuRoute, AMPF) evaluates under.
The **scale** built-ins (``tags=("scale",)``) carry 2k-10k flows each
and default to the ``hybrid`` backend — a few packet-level elephants
over a fluid sea of mice (see :mod:`repro.scenarios.hybrid`).  Every
scenario runs on every backend::

    repro scenarios list
    repro scenarios run ring-link-flap
    repro scenarios run ring-diurnal --backend fluid
    repro scenarios run scale-fat-tree-2k            # hybrid by default
    repro scenarios sweep fat-tree-flash-crowd --seeds 0-4 --jobs 4

Register your own with :func:`register` (e.g. from a notebook or a
plugin module); names must be unique.
"""

from __future__ import annotations

from typing import Dict, List

from .dynamic import (
    TrafficPhase,
    diurnal_phases,
    elephant_schedule_phases,
    flash_crowd_phases,
)
from .spec import (
    ChurnSpec,
    FailureSpec,
    FlowClassSpec,
    PolicySpec,
    Scenario,
    ServiceWorkload,
    TopologySpec,
    TrafficSpec,
)

__all__ = [
    "register",
    "get_scenario",
    "list_scenarios",
    "SCENARIOS",
    "register_workload",
    "get_workload",
    "list_workloads",
    "SERVICE_WORKLOADS",
]

SCENARIOS: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add one scenario to the registry; duplicate names are an error."""
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None


def list_scenarios(include_scale: bool = True) -> List[Scenario]:
    """All registered scenarios, sorted by name.

    ``include_scale=False`` drops the ``"scale"``-tagged tier — the
    thousands-of-flows scenarios sized for the hybrid backend, which
    registry-wide loops (``--all`` sweeps, whole-suite tests, the
    benchmark matrix) must not drag through packet-level or per-flow
    fluid execution by accident.
    """
    scenarios = [SCENARIOS[name] for name in sorted(SCENARIOS)]
    if not include_scale:
        scenarios = [s for s in scenarios if "scale" not in s.tags]
    return scenarios


# --------------------------------------------------------------- built-ins

register(
    Scenario(
        name="line-baseline",
        description=(
            "Single-path sanity floor: three-router line, uniform TCP"
        ),
        topology=TopologySpec("line", {"n_routers": 3, "rate_mbps": 50.0}),
        traffic=TrafficSpec("uniform", n_flows=3),
        horizon=30.0,
    )
)

register(
    Scenario(
        name="ring-uniform",
        description=(
            "Six-router ring, two host pairs, uniform TCP over the "
            "two disjoint directions"
        ),
        topology=TopologySpec(
            "ring",
            {
                "n_routers": 6,
                "n_host_pairs": 2,
                "rate_mbps": 50.0,
                "host_rate_mbps": 100.0,
            },
        ),
        traffic=TrafficSpec("uniform", n_flows=6),
        horizon=40.0,
    )
)

register(
    Scenario(
        name="fat-tree-hotspot",
        description=(
            "k=4 fat tree with incast: most flows converge on one "
            "host, the ECMP core absorbs what it can"
        ),
        topology=TopologySpec(
            "fat_tree",
            {
                "k": 4,
                "n_hosts": 4,
                "rate_mbps": 25.0,
                "host_rate_mbps": 50.0,
            },
        ),
        traffic=TrafficSpec("hotspot", n_flows=6, params={"hot_host": "h1"}),
        horizon=30.0,
    )
)

register(
    Scenario(
        name="geo-mesh-uniform",
        description=(
            "Random geometric WAN (distance-proportional delays), "
            "uniform TCP between peripheral hosts"
        ),
        topology=TopologySpec(
            "random_geometric",
            {
                "n_routers": 10,
                "n_host_pairs": 2,
                "seed": 7,
                "rate_mbps": 50.0,
                "host_rate_mbps": 100.0,
            },
        ),
        traffic=TrafficSpec("uniform", n_flows=5),
        horizon=40.0,
    )
)

register(
    Scenario(
        name="wan-elephant-mice",
        description=(
            "Random WAN with a heavy-tailed mix: long-lived elephants "
            "plus short mice flows"
        ),
        topology=TopologySpec(
            "random_wan",
            {
                "n_routers": 8,
                "extra_edges": 5,
                "seed": 11,
                "n_host_pairs": 2,
                "rate_mbps": 50.0,
            },
        ),
        traffic=TrafficSpec("elephant_mice", n_flows=8),
        horizon=40.0,
    )
)

register(
    Scenario(
        name="p4lab-hotspot",
        description=(
            "The paper's Global P4 Lab under Fig. 12 link caps with "
            "every flow converging on host2 behind AMS"
        ),
        topology=TopologySpec("p4lab_fig12"),
        traffic=TrafficSpec(
            "hotspot", n_flows=5, params={"hot_host": "host2"}
        ),
        policy=PolicySpec(reoptimize_every=5.0),
        horizon=45.0,
    )
)

register(
    Scenario(
        name="p4lab-bursty-udp",
        description=(
            "Global P4 Lab under Fig. 12 caps, hammered by waves of "
            "CBR UDP that overrun the 20 Mbps bottleneck"
        ),
        topology=TopologySpec("p4lab_fig12"),
        traffic=TrafficSpec(
            "bursty", n_flows=6, params={"n_bursts": 3, "rate_mbps": 15.0}
        ),
        horizon=45.0,
    )
)

register(
    Scenario(
        name="ring-link-flap",
        description=(
            "Ring whose busiest arc flaps mid-run: the self-driving "
            "loop must steer flows to the surviving direction"
        ),
        topology=TopologySpec(
            "ring",
            {
                "n_routers": 6,
                "n_host_pairs": 2,
                "rate_mbps": 50.0,
                "host_rate_mbps": 100.0,
            },
        ),
        traffic=TrafficSpec("uniform", n_flows=4),
        failures=FailureSpec("link_flap", {"link": ("r0", "r1")}),
        policy=PolicySpec(reoptimize_every=4.0),
        horizon=40.0,
    )
)

register(
    Scenario(
        name="geo-node-failure",
        description=(
            "Random geometric WAN losing a whole router mid-run; "
            "FIBs and tunnels must route around the hole"
        ),
        topology=TopologySpec(
            "random_geometric",
            {
                "n_routers": 10,
                "n_host_pairs": 2,
                "seed": 7,
                "rate_mbps": 50.0,
                "host_rate_mbps": 100.0,
            },
        ),
        traffic=TrafficSpec("uniform", n_flows=4),
        failures=FailureSpec("node_down", {}),
        policy=PolicySpec(reoptimize_every=4.0),
        horizon=40.0,
    )
)

register(
    Scenario(
        name="fig11-latency-migration",
        description=(
            "Paper Fig. 11: ICMP probe on the Global P4 Lab with the "
            "20 ms tc delay on MIA-SAO; min-latency objective steers "
            "it onto Tunnel 2 (the staged two-phase replay lives in "
            "repro.experiments.fig11_latency_migration)"
        ),
        topology=TopologySpec(
            "global_p4_lab", {"delays": {("MIA", "SAO"): 21.0}}
        ),
        traffic=TrafficSpec(
            "explicit",
            n_flows=1,
            params={
                "flows": [
                    {
                        "flow_name": "ping1",
                        "src": "host1",
                        "dst": "host2",
                        "protocol": "icmp",
                        "duration": 120.0,
                    },
                ]
            },
        ),
        policy=PolicySpec(objective="min_latency"),
        tunnels=(
            ("T1", 1, ("MIA", "SAO", "AMS")),
            ("T2", 2, ("MIA", "CHI", "AMS")),
        ),
        horizon=120.0,
        warmup=2.0,
    )
)

register(
    Scenario(
        name="fig12-flow-aggregation",
        description=(
            "Paper Fig. 12: three TCP flows start on Tunnel 1 under "
            "the Fig. 12 caps; periodic re-optimization spreads them "
            "over Tunnels 1-3 for ~30 Mbps aggregate (the staged "
            "replay lives in repro.experiments.fig12_flow_aggregation)"
        ),
        topology=TopologySpec("p4lab_fig12"),
        traffic=TrafficSpec(
            "explicit",
            n_flows=3,
            params={
                "flows": [
                    {
                        "flow_name": f"f{i}",
                        "src": "host1",
                        "dst": "host2",
                        "protocol": "tcp",
                        "tos": tos,
                        "duration": 90.0,
                    }
                    for i, tos in ((1, 32), (2, 64), (3, 96))
                ]
            },
        ),
        policy=PolicySpec(reoptimize_every=5.0),
        tunnels=(
            ("T1", 1, ("MIA", "SAO", "AMS")),
            ("T2", 2, ("MIA", "CHI", "AMS")),
            ("T3", 3, ("MIA", "CAL", "CHI", "AMS")),
        ),
        horizon=90.0,
        warmup=35.0,
    )
)

register(
    Scenario(
        name="qoe-mixed-steady",
        description=(
            "The QoE acceptance case: video/VoIP/bulk between host1 "
            "and host2 over a fat far path (12 Mbps, 300 ms) and a "
            "thin near path (1 Mbps, 2 ms); max_bandwidth herds "
            "everything onto the fat pipe, max_qoe sends VoIP to the "
            "low-latency tunnel and keeps the rate-hungry classes on "
            "the fat one"
        ),
        topology=TopologySpec(
            "global_p4_lab",
            {
                "rates": {
                    ("MIA", "SAO"): 12.0,
                    ("SAO", "AMS"): 12.0,
                    ("MIA", "CHI"): 1.0,
                    ("CHI", "AMS"): 1.0,
                },
                "delays": {
                    ("MIA", "SAO"): 150.0,
                    ("SAO", "AMS"): 150.0,
                },
            },
        ),
        traffic=TrafficSpec(
            "app_mix",
            n_flows=5,
            params={"pairs": [("host1", "host2")]},
        ),
        policy=PolicySpec(objective="max_qoe"),
        tunnels=(
            ("T1", 1, ("MIA", "SAO", "AMS")),
            ("T2", 2, ("MIA", "CHI", "AMS")),
        ),
        horizon=20.0,
        warmup=5.0,
    )
)

register(
    Scenario(
        name="qoe-mixed-flash",
        description=(
            "Mixed app classes on a six-router ring riding out a "
            "video flash crowd: steady video/VoIP/bulk, then a surge "
            "of video sessions for the middle fifth of the run, then "
            "recovery — QoE-aware placement under changing congestion"
        ),
        topology=TopologySpec(
            "ring",
            {
                "n_routers": 6,
                "n_host_pairs": 2,
                "rate_mbps": 50.0,
                "host_rate_mbps": 100.0,
            },
        ),
        phases=(
            TrafficPhase(0.0, TrafficSpec("app_mix", n_flows=5), "steady"),
            TrafficPhase(
                0.4,
                TrafficSpec(
                    "app_mix",
                    n_flows=8,
                    params={"mix": {"video": 6, "voip": 1, "bulk": 1}},
                ),
                "video-surge",
            ),
            TrafficPhase(0.6, TrafficSpec("app_mix", n_flows=5), "recover"),
        ),
        policy=PolicySpec(objective="max_qoe", reoptimize_every=5.0),
        horizon=45.0,
    )
)

register(
    Scenario(
        name="line-link-flap",
        description=(
            "Worst case for the optimizer: the only path flaps, so "
            "drops are unavoidable and recovery is pure FIB/PBR "
            "healing"
        ),
        topology=TopologySpec("line", {"n_routers": 3, "rate_mbps": 50.0}),
        traffic=TrafficSpec("uniform", n_flows=2),
        failures=FailureSpec("link_flap", {"link": ("r0", "r1")}),
        horizon=30.0,
    )
)


# ----------------------------------------------------- dynamic built-ins
# Time-varying programs (see repro.scenarios.dynamic): phase timelines
# that change the offered load mid-run, so the closed loop must keep
# re-deciding instead of converging once.

register(
    Scenario(
        name="ring-diurnal",
        description=(
            "Six-router ring under one sinusoidal day: load climbs "
            "from 2 to 8 flows mid-run and ebbs away; the periodic "
            "re-optimizer rides the swell"
        ),
        topology=TopologySpec(
            "ring",
            {
                "n_routers": 6,
                "n_host_pairs": 2,
                "rate_mbps": 50.0,
                "host_rate_mbps": 100.0,
            },
        ),
        phases=diurnal_phases(n_phases=6, peak_flows=8, trough_flows=2),
        policy=PolicySpec(reoptimize_every=5.0),
        horizon=60.0,
    )
)

register(
    Scenario(
        name="fat-tree-flash-crowd",
        description=(
            "k=4 fat tree hit by a flash crowd: steady background, "
            "then a 10-flow incast spike on h1 for a fifth of the "
            "run, then recovery"
        ),
        topology=TopologySpec(
            "fat_tree",
            {
                "k": 4,
                "n_hosts": 4,
                "rate_mbps": 25.0,
                "host_rate_mbps": 50.0,
            },
        ),
        phases=flash_crowd_phases(
            base_flows=3,
            spike_flows=10,
            spike_at=0.4,
            spike_len=0.2,
            hot_host="h1",
        ),
        policy=PolicySpec(reoptimize_every=5.0),
        horizon=45.0,
    )
)

register(
    Scenario(
        name="wan-elephant-schedule",
        description=(
            "Random WAN where the heavy-hitter set changes on a "
            "schedule: waves of 2, then 4, then 1 elephants arrive "
            "and depart, each with a mice background"
        ),
        topology=TopologySpec(
            "random_wan",
            {
                "n_routers": 8,
                "extra_edges": 5,
                "seed": 11,
                "n_host_pairs": 2,
                "rate_mbps": 50.0,
            },
        ),
        phases=elephant_schedule_phases(waves=(2, 4, 1), mice_per_wave=3),
        policy=PolicySpec(reoptimize_every=5.0),
        horizon=60.0,
    )
)

register(
    Scenario(
        name="geo-rolling-failures",
        description=(
            "Random geometric WAN with a regional outage rolling "
            "across three links while the load doubles mid-run; "
            "re-routing chases a moving hole"
        ),
        topology=TopologySpec(
            "random_geometric",
            {
                "n_routers": 10,
                "n_host_pairs": 2,
                "seed": 7,
                "rate_mbps": 50.0,
                "host_rate_mbps": 100.0,
            },
        ),
        phases=(
            TrafficPhase(0.0, TrafficSpec("uniform", n_flows=3), "steady"),
            TrafficPhase(0.5, TrafficSpec("uniform", n_flows=6), "surge"),
        ),
        failures=FailureSpec("rolling", {"count": 3}),
        policy=PolicySpec(reoptimize_every=4.0),
        horizon=50.0,
    )
)

register(
    Scenario(
        name="p4lab-diurnal-hotspot",
        description=(
            "The paper's Global P4 Lab under Fig. 12 caps where the "
            "hot egress comes and goes: uniform trough, host2 "
            "hotspot peak, twice over the horizon"
        ),
        topology=TopologySpec("p4lab_fig12"),
        phases=(
            TrafficPhase(0.0, TrafficSpec("uniform", n_flows=2), "trough-1"),
            TrafficPhase(
                0.25,
                TrafficSpec(
                    "hotspot", n_flows=5, params={"hot_host": "host2"}
                ),
                "peak-1",
            ),
            TrafficPhase(0.5, TrafficSpec("uniform", n_flows=2), "trough-2"),
            TrafficPhase(
                0.75,
                TrafficSpec(
                    "hotspot", n_flows=4, params={"hot_host": "host2"}
                ),
                "peak-2",
            ),
        ),
        policy=PolicySpec(reoptimize_every=5.0),
        horizon=60.0,
    )
)

register(
    Scenario(
        name="ring-flash-udp",
        description=(
            "Ring with steady TCP that a CBR UDP burst tramples "
            "mid-run: elastic flows must shrink around the rigid "
            "wave, then reclaim the capacity"
        ),
        topology=TopologySpec(
            "ring",
            {
                "n_routers": 6,
                "n_host_pairs": 2,
                "rate_mbps": 50.0,
                "host_rate_mbps": 100.0,
            },
        ),
        phases=(
            TrafficPhase(0.0, TrafficSpec("uniform", n_flows=3), "tcp-base"),
            TrafficPhase(
                0.4,
                TrafficSpec(
                    "bursty",
                    n_flows=6,
                    params={"n_bursts": 2, "rate_mbps": 20.0},
                ),
                "udp-wave",
            ),
            TrafficPhase(0.7, TrafficSpec("uniform", n_flows=3), "reclaim"),
        ),
        policy=PolicySpec(reoptimize_every=4.0),
        horizon=40.0,
    )
)

register(
    Scenario(
        name="wan-diurnal-flap",
        description=(
            "Random WAN with diurnal load riding out a periodically "
            "flapping link — time-varying traffic and failures at "
            "once"
        ),
        topology=TopologySpec(
            "random_wan",
            {
                "n_routers": 8,
                "extra_edges": 5,
                "seed": 11,
                "n_host_pairs": 2,
                "rate_mbps": 50.0,
            },
        ),
        phases=diurnal_phases(n_phases=4, peak_flows=6, trough_flows=2),
        failures=FailureSpec(
            "link_flap", {"at": 10.0, "restore_at": 20.0, "period": 20.0}
        ),
        policy=PolicySpec(reoptimize_every=5.0),
        horizon=60.0,
    )
)


# ------------------------------------------------------- scale built-ins
# The hybrid backend's tier (tags=("scale",)): thousands of flows per
# scenario — a few packet-level elephants over a fluid sea of mice.
# Registry-wide tools exclude these by default (list_scenarios
# include_scale=False / the CLI's --all); run them explicitly:
#
#     repro scenarios run scale-fat-tree-2k            # hybrid backend
#     repro scenarios sweep scale-geo-4k --seeds 0-2 --jobs 4
#
# Pure-DES and pure-fluid runs remain possible (--backend des|fluid) and
# are what the hybrid speedup benchmark measures against.  The ">=10x"
# in the 2k description below is not the enforced floor: that text is
# inside the pinned scenario fingerprint and stays as it is, the floor
# is SPEEDUP_FLOOR in benchmarks/test_bench_hybrid_scale.py.

register(
    Scenario(
        name="scale-fat-tree-2k",
        description=(
            "k=4 fat tree carrying 2 000 flows: 8 TCP elephants "
            "(packet level) over a sea of CBR mice (fluid "
            "background) — the smallest scale-tier workload and "
            "the >=10x speedup benchmark case"
        ),
        topology=TopologySpec(
            "fat_tree",
            {
                "k": 4,
                "n_hosts": 16,
                "rate_mbps": 25.0,
                "host_rate_mbps": 50.0,
            },
        ),
        traffic=TrafficSpec(
            "scale_mix",
            n_flows=2000,
            params={"n_elephants": 8, "mice_rate_mbps": 0.5},
        ),
        backend="hybrid",
        horizon=30.0,
        tags=("scale",),
    )
)

register(
    Scenario(
        name="scale-fat-tree-5k",
        description=(
            "k=6 fat tree under 5 000 flows: 12 elephants spread "
            "over 24 hosts while mice waves keep every edge uplink "
            "warm"
        ),
        topology=TopologySpec(
            "fat_tree",
            {
                "k": 6,
                "n_hosts": 24,
                "rate_mbps": 40.0,
                "host_rate_mbps": 100.0,
            },
        ),
        traffic=TrafficSpec(
            "scale_mix",
            n_flows=5000,
            params={"n_elephants": 12, "mice_rate_mbps": 0.5},
        ),
        backend="hybrid",
        horizon=30.0,
        tags=("scale",),
    )
)

register(
    Scenario(
        name="scale-geo-4k",
        description=(
            "16-router random geometric WAN with 4 000 flows "
            "between six peripheral host pairs; distance-"
            "proportional delays make tunnel choice matter for the "
            "elephants"
        ),
        topology=TopologySpec(
            "random_geometric",
            {
                "n_routers": 16,
                "n_host_pairs": 6,
                "seed": 7,
                "rate_mbps": 60.0,
                "host_rate_mbps": 200.0,
            },
        ),
        traffic=TrafficSpec(
            "scale_mix",
            n_flows=4000,
            params={"n_elephants": 10, "mice_rate_mbps": 0.4},
        ),
        backend="hybrid",
        horizon=30.0,
        tags=("scale",),
    )
)

register(
    Scenario(
        name="scale-geo-rolling-10k",
        description=(
            "The stress ceiling: 20-router geometric WAN, 10 000 "
            "flows, and a regional outage rolling across four links "
            "— background re-solves chase the failures while the "
            "elephants re-route packet-level"
        ),
        topology=TopologySpec(
            "random_geometric",
            {
                "n_routers": 20,
                "n_host_pairs": 8,
                "seed": 3,
                "rate_mbps": 80.0,
                "host_rate_mbps": 200.0,
            },
        ),
        traffic=TrafficSpec(
            "scale_mix",
            n_flows=10000,
            params={"n_elephants": 16, "mice_rate_mbps": 0.3},
        ),
        failures=FailureSpec("rolling", {"count": 4}),
        policy=PolicySpec(reoptimize_every=5.0),
        backend="hybrid",
        horizon=40.0,
        tags=("scale",),
    )
)

register(
    Scenario(
        name="scale-qoe-mix-2k",
        description=(
            "Application-aware scale tier: 24 classified video/VoIP/"
            "bulk flows (packet-level foreground, per-flow QoE) over "
            "~2 000 generic CBR mice (fluid background) on a k=4 fat "
            "tree — the weekly mixed-app scale-smoke gate"
        ),
        topology=TopologySpec(
            "fat_tree",
            {
                "k": 4,
                "n_hosts": 16,
                "rate_mbps": 25.0,
                "host_rate_mbps": 50.0,
            },
        ),
        traffic=TrafficSpec(
            "app_mix",
            n_flows=2000,
            params={
                "mix": {"video": 10, "voip": 8, "bulk": 6},
                "n_mice": 1976,
                "mice_rate_mbps": 0.5,
                "video_rate_mbps": 3.0,
            },
        ),
        classes=FlowClassSpec(foreground=("video*", "voip*", "bulk*")),
        policy=PolicySpec(objective="max_qoe"),
        backend="hybrid",
        horizon=30.0,
        tags=("scale",),
    )
)

# The 100k/1M tier flips FlowClassSpec.aggregate_background on: mice
# stop existing even as individual fluid flows and become per-tunnel
# flow classes (see repro.scenarios.hybrid.BackgroundAggregate), so
# packet events scale with the elephants and solver cost with the
# tunnel count — the "millions of users" end of the roadmap.  See
# docs/PERFORMANCE.md for measured wall-clock and events/s per tier.

register(
    Scenario(
        name="scale-100k",
        description=(
            "k=6 fat tree offered 100 000 flows: 16 packet-level "
            "TCP elephants over aggregate-mice flow classes — the "
            "weekly scale-smoke gate for the 100k tier"
        ),
        topology=TopologySpec(
            "fat_tree",
            {
                "k": 6,
                "n_hosts": 36,
                "rate_mbps": 40.0,
                "host_rate_mbps": 100.0,
            },
        ),
        traffic=TrafficSpec(
            "scale_mix",
            n_flows=100_000,
            # 0.05 Mbps mice: ~6.5k concurrent mice offer ~325 Mbps —
            # enough to keep every uplink warm without starving the
            # packet-level elephants whose events the smoke gate floors
            params={"n_elephants": 16, "mice_rate_mbps": 0.05},
        ),
        classes=FlowClassSpec(aggregate_background=True),
        backend="hybrid",
        horizon=30.0,
        tags=("scale",),
    )
)

register(
    Scenario(
        name="scale-1m",
        description=(
            "One million offered flows on a 24-router geometric "
            "WAN: the aggregate-mice ceiling, where traffic "
            "generation itself dominates the run (run on demand; "
            "not part of the weekly gate)"
        ),
        topology=TopologySpec(
            "random_geometric",
            {
                "n_routers": 24,
                "n_host_pairs": 10,
                "seed": 5,
                "rate_mbps": 100.0,
                "host_rate_mbps": 400.0,
            },
        ),
        traffic=TrafficSpec(
            "scale_mix",
            n_flows=1_000_000,
            params={"n_elephants": 20, "mice_rate_mbps": 0.2},
        ),
        classes=FlowClassSpec(aggregate_background=True),
        backend="hybrid",
        horizon=30.0,
        tags=("scale",),
    )
)


# ---------------------------------------------------- service workloads
# Open-loop churn programs for service mode (see
# repro.framework.service_mode): flows arrive forever, hold, and depart;
# the framework is measured on steady-state SLOs — placement-latency
# percentiles, admission outcomes, re-optimization convergence — not on
# a finite scenario's end-state throughput.
#
#     repro service list
#     repro service run fat-tree-churn --rate 500 --duration 60 --seed 1

SERVICE_WORKLOADS: Dict[str, ServiceWorkload] = {}


def register_workload(workload: ServiceWorkload) -> ServiceWorkload:
    """Add one service workload; duplicate names are an error."""
    if workload.name in SERVICE_WORKLOADS:
        raise ValueError(f"workload {workload.name!r} already registered")
    SERVICE_WORKLOADS[workload.name] = workload
    return workload


def get_workload(name: str) -> ServiceWorkload:
    try:
        return SERVICE_WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown service workload {name!r}; "
            f"choose from {sorted(SERVICE_WORKLOADS)}"
        ) from None


def list_workloads() -> List[ServiceWorkload]:
    """All registered service workloads, sorted by name."""
    return [SERVICE_WORKLOADS[name] for name in sorted(SERVICE_WORKLOADS)]


register_workload(
    ServiceWorkload(
        name="ring-steady",
        description=(
            "Steady-state baseline: six-router ring under constant "
            "Poisson churn (~45 concurrent flows) with the 5 s "
            "re-optimizer on — the convergence-SLO reference point"
        ),
        topology=TopologySpec(
            "ring",
            {
                "n_routers": 6,
                "n_host_pairs": 2,
                "rate_mbps": 50.0,
                "host_rate_mbps": 100.0,
            },
        ),
        churn=ChurnSpec(
            rate=30.0,
            mean_holding_s=1.5,
            n_pairs=4,
            admission_rate=500.0,
            admission_burst=64,
        ),
        policy=PolicySpec(reoptimize_every=5.0),
        duration=60.0,
        warmup=5.0,
    )
)

register_workload(
    ServiceWorkload(
        name="fat-tree-churn",
        description=(
            "Churn storm: k=4 fat tree absorbing hundreds of "
            "placements per second (run with --rate 500 for the "
            "acceptance load); re-optimization off so the measurement "
            "isolates the placement pipeline and admission control"
        ),
        topology=TopologySpec(
            "fat_tree",
            {
                "k": 4,
                "n_hosts": 8,
                "rate_mbps": 25.0,
                "host_rate_mbps": 50.0,
            },
        ),
        churn=ChurnSpec(
            rate=200.0,
            mean_holding_s=2.0,
            n_pairs=8,
            admission_rate=1000.0,
            admission_burst=64,
        ),
        duration=60.0,
        warmup=5.0,
    )
)

register_workload(
    ServiceWorkload(
        name="geo-diurnal",
        description=(
            "Diurnal rate on a random geometric WAN: Poisson arrivals "
            "thinned against a sinusoidal day (trough at t=0), "
            "heavy-tailed lognormal sessions, re-optimizer riding the "
            "swell"
        ),
        topology=TopologySpec(
            "random_geometric",
            {
                "n_routers": 10,
                "n_host_pairs": 2,
                "seed": 7,
                "rate_mbps": 50.0,
                "host_rate_mbps": 100.0,
            },
        ),
        churn=ChurnSpec(
            rate=40.0,
            rate_profile="diurnal",
            diurnal_amplitude=0.6,
            diurnal_period=60.0,
            holding="lognormal",
            mean_holding_s=2.0,
            sigma=0.8,
            n_pairs=4,
            admission_rate=500.0,
            admission_burst=64,
        ),
        policy=PolicySpec(reoptimize_every=5.0),
        duration=60.0,
        warmup=5.0,
    )
)
