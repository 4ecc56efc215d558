"""Emulation bridge: compile a Scenario into an external-driver plan.

The paper evaluated its framework on a real programmable testbed; this
module is the adapter that closes the simulate-then-deploy loop.  An
:class:`EmulationBackend` does no simulation itself — it *compiles* the
prepared scenario into a :class:`CommandPlan` (hosts, links, per-flow
iperf/ping-style commands with explicit source-routed paths, failure
cues), hands the plan to an :class:`EmulationDriver`, and parses the
driver's raw iperf/ping-formatted text back into a
:class:`~repro.scenarios.result.ScenarioResult`.

The driver contract (see docs/BACKENDS.md) is deliberately narrow —
``run(plan) -> str`` — so a driver can be a Mininet harness, an SSH
fan-out to a FABRIC slice, or the in-process
:class:`MockEmulationDriver` shipped here, which runs the fluid
backends' epoch pipeline (:func:`repro.backends.fluid.solve_inputs`,
:func:`repro.scenarios.hybrid.solve_epochs`,
:func:`repro.backends.fluid.delivered_from`) on the plan's own topology
and host paths and formats the numbers as iperf/ping output.  The mock
makes the whole adapter — compilation, driver dispatch, output parsing,
reconciliation — testable in tier-1 without a testbed, and doubles as
the reference for what output real drivers must produce.

Flow placement reuses the fluid backend's assignment
(:func:`repro.backends.fluid.assign_fluid` — the Controller's own
candidate rule), so an emulation run exercises the same paths the
simulation backends would pick.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.net.fluid import link_capacities
from repro.scenarios.failures import FailureEvent
from repro.scenarios.hybrid import solve_epochs
from repro.scenarios.result import ScenarioResult

from .base import (
    BackendCapabilities,
    ExecutionBackend,
    RunContext,
    register_backend,
)
from .fluid import assign_fluid, delivered_from, solve_inputs

__all__ = [
    "FlowCommand",
    "FailureCue",
    "CommandPlan",
    "EmulationDriver",
    "MockEmulationDriver",
    "EmulationBackend",
    "compile_plan",
    "parse_driver_output",
]

#: assumed UDP datagram payload, bytes (iperf's classic default).
_UDP_DATAGRAM_BYTES = 1470


@dataclass(frozen=True)
class FlowCommand:
    """One traffic source the driver must launch on ``src``."""

    flow_name: str
    src: str
    dst: str
    protocol: str  # "tcp" | "udp" | "icmp"
    start_at: float  # seconds after traffic start
    duration: float
    rate_mbps: Optional[float]
    #: full source-routed node path, src host .. dst host — the PolKA
    #: path the driver must pin (route header, static routes, ...).
    path: Tuple[str, ...]
    #: rendered reference invocation (iperf/ping style).
    command: str


@dataclass(frozen=True)
class FailureCue(FailureEvent):
    """One link-state change the driver must apply at ``at`` seconds,
    with its rendered reference command."""

    command: str


@dataclass(frozen=True)
class CommandPlan:
    """Everything an external driver needs to replay one scenario."""

    scenario: str
    seed: int
    horizon: float
    warmup: float
    hosts: Tuple[str, ...]
    #: (a, b, rate_mbps, delay_ms) per physical link.
    links: Tuple[Tuple[str, str, float, float], ...]
    #: server commands to start first (one per receiving host/port).
    servers: Tuple[str, ...]
    flows: Tuple[FlowCommand, ...]
    probes: Tuple[FlowCommand, ...]
    failures: Tuple[FailureCue, ...]
    #: flows the planner could not route (no candidate tunnel).
    unplaced: int = 0
    failure_events: int = field(default=0)


class EmulationDriver(Protocol):
    """An external executor: runs a :class:`CommandPlan`, returns the
    concatenated raw iperf/ping-formatted output (driver contract in
    docs/BACKENDS.md)."""

    def run(self, plan: CommandPlan) -> str:
        """Execute the plan and return its raw text output."""
        ...


def compile_plan(context: RunContext) -> CommandPlan:
    """Compile the prepared run into an external-driver command plan."""
    assert context.network is not None
    network = context.network
    scenario = context.scenario
    capacities = link_capacities(network)
    router_paths, _migrations, unplaced = assign_fluid(context, capacities)

    links = tuple(
        sorted(
            (*sorted(key), float(link.rate_mbps), float(link.delay_ms))
            for key, link in network.links.items()
        )
    )
    flows: List[FlowCommand] = []
    probes: List[FlowCommand] = []
    server_hosts: List[str] = []
    for request in context.requests:
        router_path = router_paths.get(request.flow_name)
        if router_path is None:
            continue
        path = (request.src,) + tuple(router_path) + (request.dst,)
        if request.protocol == "icmp":
            count = max(1, int(min(request.duration, scenario.horizon)))
            command = f"ping -c {count} -i 1 {request.dst}"
            probes.append(
                FlowCommand(
                    flow_name=request.flow_name,
                    src=request.src,
                    dst=request.dst,
                    protocol="icmp",
                    start_at=request.start_at,
                    duration=request.duration,
                    rate_mbps=None,
                    path=path,
                    command=command,
                )
            )
            continue
        if request.dst not in server_hosts:
            server_hosts.append(request.dst)
        command = f"iperf -c {request.dst} -p 5001 -t {request.duration:g}"
        if request.protocol == "udp" and request.rate_mbps:
            command += f" -u -b {request.rate_mbps:g}M"
        flows.append(
            FlowCommand(
                flow_name=request.flow_name,
                src=request.src,
                dst=request.dst,
                protocol=request.protocol,
                start_at=request.start_at,
                duration=request.duration,
                rate_mbps=request.rate_mbps,
                path=path,
                command=command,
            )
        )
    servers = tuple(f"{host}: iperf -s -p 5001" for host in server_hosts)
    failures = tuple(
        FailureCue(
            at=event.at,
            action=event.action,
            a=event.a,
            b=event.b,
            command=(
                f"link {'down' if event.action == 'fail' else 'up'} "
                f"{event.a} {event.b} @ {event.at:g}s"
            ),
        )
        for event in context.failure_plan
    )
    return CommandPlan(
        scenario=scenario.name,
        seed=context.seed,
        horizon=scenario.horizon,
        warmup=scenario.warmup,
        hosts=tuple(sorted(network.hosts)),
        links=links,
        servers=servers,
        flows=tuple(flows),
        probes=tuple(probes),
        failures=failures,
        unplaced=unplaced,
        failure_events=len(context.failure_plan),
    )


# --------------------------------------------------------------- the mock


class MockEmulationDriver:
    """Deterministic in-process stand-in for a real testbed driver.

    Solves the plan on the fluid backends' epoch pipeline
    (:func:`repro.scenarios.hybrid.solve_epochs`) over the plan's own
    topology and host-to-host source-routed paths — no simulator, no
    wall clock, no randomness — then renders the numbers in the
    iperf/ping text format real drivers produce.  Epoch edges are the
    flow starts/stops and cue instants, exact and never coalesced.
    Flows crossing a failed link receive nothing for the outage window;
    UDP reports the equivalent datagram loss, ping the lost echoes.
    """

    def run(self, plan: CommandPlan) -> str:
        capacities: Dict[Tuple[str, str], float] = {}
        delays: Dict[Tuple[str, str], float] = {}
        for a, b, rate_mbps, delay_ms in plan.links:
            capacities[(a, b)] = capacities[(b, a)] = rate_mbps
            delays[(a, b)] = delays[(b, a)] = delay_ms
        horizon = plan.horizon
        offered = (*plan.flows, *plan.probes)
        paths = {f.flow_name: f.path for f in offered}
        spans, rate_caps, probes = solve_inputs(offered, paths, horizon)
        edges = {0.0, horizon}
        edges.update(t for f in plan.flows for t in spans[f.flow_name])
        edges.update(c.at for c in plan.failures if 0.0 < c.at < horizon)
        # solve_epochs replays cues in the order given; (at, a, b) is the
        # mock's order, so a fail and a restore of one link at one
        # instant resolve by their spelling before the plan's order
        cues = sorted(plan.failures, key=lambda c: (c.at, c.a, c.b))
        solves = solve_epochs(
            spans, paths, capacities, rate_caps, probes, cues, sorted(edges)
        )
        delivered, _ = delivered_from(solves, set(spans) - probes)
        outage_s = dict.fromkeys(spans, 0.0)
        for solve in solves:
            for name in solve.blacked:
                outage_s[name] += solve.overlaps[name]

        lines = [
            f"=== emulation scenario={plan.scenario} seed={plan.seed} "
            f"horizon={plan.horizon:g}s flows={len(plan.flows)} "
            f"probes={len(plan.probes)} ==="
        ]
        for cue in plan.failures:
            lines.append(f"EVENT {cue.command}")
        for flow in plan.flows:
            s0, s1 = spans[flow.flow_name]
            span = s1 - s0
            mbps = delivered[flow.flow_name] / span if span > 0 else 0.0
            mbytes = mbps * span / 8.0
            route = ">".join(flow.path)
            lines.append(
                f"--- flow {flow.flow_name} {flow.protocol} "
                f"{flow.src} > {flow.dst} via {route} ---"
            )
            if flow.protocol == "udp" and flow.rate_mbps:
                sent = max(
                    1,
                    int(
                        flow.rate_mbps * 1e6 * span
                        / (8 * _UDP_DATAGRAM_BYTES)
                    ),
                )
                lost = int(round(
                    sent * (outage_s[flow.flow_name] / span)
                )) if span > 0 else sent
                pct = 100.0 * lost / sent
                jitter = sum(
                    delays[(a, b)]
                    for a, b in zip(flow.path[:-1], flow.path[1:])
                ) * 0.01
                lines.append(
                    f"[  3]  0.0-{span:.1f} sec  {mbytes:.2f} MBytes  "
                    f"{mbps:.3f} Mbits/sec   {jitter:.3f} ms  "
                    f"{lost}/{sent} ({pct:.2f}%)"
                )
            else:
                lines.append(
                    f"[  3]  0.0-{span:.1f} sec  {mbytes:.2f} MBytes  "
                    f"{mbps:.3f} Mbits/sec"
                )
        for probe in plan.probes:
            s0, s1 = spans[probe.flow_name]
            span = s1 - s0
            sent = max(1, int(span))
            outage = outage_s[probe.flow_name]
            lost = int(round(sent * (outage / span))) if span > 0 else sent
            received = sent - lost
            loss_pct = int(round(100.0 * lost / sent))
            rtt = 2.0 * sum(
                delays[(a, b)]
                for a, b in zip(probe.path[:-1], probe.path[1:])
            )
            lines.append(
                f"--- probe {probe.flow_name} icmp "
                f"{probe.src} > {probe.dst} ---"
            )
            lines.append(
                f"{sent} packets transmitted, {received} received, "
                f"{loss_pct}% packet loss, time {int(span * 1000)}ms"
            )
            if received > 0:  # ping prints no rtt line at 100 % loss
                lines.append(
                    f"rtt min/avg/max/mdev = "
                    f"{rtt:.3f}/{rtt:.3f}/{rtt:.3f}/0.000 ms"
                )
        return "\n".join(lines) + "\n"


# ------------------------------------------------------------- the parser

_FLOW_HEADER = re.compile(r"^--- (flow|probe) (\S+) (\S+) ")
#: UDP server-side report: bw, jitter, lost/total (MININET-style iperf).
_UDP_REPORT = re.compile(
    r"([\d.]+)\s+Mbits/sec\s+([\d.]+)\s+ms\s+(\d+)/(\d+)"
)
_TCP_REPORT = re.compile(r"([\d.]+)\s+Mbits/sec")
_PING_LOSS = re.compile(
    r"(\d+) packets transmitted, (\d+) received, (\d+)% packet loss"
)
_PING_RTT = re.compile(
    r"rtt min/avg/max/mdev = ([\d.]+)/([\d.]+)/([\d.]+)/([\d.]+)"
)


def parse_driver_output(
    plan: CommandPlan, raw: str
) -> Tuple[Dict[str, float], List[float], int]:
    """Parse raw driver text into (per-flow Mbps, latency samples, drops).

    Reconciliation is strict: every flow and probe in the plan must have
    exactly one report section of its own kind (``flow`` or ``probe``),
    no section may name anything else, and a probe's section needs a
    ping summary and, unless no echo came back (real ping prints none
    then), an ``rtt`` line; otherwise the driver lost or garbled a
    report and the run cannot be trusted — ``ValueError`` naming the
    section, not a silent 0.
    """
    kinds = dict.fromkeys((f.flow_name for f in plan.flows), "flow")
    kinds.update(dict.fromkeys((p.flow_name for p in plan.probes), "probe"))
    sections: Dict[str, List[str]] = {}
    current: Optional[str] = None
    for line in raw.splitlines():
        header = _FLOW_HEADER.match(line)
        if header:
            kind, current = header.group(1), header.group(2)
            if current not in kinds:
                raise ValueError(
                    f"driver output has a {kind} section {current!r} "
                    "the plan does not name"
                )
            if kind != kinds[current]:
                raise ValueError(
                    f"driver output reports {kinds[current]} {current!r} "
                    f"as a {kind} section"
                )
            if current in sections:
                raise ValueError(f"driver output repeats section {current!r}")
            sections[current] = []
        elif current is not None:
            sections[current].append(line)

    per_flow: Dict[str, float] = {}
    latencies: List[float] = []
    drops = 0
    for flow in plan.flows:
        body = sections.get(flow.flow_name)
        if body is None:
            raise ValueError(
                f"driver output is missing flow {flow.flow_name!r}; "
                "the run cannot be reconciled"
            )
        text = "\n".join(body)
        udp = _UDP_REPORT.search(text)
        if udp:
            per_flow[flow.flow_name] = float(udp.group(1))
            drops += int(udp.group(3))
            continue
        tcp = _TCP_REPORT.search(text)
        if tcp is None:
            raise ValueError(
                f"no iperf bandwidth report for flow {flow.flow_name!r}"
            )
        per_flow[flow.flow_name] = float(tcp.group(1))
    for probe in plan.probes:
        body = sections.get(probe.flow_name)
        if body is None:
            raise ValueError(
                f"driver output is missing probe {probe.flow_name!r}; "
                "the run cannot be reconciled"
            )
        text = "\n".join(body)
        per_flow[probe.flow_name] = 0.0
        loss = _PING_LOSS.search(text)
        if loss is None:
            raise ValueError(f"no ping summary for probe {probe.flow_name!r}")
        drops += int(loss.group(1)) - int(loss.group(2))
        rtt = _PING_RTT.search(text)
        if rtt:
            latencies.append(float(rtt.group(2)))
        elif int(loss.group(2)) > 0:
            raise ValueError(f"no rtt line for probe {probe.flow_name!r}")
    return per_flow, latencies, drops


@register_backend
class EmulationBackend(ExecutionBackend):
    """Adapter from Scenario to an external emulation driver.

    Registered as ``emulation-mock`` with the in-process deterministic
    driver; a real testbed integration subclasses (or instantiates) this
    with its own :class:`EmulationDriver` and registers under its own
    name — compilation, parsing and reconciliation are shared.
    """

    name = "emulation-mock"

    def __init__(self, driver: Optional[EmulationDriver] = None) -> None:
        super().__init__()
        self.driver: EmulationDriver = (
            driver if driver is not None else MockEmulationDriver()
        )
        self.plan: Optional[CommandPlan] = None
        self.raw_output: Optional[str] = None

    @classmethod
    def capabilities(cls) -> BackendCapabilities:
        return BackendCapabilities(
            name=cls.name,
            description="external-driver emulation bridge with the "
            "deterministic in-process mock driver",
            external=True,
        )

    def execute(self) -> None:
        context = self._bound_context()
        self.plan = compile_plan(context)
        self.raw_output = self.driver.run(self.plan)

    def collect(self) -> ScenarioResult:
        context = self._bound_context()
        if self.plan is None or self.raw_output is None:
            raise RuntimeError("emulation backend: call execute() first")
        plan = self.plan
        per_flow, latencies, drops = parse_driver_output(
            plan, self.raw_output
        )
        placed = len(plan.flows) + len(plan.probes)
        return ScenarioResult(
            scenario=plan.scenario,
            backend=self.name,
            seed=plan.seed,
            horizon_s=plan.horizon,
            warmup_s=plan.warmup,
            tunnels=len(context.tunnels),
            offered=len(context.requests),
            placed=placed,
            rejected=plan.unplaced,
            per_flow_mbps=per_flow,
            total_throughput_mbps=float(sum(per_flow.values())),
            min_flow_mbps=float(min(per_flow.values())) if per_flow else 0.0,
            mean_latency_ms=float(np.mean(latencies)) if latencies else 0.0,
            max_latency_ms=float(max(latencies)) if latencies else 0.0,
            drops=drops,
            migrations=0,
            reconfigurations=0,
            failure_events=plan.failure_events,
        )
