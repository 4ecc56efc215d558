"""The mock emulation driver against its own epoch loop, kept verbatim.

``MockEmulationDriver.run`` solves a plan with the fluid backends'
epoch solver (:func:`repro.scenarios.hybrid.solve_epochs`).  Before
that it carried a private loop: its own failure windows
(``_down_intervals``/``_is_down``), its own edge grid, per-epoch active
scan and outage sums.  That loop is kept below as the reference, and
the driver's text must equal it byte for byte on seeded generated
plans that reach every corner the two rules could split on:

- cues unsorted, repeated fails, restores with no fail, cues at 0,
  below 0 and past the horizon;
- a fail and a restore of one link at one instant, spelled ``a b``
  and ``b a`` (the cue sort key is ``(at, a, b)``, not the time alone);
- probes that start or end inside an epoch (their endpoints are not
  edges, so their outage is a partial-epoch overlap);
- zero-length and past-horizon spans, and zero-rate UDP senders.

One line of the reference is not verbatim: it printed an ``rtt`` line
for a probe that got no echo back, as the mock did, which encoded that
bug; both now print none there, as real ping does at 100 % loss.

Run directly (``PYTHONPATH=src python tests/backends/test_mock_reference.py
[plans]``) to compare more plans than tier-1 does.
"""

import sys
from typing import Dict, List, Tuple

import numpy as np

from repro.backends.emulation import (
    CommandPlan,
    FailureCue,
    FlowCommand,
    MockEmulationDriver,
)
from repro.net.fluid import FluidFlow, max_min_fair_bounded

_UDP_DATAGRAM_BYTES = 1470

PLANS = 600


# ------------------------------------------- the reference, kept verbatim


def _down_intervals(
    plan: CommandPlan,
) -> Dict[Tuple[str, str], List[Tuple[float, float]]]:
    """Per-link outage windows [fail, restore) from the failure cues."""
    down: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    open_at: Dict[Tuple[str, str], float] = {}
    for cue in sorted(plan.failures, key=lambda c: (c.at, c.a, c.b)):
        key = (cue.a, cue.b) if cue.a < cue.b else (cue.b, cue.a)
        if cue.action == "fail":
            open_at.setdefault(key, cue.at)
        elif key in open_at:
            down.setdefault(key, []).append((open_at.pop(key), cue.at))
    for key, start in open_at.items():
        down.setdefault(key, []).append((start, plan.horizon))
    return down


def _is_down(
    path: Tuple[str, ...],
    at: float,
    down: Dict[Tuple[str, str], List[Tuple[float, float]]],
) -> bool:
    for a, b in zip(path[:-1], path[1:]):
        key = (a, b) if a < b else (b, a)
        for start, end in down.get(key, ()):
            if start <= at < end:
                return True
    return False


def reference_run(plan: CommandPlan) -> str:
    capacities: Dict[Tuple[str, str], float] = {}
    delays: Dict[Tuple[str, str], float] = {}
    for a, b, rate_mbps, delay_ms in plan.links:
        capacities[(a, b)] = rate_mbps
        capacities[(b, a)] = rate_mbps
        delays[(a, b)] = delay_ms
        delays[(b, a)] = delay_ms
    down = _down_intervals(plan)
    horizon = plan.horizon

    spans = {
        f.flow_name: (
            min(f.start_at, horizon),
            min(f.start_at + f.duration, horizon),
        )
        for f in plan.flows
    }
    edges = {0.0, horizon}
    edges.update(t for span in spans.values() for t in span)
    edges.update(c.at for c in plan.failures if 0.0 < c.at < horizon)
    grid = sorted(edges)

    by_name = {f.flow_name: f for f in plan.flows}
    # each flow's claimant, a UDP sender's rate as its bound
    records = {
        f.flow_name: FluidFlow.from_path(
            f.flow_name,
            f.path,
            bound=(f.rate_mbps or None) if f.protocol == "udp" else None,
        )
        for f in plan.flows
    }
    delivered = {name: 0.0 for name in spans}
    outage_s = {name: 0.0 for name in spans}
    for t0, t1 in zip(grid[:-1], grid[1:]):
        if t1 <= t0:
            continue
        active = [
            name
            for name, (s0, s1) in spans.items()
            if s0 < t1 and s1 > t0
        ]
        live = []
        for name in active:
            if _is_down(by_name[name].path, t0, down):
                outage_s[name] += t1 - t0
            else:
                live.append(records[name])
        rates = max_min_fair_bounded(live, capacities)
        for name, rate in rates.items():
            delivered[name] += rate * (t1 - t0)

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
        s0 = min(probe.start_at, horizon)
        s1 = min(probe.start_at + probe.duration, horizon)
        span = s1 - s0
        sent = max(1, int(span))
        outage = 0.0
        for t0, t1 in zip(grid[:-1], grid[1:]):
            if t0 >= s1 or t1 <= s0:
                continue
            if _is_down(probe.path, t0, down):
                outage += min(t1, s1) - max(t0, s0)
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


# ---------------------------------------------------------- the plans

#: r0-r1-r2-r3 ring plus the r1-r3 chord; host hK hangs off rK
_ROUTER_LINKS = (("r0", "r1"), ("r1", "r2"), ("r2", "r3"), ("r0", "r3"),
                 ("r1", "r3"))
#: loop-free router paths between every ordered edge pair
_ROUTES = {
    ("r0", "r1"): (("r0", "r1"), ("r0", "r3", "r1")),
    ("r0", "r2"): (("r0", "r1", "r2"), ("r0", "r3", "r2")),
    ("r0", "r3"): (("r0", "r3"), ("r0", "r1", "r3")),
    ("r1", "r2"): (("r1", "r2"), ("r1", "r3", "r2")),
    ("r1", "r3"): (("r1", "r3"), ("r1", "r2", "r3")),
    ("r2", "r3"): (("r2", "r3"), ("r2", "r1", "r3")),
}


def _time(rng, horizon):
    """An instant that often coincides with another: halves of the
    horizon's seconds, sometimes an arbitrary double."""
    if rng.random() < 0.3:
        return float(rng.uniform(0.0, horizon))
    return float(rng.integers(0, int(2 * horizon) + 1)) / 2.0


def random_plan(seed: int) -> CommandPlan:
    rng = np.random.default_rng(seed)
    horizon = float(rng.choice([4.0, 6.0, 7.5, 10.0]))
    links = [
        (a, b, float(rng.choice([5.0, 10.0, 20.0, 40.0])),
         float(rng.choice([0.5, 1.0, 2.5])))
        for a, b in _ROUTER_LINKS
    ]
    links += [(f"h{k}", f"r{k}", 100.0, 0.1) for k in range(4)]

    def path_between(src: int, dst: int) -> Tuple[str, ...]:
        a, b = f"r{src}", f"r{dst}"
        routes = _ROUTES[(a, b) if a < b else (b, a)]
        route = routes[int(rng.integers(len(routes)))]
        if a > b:
            route = route[::-1]
        return (f"h{src}",) + route + (f"h{dst}",)

    def command(name: str, protocol: str) -> FlowCommand:
        src, dst = (int(k) for k in rng.choice(4, size=2, replace=False))
        start = _time(rng, horizon)
        roll = rng.random()
        if roll < 0.1:
            duration = 0.0  # zero-length span
        elif roll < 0.2:
            start = horizon + 1.0  # past the horizon
            duration = 2.0
        else:
            duration = _time(rng, horizon) or 0.5
        if protocol == "icmp" and rng.random() < 0.5:
            start += 0.25  # a probe edge no flow or cue shares
        rate = None
        if protocol == "udp":
            rate = float(rng.choice([0.0, 2.0, 8.0, 30.0]))
        return FlowCommand(
            flow_name=name,
            src=f"h{src}",
            dst=f"h{dst}",
            protocol=protocol,
            start_at=start,
            duration=duration,
            rate_mbps=rate,
            path=path_between(src, dst),
            command=f"{protocol} {name}",
        )

    flows = tuple(
        command(f"f{k}", str(rng.choice(["tcp", "udp"])))
        for k in range(int(rng.integers(0, 9)))
    )
    probes = tuple(
        command(f"p{k}", "icmp") for k in range(int(rng.integers(0, 4)))
    )

    cues: List[FailureCue] = []
    for _ in range(int(rng.integers(0, 7))):
        a, b = _ROUTER_LINKS[int(rng.integers(len(_ROUTER_LINKS)))]
        if rng.random() < 0.5:
            a, b = b, a
        roll = rng.random()
        if roll < 0.1:
            at = 0.0
        elif roll < 0.2:
            at = -1.0
        elif roll < 0.3:
            at = horizon + float(rng.choice([0.0, 1.5]))
        else:
            at = _time(rng, horizon)
        action = "fail" if rng.random() < 0.6 else "restore"
        cues.append(FailureCue(at=at, action=action, a=a, b=b,
                               command=f"{action} {a} {b} @ {at:g}s"))
        if rng.random() < 0.2:
            # the same link flips back at the same instant, spelled the
            # other way round
            other = "restore" if action == "fail" else "fail"
            cues.append(FailureCue(at=at, action=other, a=b, b=a,
                                   command=f"{other} {b} {a} @ {at:g}s"))
    order = rng.permutation(len(cues))
    return CommandPlan(
        scenario="generated",
        seed=seed,
        horizon=horizon,
        warmup=0.0,
        hosts=tuple(f"h{k}" for k in range(4)),
        links=tuple(sorted(links)),
        servers=(),
        flows=flows,
        probes=probes,
        failures=tuple(cues[int(k)] for k in order),
        failure_events=len(cues),
    )


def differing(plans: int) -> List[int]:
    driver = MockEmulationDriver()
    return [
        seed
        for seed in range(plans)
        if driver.run(random_plan(seed)) != reference_run(random_plan(seed))
    ]


def test_mock_driver_matches_its_reference_loop():
    assert differing(PLANS) == []


def test_generated_plans_reach_the_corner_cases():
    plans = [random_plan(seed) for seed in range(PLANS)]
    cues = [cue for plan in plans for cue in plan.failures]
    offered = [f for plan in plans for f in (*plan.flows, *plan.probes)]
    assert any(cue.at < 0.0 for cue in cues)
    assert any(cue.at == 0.0 for cue in cues)
    assert any(c.at > plan.horizon for plan in plans for c in plan.failures)
    assert any(
        list(plan.failures) != sorted(plan.failures, key=lambda c: c.at)
        for plan in plans
    )
    assert any(
        (x.at, x.a, x.b) == (y.at, y.b, y.a) and x.action != y.action
        for plan in plans
        for x in plan.failures
        for y in plan.failures
    )
    fails = [
        [tuple(sorted((c.a, c.b))) for c in plan.failures
         if c.action == "fail"]
        for plan in plans
    ]
    assert any(len(links) > len(set(links)) for links in fails)
    assert any(
        tuple(sorted((c.a, c.b))) not in links
        for plan, links in zip(plans, fails)
        for c in plan.failures
        if c.action == "restore"
    )
    assert any(f.duration == 0.0 for f in offered)
    assert any(f.start_at > plan.horizon for plan in plans for f in plan.flows)
    assert any(f.protocol == "udp" and f.rate_mbps == 0.0 for f in offered)
    probes = [p for plan in plans for p in plan.probes]
    assert any(p.start_at % 0.5 == 0.25 for p in probes)


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    bad = differing(count)
    print(f"{count} plans, {len(bad)} differ", *bad[:20])
    sys.exit(1 if bad else 0)
