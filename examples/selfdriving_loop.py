#!/usr/bin/env python3
"""The full self-driving loop: telemetry -> forecast -> migrate, repeatedly.

Runs the framework with periodic re-optimization enabled while background
UDP load comes and goes on Tunnel 1.  Watch the controller notice the
forecasted congestion and move the managed TCP flow off (and back when
capacity frees up) — the paper's closing vision of an autonomous,
telemetry-driven routing engine.

Run:  python examples/selfdriving_loop.py
"""

from repro.framework import SelfDrivingNetwork
from repro.ml import LinearRegression
from repro.net import UdpFlow
from repro.topologies import (
    TUNNEL1,
    TUNNEL2,
    TUNNEL3,
    fig12_capacities,
    global_p4_lab,
)


def main() -> None:
    net = global_p4_lab(rates=fig12_capacities())
    sdn = SelfDrivingNetwork(
        net, model_factory=LinearRegression, reoptimize_every=5.0
    )
    sdn.add_tunnel("T1", 1, TUNNEL1)
    sdn.add_tunnel("T2", 2, TUNNEL2)
    sdn.add_tunnel("T3", 3, TUNNEL3)
    sdn.run(until=35.0)

    sdn.request_flow(flow_name="managed", src="host1", dst="host2",
                     protocol="tcp", tos=32, duration=120.0)
    sdn.run(until=45.0)
    print(f"t=45 : managed flow on {sdn.flow('managed').tunnel} "
          f"(T1 is the fattest tunnel)")

    # unmanaged background traffic floods the SAO leg of Tunnel 1 (t=45..85)
    UdpFlow(net.hosts["host1"], net.hosts["host2"], rate_mbps=18.0,
            duration=40.0, tos=200).start(at=0.0)
    sdn.run(until=70.0)
    record = sdn.flow("managed")
    print(f"t=70 : background UDP flooding T1; managed flow now on {record.tunnel}")

    sdn.run(until=160.0)
    print(f"t=160: background gone; managed flow back on {sdn.flow('managed').tunnel}")
    for when, old, new in record.migrations:
        print(f"        migration at t={when:.0f}s: {old} -> {new}")
    print()
    print(sdn.dashboard.render_paths(["T1", "T2", "T3"]))
    print()
    print(sdn.dashboard.flow_table())
    print(f"\nHecate consultations: {len(sdn.decision_log())}")


if __name__ == "__main__":
    main()
