#!/usr/bin/env python3
"""Quickstart: stand up the Hecate-PolKA self-driving network in ~30 lines.

Builds the paper's emulated Global P4 Lab testbed (Fig. 9), registers the
three PolKA tunnels, lets telemetry warm up, requests a TCP flow through
the framework (Dashboard -> Scheduler -> Controller -> Hecate -> PolKA,
the Fig. 4 sequence) and prints what happened.

Run:  python examples/quickstart.py
"""

from repro.framework import SelfDrivingNetwork
from repro.ml import LinearRegression
from repro.topologies import (
    TUNNEL1,
    TUNNEL2,
    TUNNEL3,
    fig12_capacities,
    global_p4_lab,
)


def main() -> None:
    # 1. the emulated testbed, with the paper's Fig. 12 link capacities
    network = global_p4_lab(rates=fig12_capacities())

    # 2. the integration framework (LinearRegression keeps the demo quick;
    #    drop the argument to use the paper's Random Forest)
    sdn = SelfDrivingNetwork(network, model_factory=LinearRegression)

    # 3. candidate PolKA tunnels (explicit router paths -> routeIDs)
    sdn.add_tunnel("T1", 1, TUNNEL1)  # MIA - SAO - AMS
    sdn.add_tunnel("T2", 2, TUNNEL2)  # MIA - CHI - AMS
    sdn.add_tunnel("T3", 3, TUNNEL3)  # MIA - CAL - CHI - AMS

    # 4. warm the telemetry loop so Hecate has history to learn from
    sdn.run(until=35.0)

    # 5. request a flow exactly like the paper's Dashboard user
    result = sdn.request_flow(
        flow_name="demo", src="host1", dst="host2",
        protocol="tcp", tos=32, duration=20.0,
    )
    print("flow request :", result)

    sdn.run(until=60.0)

    record = sdn.flow("demo")
    print(f"placed on    : {record.tunnel} "
          f"(routeID 0b{sdn.router_config.policy('MIA').tunnels[1].route.route_id:b})")
    print(f"goodput      : {record.app.goodput_mbps():.1f} Mbps")
    print()
    print(sdn.dashboard.render_links([("MIA", "SAO"), ("MIA", "CHI"), ("MIA", "CAL")]))
    print()
    print(sdn.dashboard.flow_table())


if __name__ == "__main__":
    main()
