"""Figs. 3-4 — the integration framework's closed control loop.

Stands up the complete architecture (Dashboard, Scheduler, Controller,
Telemetry, Hecate, PolKA services over the message bus) on the Fig. 9
testbed, requests a flow, and verifies the Fig. 4 message sequence was
exchanged in order.  The measured artifact is the control-plane
conversation itself plus end-to-end placement latency in bus messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.framework import SelfDrivingNetwork
from repro.ml import LinearRegression
from repro.topologies import (
    TUNNEL1,
    TUNNEL2,
    TUNNEL3,
    fig12_capacities,
    global_p4_lab,
)

__all__ = ["Fig4Result", "run", "EXPECTED_SEQUENCE"]

EXPECTED_SEQUENCE = [
    "dashboard.insert_new_flow",  # User -> Dashboard -> Scheduler
    "scheduler.new_flow",  # Scheduler -> Controller
    "telemetry.get",  # Controller -> Telemetry Service
    "hecate.ask_path",  # Controller -> Hecate (askHecatePath)
    "freertr.reconfig",  # Controller -> PolKA service (configureTunnel)
]


@dataclass(frozen=True)
class Fig4Result:
    topics_in_order: List[str]
    sequence_respected: bool
    placed_tunnel: str
    bus_messages_total: int
    decision: Dict


def run(warmup: float = 35.0) -> Fig4Result:
    net = global_p4_lab(rates=fig12_capacities())
    sdn = SelfDrivingNetwork(net, model_factory=LinearRegression)
    sdn.add_tunnel("T1", 1, TUNNEL1)
    sdn.add_tunnel("T2", 2, TUNNEL2)
    sdn.add_tunnel("T3", 3, TUNNEL3)
    sdn.run(until=warmup)
    mark = len(sdn.bus.log)
    sdn.request_flow(
        flow_name="f1", src="host1", dst="host2", protocol="tcp", tos=32,
        duration=10.0,
    )
    topics = [m.topic for m in sdn.bus.log[mark:]]
    # verify the expected subsequence appears in order
    cursor = 0
    for topic in topics:
        if cursor < len(EXPECTED_SEQUENCE) and topic == EXPECTED_SEQUENCE[cursor]:
            cursor += 1
    sdn.run(until=warmup + 15.0)
    return Fig4Result(
        topics_in_order=topics,
        sequence_respected=(cursor == len(EXPECTED_SEQUENCE)),
        placed_tunnel=sdn.flow("f1").tunnel,
        bus_messages_total=len(sdn.bus.log),
        decision=sdn.decision_log()[-1],
    )


def summary(result: Fig4Result) -> str:
    lines = [
        "Fig. 4 — framework sequence diagram replay",
        f"  expected order: {' -> '.join(EXPECTED_SEQUENCE)}",
        f"  observed      : {' -> '.join(result.topics_in_order)}",
        f"  sequence respected: {result.sequence_respected}",
        f"  flow placed on {result.placed_tunnel} "
        f"({result.bus_messages_total} bus messages total)",
    ]
    return "\n".join(lines)
