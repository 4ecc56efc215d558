"""Kernels phase: the layers that live inside ``net.sim.run.self_s``.

A wrapper per packet would measure the wrapper, so the per-packet layers
(event loop, link/device forwarding, PolKA forward, ACL classify), the
telemetry tick and the RFR pipeline are timed here in isolation, through
their public API, on fixed inputs.  Inputs do not depend on ``--seed``:
these are per-layer yardsticks, not workloads.

Every kernel is repeated for a slice of the time budget and reports its
best repeat, divided by the work done.  These are raw host times (the
per-layer metrics carry no bound), not normalised like the end-to-end
ones.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Tuple

import numpy as np

from repro.framework import SelfDrivingNetwork
from repro.hecate.predictor import QoSPredictor
from repro.hecate.service import default_model_factory
from repro.net import Simulator, UdpFlow
from repro.net.packets import Packet
from repro.topologies.generators import fat_tree_topology, line_topology

__all__ = ["KERNELS", "run_kernels"]

#: flows installed on the ingress edge for the classify kernel (the
#: hybrid_qoe_2k foreground size)
ACLS = 24
#: telemetry history the RFR kernels fit on (what service_rfr_loop's
#: fits see: MIN_TRAIN_SAMPLES=30 up to its 40 s duration)
HISTORY = 40


def _best(fn: Callable[[], float], seconds: float) -> float:
    """Smallest value ``fn`` returns in ``seconds`` (at least one call)."""
    deadline = perf_counter() + seconds
    best = fn()
    while perf_counter() < deadline:
        best = min(best, fn())
    return best


def _noop() -> None:
    return None


def schedule_step_ns() -> float:
    """Schedule + dispatch of one empty callback (``Simulator``)."""
    n = 20_000
    sim = Simulator()
    t0 = perf_counter()
    for i in range(n):
        sim.schedule(i * 1e-6, _noop)
    sim.run()
    wall = perf_counter() - t0
    if sim.events_processed != n:
        raise AssertionError("simulator lost events")
    return wall / n * 1e9


def forward_ns_per_packet_hop() -> float:
    """CBR ``UdpFlow`` over a 3-router line: host wall per packet-hop
    (4 links: host, two core, host)."""
    net = line_topology(n_routers=3, rate_mbps=1000.0)
    flow = UdpFlow(
        net.hosts["h1"], net.hosts["h2"], rate_mbps=100.0, duration=0.2
    ).start()
    t0 = perf_counter()
    net.run(until=0.5)
    wall = perf_counter() - t0
    packets = flow.received_bytes // flow.packet_size
    if packets < 1:
        raise AssertionError("forwarding kernel delivered nothing")
    return wall / (packets * 4) * 1e9


def _edge_with_acls() -> Tuple[SelfDrivingNetwork, Packet]:
    """A line testbed whose ingress edge carries ``ACLS`` PBR entries,
    installed the way the Controller installs them, plus a packet that
    matches the middle one."""
    net = line_topology(n_routers=3)
    sdn = SelfDrivingNetwork(net, launch_apps=False)
    sdn.add_tunnel("T1", 1, ("r0", "r1", "r2"))
    sdn.run(until=1.5)  # one telemetry sample, so Hecate can answer
    for tos in range(1, ACLS + 1):
        reply = sdn.request_flow(
            flow_name=f"k{tos}", src="h1", dst="h2", protocol="udp",
            tos=tos, duration=1.0, rate_mbps=1.0,
        )
        if not (reply.get("ok") and reply["controller"].get("ok")):
            raise AssertionError(f"kernel flow k{tos} not placed: {reply}")
    packet = Packet(
        src="h1", dst="h2", size=1000, protocol="udp", tos=ACLS // 2,
        src_ip=net.hosts["h1"].ip, dst_ip=net.hosts["h2"].ip,
    )
    return sdn, packet


def classify_ns() -> float:
    """``EdgePolicy.classify`` against ``ACLS`` installed access-lists."""
    sdn, packet = _edge_with_acls()
    policy = sdn.router_config.policy("r0")
    n = 2_000
    t0 = perf_counter()
    for _ in range(n):
        hit = policy.classify(packet)
    wall = perf_counter() - t0
    if hit is None:
        raise AssertionError("classify kernel matched no access-list")
    return wall / n * 1e9


def polka_forward_ns() -> float:
    """``PolkaNode.forward``: one routeID mod nodeID."""
    sdn, packet = _edge_with_acls()
    route_id, _egress = sdn.router_config.policy("r0").classify(packet)
    node = sdn.network.polka.node("r1")
    n = 20_000
    t0 = perf_counter()
    for _ in range(n):
        port = node.forward(route_id)
    wall = perf_counter() - t0
    if port != node.port_to("r2"):
        raise AssertionError("PolKA forward chose the wrong port")
    return wall / n * 1e9


def telemetry_tick_us() -> float:
    """Idle k=4 fat tree with a probe per tunnel of one edge pair set:
    host wall per telemetry sample recorded."""
    net = fat_tree_topology(k=4, n_hosts=16)
    sdn = SelfDrivingNetwork(net, launch_apps=False)
    from repro.scenarios.runner import derive_tunnels_for_pairs

    edges = sorted(name for name, r in net.routers.items() if r.edge)
    pairs = [(a, b) for a in edges[:4] for b in edges[4:]]
    for name, tid, path in derive_tunnels_for_pairs(net, pairs, 3):
        sdn.add_tunnel(name, tid, path)
    t0 = perf_counter()
    sdn.run(until=20.0)
    wall = perf_counter() - t0
    samples = sdn.db.total_samples()
    if samples < 1:
        raise AssertionError("telemetry kernel recorded nothing")
    return wall / samples * 1e6


def _history() -> np.ndarray:
    rng = np.random.default_rng(0)
    t = np.arange(HISTORY, dtype=np.float64)
    return 20.0 + 3.0 * np.sin(t / 5.0) + rng.normal(0.0, 0.5, HISTORY)


def rfr_fit_ms() -> float:
    """The ``default_model_factory`` pipeline fitted on one history."""
    history = _history()
    predictor = QoSPredictor(default_model_factory(), n_lags=10)
    t0 = perf_counter()
    predictor.fit(history)
    return (perf_counter() - t0) * 1e3


def rfr_forecast_ms() -> float:
    """A 10-step forecast from the fitted pipeline."""
    history = _history()
    predictor = QoSPredictor(default_model_factory(), n_lags=10)
    predictor.fit(history)
    t0 = perf_counter()
    forecast = predictor.forecast(history, steps=10)
    wall = perf_counter() - t0
    if not np.isfinite(forecast).all():
        raise AssertionError("RFR forecast is not finite")
    return wall * 1e3


#: metric name -> (kernel, unit)
KERNELS: Dict[str, Tuple[Callable[[], float], str]] = {
    "kernel.net.sim.schedule_step_ns": (schedule_step_ns, "ns"),
    "kernel.net.forward_ns_per_packet_hop": (
        forward_ns_per_packet_hop, "ns"),
    "kernel.polka.forward_ns": (polka_forward_ns, "ns"),
    "kernel.freertr.classify_ns": (classify_ns, "ns"),
    "kernel.net.telemetry.tick_us": (telemetry_tick_us, "us"),
    "kernel.ml.rfr_fit_ms": (rfr_fit_ms, "ms"),
    "kernel.ml.rfr_forecast_ms": (rfr_forecast_ms, "ms"),
}


def run_kernels(seconds: float) -> Dict[str, float]:
    """Best-of timing of every kernel, ``seconds`` shared equally."""
    share = seconds / len(KERNELS)
    return {name: _best(fn, share) for name, (fn, _) in KERNELS.items()}
