"""Controller (Fig. 3/4): the component that closes the loop.

On ``scheduler.new_flow`` it executes the Fig. 4 sequence:

1. ``getTelemetry`` — pull each candidate tunnel's stored history;
2. ``askHecatePath`` — request a recommendation from the Hecate service;
3. ``configureTunnel`` — install the flow's access-list and point its PBR
   entry at the chosen tunnel (one freeRtr reconfiguration message);
4. start the traffic application on the end hosts.

A periodic re-optimization loop (enabled with ``reoptimize_every``) then
keeps asking Hecate and re-points PBR entries when the recommendation
changes — the "self-driving" behaviour the paper targets; each change is
one edge-router touch, never a core reconfiguration.

Re-optimization is **incremental**: each (ingress, egress) flow group
carries a signature of its membership, the up/down state of every link
its candidate tunnels cross, and the latest telemetry-carried Mbps per
link.  A tick only re-solves groups whose signature moved — membership
changed, a link changed state, or telemetry drifted beyond
``reopt_threshold_mbps`` since the group's last solve (drift accumulates
against the last *solved* snapshot, so slow creep still triggers).
Forecasts for all stale groups go to Hecate in one batched request
(``hecate.ask_path_batch``), which fits each tunnel's regressor once no
matter how many groups share it.

Multi-pair deployments (the scenario suite runs traffic between many
edge pairs at once) rely on two behaviours beyond the paper's single
MIA->AMS testbed: candidate tunnels are filtered by the *egress* edge of
the flow's destination (see :meth:`Controller._candidates_for`), and
links downed by failure injection advertise near-zero capacity to the
assignment optimizer so re-optimization steers flows around outages.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, MutableSequence, Optional, Sequence, Tuple

from repro.bus import Message, MessageBus
from repro.freertr.service import RECONFIG_TOPIC
from repro.hecate.objectives import assign_flows
from repro.hecate.service import ASK_PATH_BATCH_TOPIC, ASK_PATH_TOPIC
from repro.net.apps import PingApp, TcpFlow, UdpFlow
from repro.net.topology import Network

from .scheduler import NEW_FLOW_TOPIC, FlowRequest
from .telemetry_service import TELEMETRY_GET_TOPIC, TelemetryService

__all__ = ["Controller", "TunnelInfo", "FlowRecord", "select_candidates"]


def select_candidates(
    paths_by_name: Dict[str, Tuple[str, ...]], ingress: str, egress: str
) -> List[str]:
    """The candidate-tunnel rule, shared by the Controller and the
    scenario runner's fluid backend so both backends place flows by the
    same policy.

    Prefer tunnels terminating at the flow's egress edge (packets leaving
    another egress would fall back to FIB forwarding for the tail of the
    journey); when none match — e.g. a single-egress deployment
    registered before the destination's edge was known — fall back to
    every tunnel from the ingress, the pre-multi-pair behaviour.
    Preserves the mapping's insertion (registration) order.
    """
    from_ingress = [
        name for name, path in paths_by_name.items() if path[0] == ingress
    ]
    matching = [
        name for name in from_ingress if paths_by_name[name][-1] == egress
    ]
    return matching or from_ingress


@dataclass(frozen=True)
class TunnelInfo:
    """A registered candidate tunnel."""

    name: str  # telemetry/Hecate key, e.g. "T1"
    tunnel_id: int  # freeRtr interface number
    path: Tuple[str, ...]

    @property
    def ingress(self) -> str:
        return self.path[0]

    @property
    def egress(self) -> str:
        return self.path[-1]


@dataclass
class FlowRecord:
    """One placed flow: its request, current tunnel, app and history."""

    request: FlowRequest
    acl_name: str
    tunnel: str
    app: Optional[object]  # None under launch_apps=False (control-plane only)
    placed_at: float = 0.0
    migrations: List[Tuple[float, str, str]] = field(default_factory=list)

    @property
    def starts_at(self) -> float:
        """Absolute simulation time the flow begins sending."""
        return self.placed_at + self.request.start_at

    @property
    def stops_at(self) -> float:
        """Absolute simulation time the flow finishes sending."""
        return self.starts_at + self.request.duration


class Controller:
    def __init__(
        self,
        network: Network,
        bus: MessageBus,
        telemetry: TelemetryService,
        reoptimize_every: Optional[float] = None,
        reopt_threshold_mbps: float = 1.0,
        launch_apps: bool = True,
        decision_log_limit: Optional[int] = None,
    ):
        if decision_log_limit is not None and decision_log_limit < 1:
            raise ValueError(
                f"decision_log_limit must be >= 1, got {decision_log_limit}"
            )
        self.network = network
        self.bus = bus
        self.telemetry = telemetry
        self.reoptimize_every = reoptimize_every
        self.reopt_threshold_mbps = reopt_threshold_mbps
        #: False -> place flows on the control plane only (ACL + PBR +
        #: FlowRecord) without starting packet-level traffic apps.  The
        #: open-loop service driver uses this: at hundreds of placements
        #: per second the DES cannot afford per-packet events, and the
        #: admission/SLO behaviour under test is purely control-plane.
        self.launch_apps = launch_apps
        self.tunnels: Dict[str, TunnelInfo] = {}
        self.flows: Dict[str, FlowRecord] = {}
        #: audit of Hecate recommendations; bounded to the most recent
        #: ``decision_log_limit`` when set (long-lived service mode)
        self.decisions: MutableSequence[Dict] = (
            [] if decision_log_limit is None else deque(maxlen=decision_log_limit)
        )
        self.reopt_solved = 0  # groups re-solved across all ticks
        self.reopt_skipped = 0  # groups skipped as unchanged
        self.reopt_ticks = 0  # periodic ticks executed
        self.migrations_total = 0  # lifetime PBR re-binds
        self.removed_flows = 0  # lifetime flow teardowns
        #: optional hook invoked after every periodic re-optimization
        #: tick with this controller — the service driver's convergence
        #: probe (it watches migrations_total settle between ticks)
        self.on_reopt: Optional[Callable[["Controller"], None]] = None
        self._group_snapshots: Dict[Tuple[str, str], Tuple] = {}
        #: tunnel name -> telemetry.get cursor: each retrieval pulls only
        #: the samples recorded since the previous one (incremental
        #: getTelemetry; O(new samples) instead of O(history) per ask)
        self._telemetry_cursors: Dict[str, int] = {}
        self._reopt_armed = False
        bus.subscribe(NEW_FLOW_TOPIC, self._on_new_flow)

    # ------------------------------------------------------------ tunnels

    def register_tunnel(self, name: str, tunnel_id: int, path: Sequence[str]) -> None:
        """Create the PolKA tunnel (freeRtr message) + telemetry probe."""
        if name in self.tunnels:
            raise ValueError(f"duplicate tunnel name {name!r}")
        path = tuple(path)
        replies = self.bus.request(
            RECONFIG_TOPIC,
            command="create_tunnel",
            router=path[0],
            tunnel_id=tunnel_id,
            path=list(path),
        )
        if not replies or not replies[0].get("ok"):
            raise RuntimeError(f"tunnel creation failed: {replies}")
        self.telemetry.create_path_probe(name, path)
        self.tunnels[name] = TunnelInfo(name=name, tunnel_id=tunnel_id, path=path)

    def _candidates_for(self, ingress: str, egress: str) -> List[TunnelInfo]:
        """Tunnels usable by a flow entering at ``ingress`` towards a host
        behind ``egress`` (the shared :func:`select_candidates` rule)."""
        names = select_candidates(
            {t.name: t.path for t in self.tunnels.values()}, ingress, egress
        )
        return [self.tunnels[name] for name in names]

    # ------------------------------------------------------------- placing

    def _edge_router_of(self, host_name: str) -> str:
        return self.network.edge_router_of(host_name)

    def _get_telemetry(self, tunnel_name: str) -> None:
        """Fig. 4 getTelemetry for one tunnel, incrementally: the reply
        carries only samples recorded since our stored cursor (a flow
        storm placing thousands of flows at one instant retrieves each
        tunnel's history once, then length-zero increments)."""
        replies = self.bus.request(
            TELEMETRY_GET_TOPIC,
            path=tunnel_name,
            since=self._telemetry_cursors.get(tunnel_name, 0),
        )
        if replies and replies[0].get("ok"):
            self._telemetry_cursors[tunnel_name] = replies[0]["cursor"]

    def _ask_hecate(
        self,
        candidates: List[TunnelInfo],
        objective: str,
        app_class: str = "generic",
    ) -> Dict:
        # Fig. 4 getTelemetry: the Controller retrieves stored history
        for tunnel in candidates:
            self._get_telemetry(tunnel.name)
        replies = self.bus.request(
            ASK_PATH_TOPIC,
            paths=[t.name for t in candidates],
            objective=objective,
            app_class=app_class,
        )
        if not replies or not replies[0].get("ok"):
            raise RuntimeError(f"Hecate request failed: {replies}")
        return replies[0]

    def _acl_rules_for(self, request: FlowRequest) -> List[str]:
        src_ip = self.network.hosts[request.src].ip
        dst_ip = self.network.hosts[request.dst].ip
        if not src_ip or not dst_ip:
            raise ValueError(
                f"hosts {request.src}/{request.dst} need IPs for ACL matching"
            )
        return [
            f"permit {request.protocol} {src_ip} 255.255.255.255 "
            f"{dst_ip} 255.255.255.255 tos {request.tos}"
        ]

    def _configure_tunnel(self, request: FlowRequest, acl_name: str,
                          tunnel: TunnelInfo) -> None:
        router = tunnel.ingress
        replies = self.bus.request(
            RECONFIG_TOPIC, command="add_acl", router=router,
            name=acl_name, rules=self._acl_rules_for(request),
        )
        if not replies or not replies[0].get("ok"):
            raise RuntimeError(f"ACL install failed: {replies}")
        replies = self.bus.request(
            RECONFIG_TOPIC, command="bind_pbr", router=router,
            acl=acl_name, tunnel_id=tunnel.tunnel_id,
        )
        if not replies or not replies[0].get("ok"):
            raise RuntimeError(f"PBR bind failed: {replies}")

    def _launch_app(self, request: FlowRequest):
        if not self.launch_apps:
            return None
        src = self.network.hosts[request.src]
        dst = self.network.hosts[request.dst]
        if request.protocol == "tcp":
            return TcpFlow(src, dst, tos=request.tos,
                           duration=request.duration).start(at=request.start_at)
        if request.protocol == "udp":
            return UdpFlow(src, dst, rate_mbps=request.rate_mbps,
                           duration=request.duration,
                           tos=request.tos,
                           train_packets=request.train_packets,
                           ).start(at=request.start_at)
        return PingApp(src, dst, interval=1.0, tos=request.tos).start(
            at=request.start_at
        )

    def place_flow(self, request: FlowRequest) -> FlowRecord:
        """The full Fig. 4 newFlow sequence."""
        ingress = self._edge_router_of(request.src)
        egress = self._edge_router_of(request.dst)
        candidates = self._candidates_for(ingress, egress)
        if not candidates:
            raise RuntimeError(f"no tunnels registered at ingress {ingress!r}")
        recommendation = self._ask_hecate(
            candidates, request.objective, request.app_class
        )
        self.decisions.append(recommendation)
        chosen = self.tunnels[recommendation["path"]]
        acl_name = f"acl_{request.flow_name}"
        self._configure_tunnel(request, acl_name, chosen)
        app = self._launch_app(request)
        record = FlowRecord(
            request=request, acl_name=acl_name, tunnel=chosen.name, app=app,
            placed_at=self.network.sim.now,
        )
        self.flows[request.flow_name] = record
        if self.reoptimize_every is not None and not self._reopt_armed:
            self._reopt_armed = True
            self.network.sim.schedule(self.reoptimize_every, self._reoptimize_tick)
        return record

    def _on_new_flow(self, message: Message) -> Dict:
        request: FlowRequest = message.payload["request"]
        try:
            record = self.place_flow(request)
        except (RuntimeError, ValueError, KeyError) as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True, "tunnel": record.tunnel, "acl": record.acl_name}

    # ------------------------------------------------------ self-driving

    def migrate_flow(self, flow_name: str, tunnel_name: str) -> None:
        """Re-point one flow's PBR entry (a single edge-router touch)."""
        record = self.flows[flow_name]
        if record.tunnel == tunnel_name:
            return
        tunnel = self.tunnels[tunnel_name]
        old = record.tunnel
        replies = self.bus.request(
            RECONFIG_TOPIC, command="bind_pbr", router=tunnel.ingress,
            acl=record.acl_name, tunnel_id=tunnel.tunnel_id,
        )
        if not replies or not replies[0].get("ok"):
            raise RuntimeError(f"PBR re-bind failed: {replies}")
        record.tunnel = tunnel_name
        record.migrations.append((self.network.sim.now, old, tunnel_name))
        self.migrations_total += 1

    def remove_flow(self, flow_name: str) -> FlowRecord:
        """Retire one placed flow: stop its app, unbind its PBR entry,
        delete its access-list, and drop its group snapshot.

        The inverse of :meth:`place_flow`, and the operation sustained
        churn exercises thousands of times — everything keyed on the
        flow must go, or the controller's footprint grows with lifetime
        arrivals instead of concurrent flows.  Returns the record."""
        record = self.flows.pop(flow_name, None)
        if record is None:
            raise KeyError(f"unknown flow {flow_name!r}")
        if record.app is not None:
            record.app.stop()
        router = self.tunnels[record.tunnel].ingress
        replies = self.bus.request(
            RECONFIG_TOPIC, command="unbind_pbr", router=router,
            acl=record.acl_name,
        )
        if not replies or not replies[0].get("ok"):
            raise RuntimeError(f"PBR unbind failed: {replies}")
        replies = self.bus.request(
            RECONFIG_TOPIC, command="remove_acl", router=router,
            name=record.acl_name,
        )
        if not replies or not replies[0].get("ok"):
            raise RuntimeError(f"ACL removal failed: {replies}")
        # membership changed -> the group must re-solve next tick anyway,
        # so dropping its snapshot unconditionally is both correct and O(1)
        egress = self._edge_router_of(record.request.dst)
        self._group_snapshots.pop(
            (self.tunnels[record.tunnel].ingress, egress), None
        )
        self.removed_flows += 1
        return record

    def _flow_rate_estimate(self, record: FlowRecord) -> float:
        """Recent throughput of a managed flow (Mbps).

        The averaging window is clamped to the flow's actual start: a
        flow one second old must be averaged over that second, not over
        a five-second window padded with pre-start zeros (which diluted
        early estimates and skewed the first re-optimization tick).
        """
        app = record.app
        now = self.network.sim.now
        if app is None:
            # control-plane-only placement: fall back to the requested
            # rate (UDP) or a nominal trickle, the best estimate we have
            return record.request.rate_mbps or 0.1
        if isinstance(app, TcpFlow):
            started = app.started_at if app.started_at is not None else now
            return app.goodput_mbps(max(started, now - 5.0), now)
        if isinstance(app, UdpFlow):
            return app.rate_mbps
        return 0.1  # ICMP probes are negligible load

    def _effective_link_capacities(
        self, active: Dict[str, str]
    ) -> Dict[Tuple[str, str], float]:
        """Link capacities minus *unmanaged* load.

        The assignment optimizer must not count capacity consumed by
        traffic it cannot move.  Unmanaged load per link = telemetry-
        measured carried Mbps minus the managed flows' own contribution
        (each flow's recent rate along its current tunnel), with a small
        hysteresis so measurement jitter between the two estimators does
        not fabricate phantom congestion.
        """
        managed: Dict[Tuple[str, str], float] = {}
        for name, tunnel_name in active.items():
            rate = self._flow_rate_estimate(self.flows[name])
            for hop in zip(self.tunnels[tunnel_name].path[:-1],
                           self.tunnels[tunnel_name].path[1:]):
                managed[hop] = managed.get(hop, 0.0) + rate
        caps: Dict[Tuple[str, str], float] = {}
        for tunnel in self.tunnels.values():
            for a, b in zip(tunnel.path[:-1], tunnel.path[1:]):
                if (a, b) in caps:
                    continue
                link = self.network.link(a, b)
                if not link.up:
                    # failure injection: a down link black-holes traffic,
                    # so any tunnel crossing it must look useless to the
                    # assignment optimizer (near-zero, not zero, keeps
                    # max-min fair allocation well-defined)
                    caps[(a, b)] = 1e-3
                    continue
                link_rate = link.rate_mbps
                carried_now = self.telemetry.db.latest(f"link:{a}->{b}:mbps")
                unmanaged = max(
                    0.0, carried_now - managed.get((a, b), 0.0) - 0.5
                )
                caps[(a, b)] = max(0.5, link_rate - unmanaged)
        return caps

    def _group_signature(
        self,
        flows: Dict[str, str],
        tunnel_paths: Dict[str, Tuple[str, ...]],
    ) -> Tuple:
        """What one (ingress, egress) group's solve depended on:
        membership, link up/down state, and telemetry-carried Mbps for
        every link its candidate tunnels cross."""
        membership = tuple(sorted(flows.items()))
        links = sorted(
            {
                hop
                for path in tunnel_paths.values()
                for hop in zip(path[:-1], path[1:])
            }
        )
        state = []
        carried = []
        for a, b in links:
            state.append(((a, b), self.network.link(a, b).up))
            carried.append(
                ((a, b), self.telemetry.db.latest(f"link:{a}->{b}:mbps"))
            )
        return membership, tuple(state), tuple(carried)

    def _signature_moved(self, previous: Tuple, current: Tuple) -> bool:
        """Did anything this group's solve depends on change enough to
        re-solve?  Membership and link state compare exactly; telemetry
        compares against the last *solved* snapshot, so slow drift
        accumulates until it crosses the threshold."""
        if previous[0] != current[0] or previous[1] != current[1]:
            return True
        baseline = dict(previous[2])
        for link, mbps in current[2]:
            if link not in baseline:
                return True
            if abs(mbps - baseline[link]) > self.reopt_threshold_mbps:
                return True
        return False

    def _ask_hecate_batch(
        self, groups: List[Tuple[List[TunnelInfo], str, str]]
    ) -> None:
        """The Fig. 4 getTelemetry + askHecatePath sequence for every
        stale group in one batched request: telemetry is retrieved once
        per unique tunnel and Hecate fits each tunnel's regressor once
        no matter how many groups share it.  Each group is
        ``(candidates, objective, app_class)`` — the flows' own
        objective and class, not a hard-coded default, so the audit
        trail records the recommendation the group actually asked for."""
        seen = set()
        for candidates, _, _ in groups:
            for tunnel in candidates:
                if tunnel.name not in seen:
                    seen.add(tunnel.name)
                    self._get_telemetry(tunnel.name)
        replies = self.bus.request(
            ASK_PATH_BATCH_TOPIC,
            groups=[
                {
                    "paths": [t.name for t in candidates],
                    "objective": objective,
                    "app_class": app_class,
                }
                for candidates, objective, app_class in groups
            ],
        )
        if replies and replies[0].get("ok"):
            # per-group isolation: a group whose forecast failed (e.g. a
            # tunnel with no telemetry yet) loses only its own audit
            # entry, never its neighbours'
            self.decisions.extend(
                entry
                for entry in replies[0]["recommendations"]
                if entry.get("ok")
            )
        # forecasting failure must not stall reallocation

    def _group_intent(self, flows: Dict[str, str]) -> Tuple[str, str]:
        """One group's (objective, app_class) for the batched ask: the
        members' unanimous value, or the neutral default when a mixed
        group can't be represented by a single recommendation."""
        requests = [self.flows[name].request for name in flows]
        objectives = {r.objective for r in requests}
        classes = {r.app_class for r in requests}
        return (
            objectives.pop() if len(objectives) == 1 else "max_bandwidth",
            classes.pop() if len(classes) == 1 else "generic",
        )

    def reoptimize_now(self) -> None:
        """One incremental re-optimization pass over all active flows.

        Groups flows by (ingress, egress), skips every group whose
        signature (membership, candidate-link state, telemetry) has not
        moved since its last solve, batches the Hecate forecasts for the
        stale groups into one request, then solves each stale group's
        joint flow->tunnel assignment on the fluid model and applies any
        migrations — each one a single PBR re-bind at the ingress edge.
        """
        # only flows currently sending: a placed-but-not-yet-started flow
        # (phased scenarios schedule starts deep into the horizon) must
        # not be balanced as if it already carried its load — that let
        # the optimizer migrate live flows to make room for 0 Mbps ones
        now = self.network.sim.now
        active = {
            name: record.tunnel
            for name, record in self.flows.items()
            if record.starts_at <= now < record.stops_at
        }
        if not active:
            return
        # group by (ingress, egress): flows can only use tunnels from
        # their own edge towards their destination's edge
        by_edges: Dict[Tuple[str, str], Dict[str, str]] = {}
        for name, tunnel in active.items():
            key = (
                self.tunnels[tunnel].ingress,
                self._edge_router_of(self.flows[name].request.dst),
            )
            by_edges.setdefault(key, {})[name] = tunnel
        stale = []
        for key, flows in by_edges.items():
            candidates = self._candidates_for(*key)
            tunnel_paths = {t.name: t.path for t in candidates}
            for tunnel in flows.values():
                # a flow may sit on a fallback tunnel outside the egress-
                # filtered candidate set; keep it assignable regardless
                tunnel_paths.setdefault(tunnel, self.tunnels[tunnel].path)
            signature = self._group_signature(flows, tunnel_paths)
            previous = self._group_snapshots.get(key)
            if previous is not None and not self._signature_moved(
                previous, signature
            ):
                self.reopt_skipped += 1
                continue
            stale.append((key, flows, candidates, tunnel_paths, signature))
        if not stale:
            return
        self._ask_hecate_batch(
            [
                (candidates, *self._group_intent(flows))
                for _, flows, candidates, _, _ in stale
            ]
        )
        for key, flows, _candidates, tunnel_paths, signature in stale:
            result = assign_flows(
                current=flows,
                tunnel_paths=tunnel_paths,
                capacities=self._effective_link_capacities(flows),
            )
            self.reopt_solved += 1
            for name, tunnel in result.assignment.items():
                if tunnel != flows[name]:
                    self.migrate_flow(name, tunnel)
            # snapshot the POST-assignment membership: an unchanged group
            # next tick means "same flows on the tunnels we just chose"
            self._group_snapshots[key] = (
                tuple(sorted(result.assignment.items())),
                signature[1],
                signature[2],
            )

    def _reoptimize_tick(self) -> None:
        self.reoptimize_now()
        self.reopt_ticks += 1
        if self.on_reopt is not None:
            self.on_reopt(self)
        self.network.sim.schedule(self.reoptimize_every, self._reoptimize_tick)
