"""SelfDrivingNetwork: one object wiring the whole Fig. 3 architecture.

The paper's contribution is an *integration*: six services that only
talk through a message queue, closing the telemetry -> ML -> routing
loop.  Constructing a :class:`SelfDrivingNetwork` assembles exactly that
picture over one shared :class:`~repro.bus.MessageBus` and one
deterministic simulator clock:

========================  =================================================
component                 role (Fig. 3 name)
========================  =================================================
``network``               the emulated testbed (virtualized Global P4 Lab)
``router_config``         PolKA/freeRtr reconfiguration service, topic
                          ``freertr.reconfig``
``telemetry``             Telemetry Service + time-series DB, topics
                          ``telemetry.start`` / ``telemetry.get``
``hecate``                the ML Optimizer, topic ``hecate.ask_path``
``scheduler``             user-request intake, topic ``scheduler.new_flow``
``controller``            closes the loop: placement, PBR binds, migration
``dashboard``             user entry point + terminal "link occupation"
                          views, topic ``dashboard.insert_new_flow``
========================  =================================================

Lifecycle: construct (telemetry starts sampling immediately), register
candidate tunnels with :meth:`add_tunnel`, advance virtual time with
:meth:`run` until Hecate has history, then :meth:`request_flow` — the
full Fig. 4 sequence executes synchronously over the bus and the traffic
application starts inside the simulation.  Everything is deterministic:
two identically-constructed instances driven identically produce
bit-identical telemetry, decisions and flow metrics (the property the
scenario suite's reproducibility tests pin down).

This façade is what examples, experiments and the scenario runner
(:mod:`repro.scenarios`) all build on — the closest thing in this repo
to "deploying the framework" on a testbed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.bus import MessageBus
from repro.freertr.service import RouterConfigService
from repro.hecate.service import HecateService, default_model_factory
from repro.net.topology import Network

from .controller import Controller, FlowRecord
from .dashboard import Dashboard
from .scheduler import Scheduler
from .telemetry_service import TelemetryService

__all__ = ["SelfDrivingNetwork"]


class SelfDrivingNetwork:
    """The integrated Hecate-PolKA framework on an emulated testbed.

    Parameters
    ----------
    network:
        A built :class:`repro.net.Network` (e.g.
        :func:`repro.topologies.global_p4_lab`).
    model_factory:
        Regressor used by Hecate's predictor (default: the paper's RFR).
    telemetry_interval:
        Sampling period for link and path telemetry (the paper collects
        at predefined intervals; 1 s like its second-granularity data).
    reoptimize_every:
        If set, the Controller re-asks Hecate this often and migrates
        flows whose recommendation changed.
    reopt_threshold_mbps:
        Telemetry movement (Mbps per candidate link) below which an
        unchanged flow group is skipped by the incremental
        re-optimization tick.
    launch_apps:
        When False the Controller places flows on the control plane only
        (ACL + PBR + record) without packet-level traffic apps — the
        mode the open-loop service driver runs in.
    audit_window:
        Optional bound on the three audit trails — the bus log, the
        Scheduler's request trail and the Controller's decision log
        each keep this many most-recent entries.  Finite scenarios keep
        the unbounded default; a long-lived service must bound them or
        its footprint grows with lifetime arrivals.
    """

    def __init__(
        self,
        network: Network,
        model_factory: Callable[[], object] = default_model_factory,
        telemetry_interval: float = 1.0,
        reoptimize_every: Optional[float] = None,
        reopt_threshold_mbps: float = 1.0,
        launch_apps: bool = True,
        audit_window: Optional[int] = None,
    ):
        self.network = network
        self.bus = MessageBus(log_limit=audit_window)
        self.router_config = RouterConfigService(network, self.bus)
        self.telemetry = TelemetryService(
            network, self.bus, interval=telemetry_interval
        )
        self.hecate = HecateService(
            self.telemetry.db, bus=self.bus, model_factory=model_factory
        )
        self.scheduler = Scheduler(self.bus, audit_limit=audit_window)
        self.controller = Controller(
            network,
            self.bus,
            self.telemetry,
            reoptimize_every=reoptimize_every,
            reopt_threshold_mbps=reopt_threshold_mbps,
            launch_apps=launch_apps,
            decision_log_limit=audit_window,
        )
        self.dashboard = Dashboard(self.bus, self.telemetry.db, self.controller)
        self.telemetry.start()

    # ------------------------------------------------------------- setup

    def add_tunnel(self, name: str, tunnel_id: int, path: Sequence[str]) -> None:
        """Register a candidate PolKA tunnel (creates route + telemetry)."""
        self.controller.register_tunnel(name, tunnel_id, path)

    # -------------------------------------------------------------- flows

    def request_flow(self, **kwargs) -> Dict:
        """User-level entry point (Dashboard -> Scheduler -> Controller)."""
        return self.dashboard.request_flow(**kwargs)

    def flow(self, name: str) -> FlowRecord:
        return self.controller.flows[name]

    def migrate_flow(self, flow_name: str, tunnel_name: str) -> None:
        self.controller.migrate_flow(flow_name, tunnel_name)

    def retire_flow(self, flow_name: str) -> FlowRecord:
        """Tear down a departed flow end to end: Controller state (app,
        PBR entry, access-list, group snapshot) and the Scheduler's
        dedup entry — the full inverse of :meth:`request_flow`, so a
        long-lived deployment's footprint tracks *concurrent* flows."""
        record = self.controller.remove_flow(flow_name)
        self.scheduler.retire(flow_name)
        return record

    # ---------------------------------------------------------------- run

    def run(self, until: float) -> None:
        self.network.run(until)

    @property
    def db(self):
        return self.telemetry.db

    def decision_log(self) -> List[Dict]:
        return list(self.controller.decisions)
