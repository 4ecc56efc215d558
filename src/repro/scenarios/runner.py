"""ScenarioRunner: execute any Scenario, on any registered backend.

The runner turns a declarative :class:`~repro.scenarios.spec.Scenario`
into a :class:`ScenarioResult` through three phases:

1. **setup** — build the topology
   (:class:`~repro.scenarios.spec.TopologySpec`), derive tunnels
   (explicit triples when the scenario pins them, otherwise the
   ``k_paths`` shortest router paths for every (ingress, egress) pair
   the traffic uses), generate traffic
   (:mod:`repro.scenarios.traffic`) and plan failures
   (:mod:`repro.scenarios.failures`) from one seeded rng in that fixed
   order, so every backend sees the identical workload.  What else is
   assembled is keyed off the backend's declared
   :class:`~repro.backends.base.BackendCapabilities`: packet-level
   backends get the full :class:`~repro.framework.SelfDrivingNetwork`
   stack, flow-class backends get the foreground/background split;

2. **backend dispatch** — resolve the configured backend in the
   execution-backend registry (:func:`repro.backends.base.get_backend`),
   instantiate it for this scenario, and drive the three-stage protocol:
   ``prepare(scenario, network, tunnels, context)`` → ``execute()`` →
   ``collect()``.  The backend implementations (DES, fluid, hybrid,
   the emulation bridge) live in :mod:`repro.backends`; see
   docs/BACKENDS.md for each one's model and metric semantics;

3. **uniform result validation** — every backend's
   :class:`ScenarioResult` is checked against the prepared workload
   (right scenario/seed/horizon, ``offered`` equals the generated flow
   count, ``placed + rejected`` accounts for every offered flow) before
   it is returned, so a buggy backend fails loudly instead of flowing
   bad rows into sweeps.

Staged use (for experiments that need mid-run control, e.g. the Fig. 11
and Fig. 12 replays): call :meth:`ScenarioRunner.setup`, drive
``runner.sdn`` yourself, then :meth:`ScenarioRunner.inject_traffic` and
your own phase logic, then :meth:`ScenarioRunner.collect`.

Dynamic scenarios (``Scenario.phases`` set) compile their phase timeline
into the same flat ``FlowRequest`` list via
:func:`repro.scenarios.dynamic.compile_phases`, so every backend applies
phase transitions mid-run through its existing machinery: DES schedules
each flow at its absolute start offset, and the fluid model re-solves
per capacity epoch (phase boundaries are epoch edges).

Metric semantics differ slightly by backend and are recorded as-is:
``drops`` counts tail-dropped packets in DES but (flow, epoch) outages in
fluid; ``migrations`` counts PBR re-binds in DES but assignment moves off
the default tunnel in fluid.  ICMP probe flows report 0 Mbps on every
backend (they are latency instruments, not load).  Link capacities are
**directed**: each direction of a full-duplex link has its own budget
(:func:`repro.net.fluid.link_capacities` emits both directions), so
bidirectional workloads never wrongly compete for one shared entry.
"""

from __future__ import annotations

from dataclasses import asdict
from itertools import islice
from typing import List, Optional, Sequence, Tuple, Type, Union

import networkx as nx
import numpy as np

from repro.backends.base import ExecutionBackend, get_backend
from repro.framework import SelfDrivingNetwork
from repro.framework.scheduler import FlowRequest
from repro.hecate.service import resolve_model
from repro.net.topology import Network

from .dynamic import compile_phases
from .failures import FailureEvent, plan_failures
from .hybrid import split_requests
from .result import ScenarioResult  # noqa: F401  (historical import path)
from .spec import Scenario
from .traffic import generate_traffic

__all__ = [
    "ScenarioResult",
    "ScenarioRunner",
    "derive_tunnels",
    "derive_tunnels_for_pairs",
]


def derive_tunnels(
    network: Network,
    requests: Sequence[FlowRequest],
    k_paths: int,
) -> Tuple[Tuple[str, int, Tuple[str, ...]], ...]:
    """Candidate tunnels: ``k_paths`` shortest router paths per
    (ingress, egress) pair used by the traffic, in traffic order."""
    pairs: List[Tuple[str, str]] = []
    seen: set = set()  # membership test; scale-tier request lists are long
    for request in requests:
        pair = (
            network.edge_router_of(request.src),
            network.edge_router_of(request.dst),
        )
        if pair[0] != pair[1] and pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return derive_tunnels_for_pairs(network, pairs, k_paths)


def derive_tunnels_for_pairs(
    network: Network,
    pairs: Sequence[Tuple[str, str]],
    k_paths: int,
) -> Tuple[Tuple[str, int, Tuple[str, ...]], ...]:
    """Candidate tunnels for explicit (ingress, egress) router pairs —
    the pair-first entry point service mode uses, where the pair set is
    fixed up front and flows arrive forever (so tunnels cannot be
    derived from a finite request list)."""
    router_graph = network.graph.subgraph(network.routers)
    tunnels: List[Tuple[str, int, Tuple[str, ...]]] = []
    tid = 1
    for ingress, egress in pairs:
        for path in islice(
            nx.shortest_simple_paths(router_graph, ingress, egress), k_paths
        ):
            tunnels.append((f"T{tid}", tid, tuple(path)))
            tid += 1
    return tuple(tunnels)


class ScenarioRunner:
    """Executes one :class:`Scenario`; see the module docstring.

    ``backend`` accepts a registered name (``"des"``, ``"fluid"``, ...,
    resolved through :func:`repro.backends.base.get_backend`), an
    :class:`~repro.backends.base.ExecutionBackend` subclass, or a
    prepared-for-reuse backend *instance* (single-use: one instance, one
    run).  Defaults to the scenario's own ``backend`` field.
    """

    def __init__(
        self,
        scenario: Scenario,
        backend: Union[
            str, Type[ExecutionBackend], ExecutionBackend, None
        ] = None,
        seed: Optional[int] = None,
    ):
        self.scenario = scenario
        self._backend_instance: Optional[ExecutionBackend] = None
        if backend is None:
            backend = scenario.backend
        if isinstance(backend, str):
            try:
                self._backend_cls: Type[ExecutionBackend] = get_backend(
                    backend
                )
            except KeyError:
                raise ValueError(f"unknown backend {backend!r}") from None
        elif isinstance(backend, type) and issubclass(
            backend, ExecutionBackend
        ):
            self._backend_cls = backend
        elif isinstance(backend, ExecutionBackend):
            self._backend_instance = backend
            self._backend_cls = type(backend)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        #: registry name of the configured backend (string API).
        self.backend: str = self._backend_cls.name
        self._caps = self._backend_cls.capabilities()
        self.seed = scenario.seed if seed is None else int(seed)
        self.network: Optional[Network] = None
        self.sdn: Optional[SelfDrivingNetwork] = None
        self.tunnels: Tuple[Tuple[str, int, Tuple[str, ...]], ...] = ()
        self.requests: List[FlowRequest] = []
        #: flow-class backends only: the class partition of ``requests``
        self.foreground: List[FlowRequest] = []
        self.background: List[FlowRequest] = []
        self.failure_plan: Tuple[FailureEvent, ...] = ()
        self.placed = 0
        self.rejected = 0
        self._injected = False
        self._armed = False

    # ----------------------------------------------------------- assembly

    def setup(self) -> "ScenarioRunner":
        """Build network + tunnels + workload (and, for packet-level
        backends, the framework stack).  Idempotent; returns self for
        chaining."""
        if self.network is not None:
            return self
        scenario = self.scenario
        # on every backend, so a mistyped name raises even where no model
        # is ever fitted (fluid, emulation-mock)
        model_factory = resolve_model(scenario.policy.model)
        rng = np.random.default_rng(self.seed)
        self.network = scenario.topology.build()
        # fixed order: traffic first, then failures, so a given seed means
        # the same workload regardless of failure model changes
        if scenario.phases is not None:
            self.requests = compile_phases(
                self.network, scenario.phases, scenario.horizon, rng
            )
        else:
            self.requests = generate_traffic(
                self.network, scenario.traffic, scenario.horizon, rng
            )
        self.failure_plan = plan_failures(
            self.network, scenario.failures, scenario.horizon, rng
        )
        if scenario.tunnels is not None:
            self.tunnels = tuple(
                (name, tid, tuple(path))
                for name, tid, path in scenario.tunnels
            )
        else:
            self.tunnels = derive_tunnels(
                self.network, self.requests, scenario.policy.k_paths
            )
        if not self.tunnels and self.requests:
            raise ValueError(
                f"scenario {scenario.name!r} derives no tunnels; "
                "check its topology and traffic"
            )
        if self._caps.uses_flow_classes:
            self.foreground, self.background = split_requests(
                self.requests, scenario.classes
            )
        if self._caps.packet_level:
            self.sdn = SelfDrivingNetwork(
                self.network,
                model_factory=model_factory,
                telemetry_interval=scenario.policy.telemetry_interval,
                reoptimize_every=scenario.policy.reoptimize_every,
                reopt_threshold_mbps=scenario.policy.reopt_threshold_mbps,
            )
            for name, tid, path in self.tunnels:
                self.sdn.add_tunnel(name, tid, path)
        return self

    def inject_traffic(self) -> Tuple[int, int]:
        """Offer every packet-level flow through the Dashboard
        (packet-level backends).

        Returns ``(placed, rejected)``.  On flow-class backends only the
        foreground class is offered — background flows never reach the
        framework; they are fluid load.  Flow ``start_at`` offsets are
        relative to this call (normally the end of warmup).  The
        scenario-wide policy objective applies to every flow that did
        not set its own; an explicit per-flow objective wins."""
        if self.sdn is None:
            raise RuntimeError(
                "call setup() first (packet-level backends only)"
            )
        if self._injected:
            return self.placed, self.rejected
        self._injected = True
        offered = (
            self.foreground if self._caps.uses_flow_classes
            else self.requests
        )
        default_objective = FlowRequest.__dataclass_fields__[
            "objective"
        ].default
        for request in offered:
            kwargs = asdict(request)
            if request.objective == default_objective:
                kwargs["objective"] = self.scenario.policy.objective
            reply = self.sdn.request_flow(**kwargs)
            controller_ok = reply.get("ok") and reply.get(
                "controller", {}
            ).get("ok")
            if controller_ok:
                self.placed += 1
            else:
                self.rejected += 1
        return self.placed, self.rejected

    def arm_failures(self) -> None:
        """Schedule the failure plan on the simulator, offset so event
        times are relative to the start of traffic (packet-level
        backends)."""
        if self.sdn is None:
            raise RuntimeError(
                "call setup() first (packet-level backends only)"
            )
        if self._armed:
            return
        self._armed = True
        assert self.network is not None
        sim = self.network.sim
        base = sim.now

        def apply(event: FailureEvent) -> None:
            assert self.network is not None
            if event.action == "fail":
                self.network.fail_link(event.a, event.b)
            else:
                self.network.restore_link(event.a, event.b)

        for event in self.failure_plan:
            sim.schedule_at(base + event.at, lambda e=event: apply(e))

    # ---------------------------------------------------------- execution

    def run(self) -> ScenarioResult:
        """Execute the scenario end-to-end on the configured backend:
        setup → backend dispatch → uniform result validation."""
        self.setup()
        backend = self._backend_instance
        if backend is None:
            backend = self._backend_cls()
        assert self.network is not None
        backend.prepare(self.scenario, self.network, self.tunnels, self)
        backend.execute()
        result = backend.collect()
        self._validate(result)
        return result

    def _validate(self, result: ScenarioResult) -> ScenarioResult:
        """Uniform cross-backend result validation: the result must
        describe the run this runner prepared, and account for every
        offered flow.  A backend that drops flows on the floor fails
        here instead of feeding bad rows into sweeps."""
        scenario = self.scenario
        problems = []
        if result.scenario != scenario.name:
            problems.append(
                f"scenario {result.scenario!r} != {scenario.name!r}"
            )
        if result.seed != self.seed:
            problems.append(f"seed {result.seed} != {self.seed}")
        if result.horizon_s != scenario.horizon:
            problems.append(
                f"horizon {result.horizon_s!r} != {scenario.horizon!r}"
            )
        if result.offered != len(self.requests):
            problems.append(
                f"offered {result.offered} != {len(self.requests)} requests"
            )
        if result.placed + result.rejected != result.offered:
            problems.append(
                f"placed {result.placed} + rejected {result.rejected} "
                f"!= offered {result.offered}"
            )
        if problems:
            raise ValueError(
                f"backend {result.backend!r} returned an inconsistent "
                "result: " + "; ".join(problems)
            )
        return result

    # --------------------------------------------------------- collection

    def collect(self) -> ScenarioResult:
        """Uniform metrics from a DES run (callable after staged use)."""
        if self.sdn is None:
            raise RuntimeError("collect() needs a DES run; see setup()")
        from repro.backends.des import collect_des

        return collect_des(self)
