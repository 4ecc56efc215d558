"""Declarative scenario specifications.

A :class:`Scenario` is a small, immutable value object that fully
describes one evaluation of the framework:

====================  ====================================================
component             declares
====================  ====================================================
:class:`TopologySpec` which network to build (generator name + kwargs)
:class:`TrafficSpec`  which flows to offer (pattern name + kwargs)
:class:`FailureSpec`  which links/nodes fail, and when
:class:`PolicySpec`   how the framework reacts (objective, regressor,
                      re-optimization period, tunnel fan-out)
:class:`FlowClassSpec` how the hybrid backend splits offered flows into
                      packet-level foreground and fluid background
``backend``           ``"des"`` (packet-level discrete-event emulation via
                      :class:`repro.framework.SelfDrivingNetwork`),
                      ``"fluid"`` (closed-form max-min steady states via
                      :mod:`repro.net.fluid`) or ``"hybrid"``
                      (foreground flows packet-level, background flow
                      classes aggregated into per-link fluid load — see
                      :mod:`repro.scenarios.hybrid`)
====================  ====================================================

Everything downstream — tunnel derivation, traffic generation, failure
scheduling, execution, metric collection — is owned by
:class:`repro.scenarios.runner.ScenarioRunner`.  Specs never hold live
objects, so the same ``Scenario`` can be run repeatedly, on either
backend, with overridden seeds/horizons, and two runs with the same seed
produce identical :class:`~repro.scenarios.runner.ScenarioResult`\\ s.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple

from repro.net.topology import Network
from repro.topologies import (
    fat_tree_topology,
    fig12_capacities,
    global_p4_lab,
    line_topology,
    random_geometric,
    random_wan,
    ring_topology,
)

if TYPE_CHECKING:  # pragma: no cover
    from .dynamic import TrafficPhase

__all__ = [
    "TopologySpec",
    "TrafficSpec",
    "FailureSpec",
    "PolicySpec",
    "FlowClassSpec",
    "ChurnSpec",
    "Scenario",
    "ServiceWorkload",
    "BACKENDS",
    "TOPOLOGY_BUILDERS",
]

#: Built-in execution backends a scenario (or an override) may name.
#: Static so spec validation never triggers registry loading mid-import;
#: third-party names registered via ``repro.backends.register_backend``
#: are accepted through the registry fallback in ``Scenario``.
BACKENDS = ("des", "fluid", "hybrid", "emulation-mock")


def _plugin_backend(name: str) -> bool:
    """Whether ``name`` is a registered non-builtin execution backend.

    Late import: builtin names short-circuit on the static ``BACKENDS``
    tuple above, so this is only consulted for plugin names — and the
    registry's own re-entrancy guard makes it safe even while the
    builtin backends are still importing this module."""
    from repro.backends.base import is_registered

    return is_registered(name)


def _p4lab_fig12(**overrides: Any) -> Network:
    """Global P4 Lab with the paper's Fig. 12 link caps (the default
    "congested" configuration of the testbed)."""
    params: Dict[str, Any] = {"rates": fig12_capacities()}
    params.update(overrides)
    return global_p4_lab(**params)


#: Topology generator registry: ``TopologySpec.kind`` -> builder returning
#: a built :class:`~repro.net.topology.Network`.
TOPOLOGY_BUILDERS: Dict[str, Callable[..., Network]] = {
    "line": line_topology,
    "ring": ring_topology,
    "fat_tree": fat_tree_topology,
    "random_geometric": random_geometric,
    "random_wan": random_wan,
    "global_p4_lab": global_p4_lab,
    "p4lab_fig12": _p4lab_fig12,
}


@dataclass(frozen=True)
class TopologySpec:
    """Which network to build: a generator name plus its kwargs."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> Network:
        try:
            builder = TOPOLOGY_BUILDERS[self.kind]
        except KeyError:
            raise KeyError(
                f"unknown topology kind {self.kind!r}; "
                f"choose from {sorted(TOPOLOGY_BUILDERS)}"
            ) from None
        return builder(**dict(self.params))


@dataclass(frozen=True)
class TrafficSpec:
    """Which flows to offer: a pattern name, a flow budget and kwargs.

    Patterns are registered in :mod:`repro.scenarios.traffic`; the
    ``explicit`` pattern takes literal flow dicts in
    ``params["flows"]`` (used by the paper-figure scenarios).
    """

    pattern: str = "uniform"
    n_flows: int = 6
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class FailureSpec:
    """Which impairments strike the network, and when.

    Kinds (see :mod:`repro.scenarios.failures`):

    - ``"none"`` — healthy network (the default);
    - ``"link_flap"`` — one link fails at ``params["at"]`` and recovers at
      ``params["restore_at"]``, optionally repeating every
      ``params["period"]`` seconds;
    - ``"node_down"`` — every link of ``params["node"]`` fails at
      ``params["at"]`` (and recovers at ``params["restore_at"]`` if set);
    - ``"rolling"`` — a regional outage sweeping across
      ``params["links"]`` (or ``params["count"]`` contiguous picks): each
      link fails for ``params["dwell"]`` seconds and recovers as the next
      one goes down, starting at ``params["at"]``.
    """

    kind: str = "none"
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class PolicySpec:
    """How the framework reacts to what telemetry shows it.

    Parameters
    ----------
    objective:
        Hecate objective forwarded with every flow request — any name in
        the pluggable registry (``repro objectives list``; built-ins are
        ``max_bandwidth`` / ``min_latency`` / ``min_max_utilization`` /
        ``max_qoe``, see :mod:`repro.hecate.objectives`).
    model:
        Regressor behind Hecate's forecaster, resolved by
        :func:`repro.hecate.service.resolve_model`: ``"linear"`` (fast,
        deterministic — the default for scenario sweeps), ``"rfr"``
        (the paper's Random Forest at control-loop size, 30 trees), or
        any entrant of :mod:`repro.ml.registry` by paper id
        (``"R1"``..``"R18"``, ``"X1"``) or label (``"GBR"``).  Names
        are case-sensitive: ``"RFR"``/``"R13"`` is the paper-default
        100-tree forest, not ``"rfr"``.  Only packet-level backends
        read it.
    reoptimize_every:
        If set, the Controller re-runs the joint flow->tunnel assignment
        this often and migrates flows (the self-driving loop).
    reopt_threshold_mbps:
        Incremental re-optimization sensitivity: a flow group is only
        re-solved when a candidate link's telemetry moved more than this
        many Mbps since the group's last solve (membership and link
        up/down changes always re-solve).
    k_paths:
        Candidate tunnels derived per (ingress, egress) router pair when
        the scenario does not pin explicit tunnels.
    telemetry_interval:
        Sampling period of the link/path telemetry agents (seconds).
    """

    objective: str = "max_bandwidth"
    model: str = "linear"
    reoptimize_every: Optional[float] = None
    reopt_threshold_mbps: float = 1.0
    k_paths: int = 3
    telemetry_interval: float = 1.0


@dataclass(frozen=True)
class FlowClassSpec:
    """How the ``hybrid`` backend splits the offered load in two.

    Flows whose names match a ``foreground`` pattern (:mod:`fnmatch`
    globs, checked in offered order) are emulated packet-by-packet
    through the full framework — ACLs, PBR, Hecate placement,
    AIMD/CBR applications.  Everything else is a *background* class:
    aggregated per (ingress, egress) group, spread round-robin over the
    group's candidate tunnels (unmanaged ECMP-style mice, never
    individually steered), solved as a fluid max-min allocation per
    epoch, and applied to the emulator as per-link background load.

    Parameters
    ----------
    foreground:
        Name globs promoting a flow to the packet level.  The default
        matches the elephants every heavy-tailed traffic pattern emits
        plus an explicit ``fg*`` escape hatch.  ICMP probes are always
        promoted regardless of globs or budget — they are latency
        instruments whose whole purpose needs the packet domain.
    max_foreground:
        Hard cap on packet-level flows; matching flows beyond it are
        demoted to background (offered order wins) so one glob cannot
        accidentally drag a 10k-flow scenario into pure DES cost.
    epoch_s:
        Cadence of the background re-solve grid in seconds; phase
        transitions and failure events are always epoch edges on top of
        the grid.  ``None`` disables the grid (solve only at phase /
        failure edges).
    max_epochs:
        Upper bound on solved epochs per run; a finer grid than this is
        coarsened (event coalescing) so a long horizon cannot explode
        into tens of thousands of fluid solves.
    aggregate_background:
        When True, background flows never exist individually even in
        the fluid domain: they are collapsed into per-tunnel **flow
        classes** (columnar arrays + one weighted solver variable per
        class — see :class:`repro.scenarios.hybrid.BackgroundAggregate`)
        so solve cost scales with tunnels, not users.  Routing is
        unchanged (same round-robin spreading); per-mouse rates are no
        longer reported individually (``ScenarioResult.per_flow_mbps``
        then covers foreground only, with class totals in
        ``background_mbps``).  The default keeps the exact per-flow
        fluid bookkeeping, which small suites assert against.
    """

    foreground: Tuple[str, ...] = ("elephant*", "fg*")
    max_foreground: int = 64
    epoch_s: Optional[float] = 1.0
    max_epochs: int = 256
    aggregate_background: bool = False

    def __post_init__(self) -> None:
        if self.max_foreground < 0:
            raise ValueError("max_foreground must be >= 0")
        if self.epoch_s is not None and self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive (or None)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass(frozen=True)
class ChurnSpec:
    """Open-loop offered load for service mode: how flows arrive, how
    long they hold, and what the admission controller tolerates.

    Arrivals
    --------
    ``arrival="poisson"`` draws exponential inter-arrival gaps at
    ``rate`` flows/second; ``rate_profile="diurnal"`` modulates that
    rate sinusoidally (thinning at the peak rate, so the schedule stays
    a deterministic function of the seed):
    ``rate(t) = rate * (1 + diurnal_amplitude * sin(2*pi*t/diurnal_period
    - pi/2))`` — trough at t=0, peak half a period in.
    ``arrival="trace"`` replays the explicit ``trace`` tuple of arrival
    times instead (rate/profile ignored).

    Holding times
    -------------
    ``holding="exponential"`` draws from Exp(``mean_holding_s``);
    ``"lognormal"`` from a lognormal with that mean and shape
    ``sigma`` (heavy-tailed sessions).

    Admission
    ---------
    A token bucket refilling at ``admission_rate`` tokens/second with
    depth ``admission_burst`` gates every submission.  On exhaustion,
    ``on_exhausted="reject"`` drops the request (counted), while
    ``"defer"`` queues it for replay — in submission order — at the
    next batch tick with tokens available.

    ``batch_interval_s`` is the driver's virtual-time batching quantum:
    arrivals due within one quantum are submitted together (placement
    latency is measured from arrival to the admitting batch tick).
    ``launch_apps=False`` (the default) places flows on the control
    plane only — at hundreds of placements/second the DES cannot afford
    per-packet events, and admission/SLO behaviour is control-plane.
    ``n_pairs`` bounds how many (src, dst) host pairs the workload
    spreads arrivals over (tunnels are derived for exactly those pairs).
    """

    rate: float = 50.0
    arrival: str = "poisson"
    trace: Optional[Tuple[float, ...]] = None
    rate_profile: str = "constant"
    diurnal_amplitude: float = 0.5
    diurnal_period: float = 60.0
    holding: str = "exponential"
    mean_holding_s: float = 2.0
    sigma: float = 1.0
    n_pairs: int = 4
    protocol: str = "udp"
    rate_mbps: float = 2.0
    batch_interval_s: float = 0.1
    admission_rate: float = 1000.0
    admission_burst: int = 64
    on_exhausted: str = "defer"
    launch_apps: bool = False

    def __post_init__(self) -> None:
        if self.arrival not in ("poisson", "trace"):
            raise ValueError(
                f"arrival must be 'poisson' or 'trace', got {self.arrival!r}"
            )
        if self.arrival == "trace":
            if not self.trace:
                raise ValueError("arrival='trace' needs a non-empty trace")
            times = tuple(self.trace)
            if any(t < 0 for t in times) or list(times) != sorted(times):
                raise ValueError("trace times must be sorted and non-negative")
        elif self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.rate_profile not in ("constant", "diurnal"):
            raise ValueError(
                "rate_profile must be 'constant' or 'diurnal', "
                f"got {self.rate_profile!r}"
            )
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period <= 0:
            raise ValueError("diurnal_period must be positive")
        if self.holding not in ("exponential", "lognormal"):
            raise ValueError(
                "holding must be 'exponential' or 'lognormal', "
                f"got {self.holding!r}"
            )
        if self.mean_holding_s <= 0:
            raise ValueError("mean_holding_s must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if self.batch_interval_s <= 0:
            raise ValueError("batch_interval_s must be positive")
        if self.admission_rate < 0:
            raise ValueError("admission_rate must be non-negative")
        if self.admission_burst < 0:
            raise ValueError("admission_burst must be >= 0")
        if self.on_exhausted not in ("reject", "defer"):
            raise ValueError(
                "on_exhausted must be 'reject' or 'defer', "
                f"got {self.on_exhausted!r}"
            )
        if self.protocol not in ("tcp", "udp", "icmp"):
            raise ValueError(f"unsupported protocol {self.protocol!r}")
        if self.rate_mbps <= 0:
            raise ValueError("rate_mbps must be positive")


@dataclass(frozen=True)
class ServiceWorkload:
    """One registered open-loop service-mode run: a topology under a
    churn program, evaluated for ``duration`` seconds of virtual time
    (the first ``warmup`` seconds excluded from SLO percentiles, never
    from admission counters).

    The service driver (:mod:`repro.framework.service_mode`) owns
    execution; this spec stays a pure value object like
    :class:`Scenario`, so registered workloads can be re-run with
    overridden rate/duration/seed and same-seed runs are bit-identical.
    """

    name: str
    description: str
    topology: TopologySpec
    churn: ChurnSpec = ChurnSpec()
    policy: PolicySpec = PolicySpec()
    duration: float = 60.0
    warmup: float = 5.0
    seed: int = 0
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must satisfy 0 <= warmup < duration")

    def with_overrides(self, **changes: Any) -> "ServiceWorkload":
        """A copy with the given fields replaced (spec stays immutable)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class Scenario:
    """One fully-described evaluation of the framework.

    ``horizon`` is measured from the instant traffic is offered; the DES
    backend first runs ``warmup`` seconds of telemetry-only time so
    Hecate has history to decide with (the paper warms its testbed the
    same way).  ``tunnels``, when set, pins explicit candidate tunnels
    as ``(name, tunnel_id, router path)`` triples — the paper scenarios
    use this to reproduce Tunnels 1-3; generated topologies leave it
    ``None`` and let the runner derive ``k_paths`` shortest paths per
    (ingress, egress) pair.

    ``phases``, when set, declares a *time-varying* traffic program as a
    tuple of :class:`~repro.scenarios.dynamic.TrafficPhase` entries
    (strictly increasing ``at_frac`` horizon fractions); the ``traffic``
    field is then ignored and the runner compiles the timeline via
    :func:`~repro.scenarios.dynamic.compile_phases`.
    """

    name: str
    description: str
    topology: TopologySpec
    traffic: TrafficSpec = TrafficSpec()
    failures: FailureSpec = FailureSpec()
    policy: PolicySpec = PolicySpec()
    classes: FlowClassSpec = FlowClassSpec()
    backend: str = "des"
    horizon: float = 60.0
    warmup: float = 5.0
    seed: int = 0
    tunnels: Optional[Tuple[Tuple[str, int, Tuple[str, ...]], ...]] = None
    phases: Optional[Tuple["TrafficPhase", ...]] = None
    #: free-form labels; the ``"scale"`` tag marks scenarios sized for
    #: the hybrid backend (thousands of flows) that registry-wide tools
    #: (``--all`` sweeps, whole-suite tests) exclude by default.
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS and not _plugin_backend(
            self.backend
        ):
            raise ValueError(
                f"backend must be one of {BACKENDS} or a registered "
                f"execution backend, got {self.backend!r}"
            )
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.phases is not None:
            if not self.phases:
                raise ValueError("phases, when set, must be non-empty")
            fracs = [phase.at_frac for phase in self.phases]
            if fracs != sorted(set(fracs)):
                raise ValueError(
                    "phase at_fracs must be strictly increasing, "
                    f"got {fracs}"
                )

    def with_overrides(self, **changes: Any) -> "Scenario":
        """A copy with the given fields replaced (spec stays immutable)."""
        return dataclasses.replace(self, **changes)

    def quick(self, horizon: float = 8.0, warmup: float = 2.0) -> "Scenario":
        """A short-horizon copy for tests and smoke runs."""
        return self.with_overrides(horizon=horizon, warmup=warmup)
