"""Open-loop service mode: sustained flow churn against the framework.

Scenarios (:mod:`repro.scenarios`) evaluate a *finite* offered load over
a fixed horizon; a deployed controller instead faces an endless stream
of flows arriving, holding, and departing.  This module is that
operating regime: an open-loop driver generates Poisson (or
trace-driven) arrivals with exponential/lognormal holding times, pushes
them through the real Scheduler -> Controller pipeline over the message
bus, retires each flow when its holding time expires, and measures the
steady-state service-level behaviour — placement latency percentiles,
admission outcomes, and re-optimization convergence — in the columnar
telemetry store.

Layers
------
:func:`generate_schedule`
    The entire arrival schedule is a pure, precomputed function of
    ``(ChurnSpec, duration, seed)``: one ``numpy`` generator, a fixed
    per-arrival draw order, diurnal rates via thinning at the peak rate.
    Same seed, byte-identical schedule — the foundation every
    determinism guarantee above it rests on.
:class:`TokenBucket`
    The admission controller: ``admission_rate`` tokens/second, depth
    ``admission_burst``, refilled lazily on virtual time.  Exhaustion
    either rejects (counted, dropped) or defers (queued, replayed in
    submission order once tokens return).
:class:`SLOCollector`
    Steady-state metrics in the columnar store: one
    :class:`~repro.net.telemetry.ColumnGroup` row of admission counters
    per batch tick, plus per-placement latency and per-settle
    re-optimization convergence series.  Samples arriving before
    ``warmup`` are excluded from percentiles (counters always cover the
    whole run).
:class:`ServiceDriver` / :func:`run_service`
    Batches due arrivals every ``batch_interval_s`` of virtual time,
    admits through the bucket, submits via the Scheduler, schedules each
    admitted flow's departure, and retires it end to end (Controller
    record, PBR entry, ACL, Scheduler dedup entry) when it fires.

Determinism
-----------
Placement latency is *virtual-time* queueing delay — arrival instant to
the batch tick that admitted the flow (batching plus any deferral wait).
No wall-clock value enters :class:`ServiceResult`, so two same-seed runs
serialize to byte-identical JSON; ``retired_digest`` (sha256 over the
sorted retired-flow names) pins the retired set without embedding
thousands of names in every artifact.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.hecate.service import resolve_model
from repro.net.telemetry import TimeSeriesDB
from repro.scenarios.runner import derive_tunnels_for_pairs
from repro.scenarios.spec import ChurnSpec, ServiceWorkload
from repro.scenarios.traffic import host_pairs

from .orchestrator import SelfDrivingNetwork
from .scheduler import FlowRequest

__all__ = [
    "ScheduledFlow",
    "generate_schedule",
    "TokenBucket",
    "SLOCollector",
    "ServiceResult",
    "ServiceDriver",
    "run_service",
]

#: Retention for the audit trails a long-lived service must bound
#: (bus log, scheduler request trail, controller decision log).
_AUDIT_WINDOW = 4096

#: Columnar layout of the per-batch-tick admission counter row.
COUNTER_METRICS = (
    "service:offered",
    "service:admitted",
    "service:rejected",
    "service:deferred",
    "service:placed",
    "service:active",
)

PLACEMENT_LATENCY_METRIC = "service:placement_latency_ms"
CONVERGENCE_METRIC = "service:reopt_convergence_s"


# --------------------------------------------------------------- arrivals


@dataclass(frozen=True)
class ScheduledFlow:
    """One precomputed arrival: when it arrives, how long it holds,
    which host pair it joins.  ``tos`` cycles through the 255 non-zero
    ToS bytes so concurrent flows of one pair stay distinguishable to
    the ingress access-lists (same trick as the scenario traffic)."""

    index: int
    name: str
    at: float
    holding: float
    src: str
    dst: str
    tos: int


def _draw_holding(rng: np.random.Generator, churn: ChurnSpec) -> float:
    if churn.holding == "exponential":
        return float(rng.exponential(churn.mean_holding_s))
    # lognormal parameterized by its *mean*: mu = ln(mean) - sigma^2/2
    mu = float(np.log(churn.mean_holding_s) - churn.sigma**2 / 2.0)
    return float(rng.lognormal(mean=mu, sigma=churn.sigma))


def generate_schedule(
    churn: ChurnSpec,
    duration: float,
    seed: int,
    pairs: Sequence[Tuple[str, str]],
) -> Tuple[ScheduledFlow, ...]:
    """The full arrival schedule, precomputed and deterministic.

    One ``default_rng(seed)`` with a fixed per-arrival draw order —
    inter-arrival gap, thinning uniform (diurnal only), holding time,
    pair index — so the schedule is a pure function of
    ``(churn, duration, seed, pairs)`` and a same-seed rerun reproduces
    it byte for byte.

    ``rate_profile="diurnal"`` uses thinning: candidates are drawn at
    the peak rate ``rate * (1 + amplitude)`` and kept with probability
    ``rate(t) / peak``, where ``rate(t)`` follows a sinusoid with its
    trough at t=0 and peak half a period in.  Thinning keeps the draw
    count coupled to the seed alone (no numerical integration of the
    rate curve), which is what keeps diurnal schedules deterministic.
    """
    if not pairs:
        raise ValueError("need at least one (src, dst) host pair")
    rng = np.random.default_rng(seed)
    flows: List[ScheduledFlow] = []

    def emit(at: float) -> None:
        index = len(flows)
        holding = _draw_holding(rng, churn)
        pair_idx = int(rng.integers(0, len(pairs)))
        src, dst = pairs[pair_idx]
        flows.append(
            ScheduledFlow(
                index=index,
                name=f"svc{index:06d}",
                at=float(at),
                holding=holding,
                src=src,
                dst=dst,
                tos=(index % 255) + 1,
            )
        )

    if churn.arrival == "trace":
        for at in churn.trace or ():
            if at >= duration:
                break
            emit(at)
        return tuple(flows)

    if churn.rate_profile == "constant":
        t = float(rng.exponential(1.0 / churn.rate))
        while t < duration:
            emit(t)
            t += float(rng.exponential(1.0 / churn.rate))
        return tuple(flows)

    # diurnal: thinning at the peak rate
    peak = churn.rate * (1.0 + churn.diurnal_amplitude)
    omega = 2.0 * np.pi / churn.diurnal_period
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= duration:
            break
        accept = float(rng.random())
        rate_t = churn.rate * (
            1.0 + churn.diurnal_amplitude * np.sin(omega * t - np.pi / 2.0)
        )
        if accept < rate_t / peak:
            emit(t)
    return tuple(flows)


# -------------------------------------------------------------- admission


class TokenBucket:
    """Virtual-time token bucket: ``rate`` tokens/second, depth
    ``depth``, starting full.  Lazy refill — tokens accrue continuously
    between :meth:`try_take` calls, capped at the depth — so a burst of
    exactly ``depth`` simultaneous arrivals is admitted in full and a
    zero-rate zero-depth bucket admits nothing."""

    def __init__(self, rate: float, depth: int):
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.rate = float(rate)
        self.depth = float(depth)
        self.tokens = float(depth)
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(self.depth, self.tokens + (now - self._last) * self.rate)
            self._last = now

    def try_take(self, now: float) -> bool:
        """Consume one token at virtual time ``now`` if available."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


# ------------------------------------------------------------------- SLO


class SLOCollector:
    """Steady-state service metrics in the columnar store.

    Per batch tick, one row of cumulative admission counters
    (:data:`COUNTER_METRICS`); per placement, the virtual-time queueing
    latency; per re-optimization settle, the convergence time.  Samples
    whose *arrival* predates ``warmup`` never enter the percentile
    pools — the warm-up transient (empty network, cold caches) would
    otherwise understate steady-state queueing."""

    def __init__(self, db: TimeSeriesDB, warmup: float):
        self.db = db
        self.warmup = warmup
        self._counters = db.column_group(list(COUNTER_METRICS))
        self.placement_ms: List[float] = []
        self.convergence_s: List[float] = []

    def record_tick(self, t: float, row: Sequence[float]) -> None:
        self._counters.append(t, row)

    def record_placement(self, arrived_at: float, placed_at: float) -> None:
        latency_ms = (placed_at - arrived_at) * 1000.0
        if arrived_at >= self.warmup:
            self.placement_ms.append(latency_ms)
            self.db.insert(PLACEMENT_LATENCY_METRIC, placed_at, latency_ms)

    def record_convergence(self, settled_at: float, settle_s: float) -> None:
        if settled_at >= self.warmup:
            self.convergence_s.append(settle_s)
            self.db.insert(CONVERGENCE_METRIC, settled_at, settle_s)

    @staticmethod
    def percentile(samples: Sequence[float], q: float) -> float:
        if not samples:
            return 0.0
        return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


# ----------------------------------------------------------------- result


@dataclass(frozen=True)
class ServiceResult:
    """One service-mode run's deterministic outcome.

    Every field is a pure function of ``(workload, overrides, seed)`` —
    virtual-time latencies, counters, and the sha256 digest of the
    sorted retired-flow names — so ``to_dict`` output (and therefore its
    JSON serialization) is byte-identical across same-seed runs.  The
    admission counters reconcile exactly::

        admitted + rejected + deferred_pending == offered
        placed + place_failed                  == admitted
        placed - retired                       == active_at_end
    """

    workload: str
    seed: int
    rate: float
    duration_s: float
    warmup_s: float
    tunnels: int
    batches: int
    offered: int
    admitted: int
    rejected: int
    deferrals: int
    replayed: int
    deferred_pending: int
    placed: int
    place_failed: int
    retired: int
    active_at_end: int
    placement_p50_ms: float
    placement_p95_ms: float
    placement_p99_ms: float
    placement_samples: int
    reopt_ticks: int
    migrations: int
    convergence_p50_s: float
    convergence_p95_s: float
    convergence_samples: int
    retired_digest: str
    sim_events: int
    telemetry_samples: int

    _FIELD_TYPES = {
        "workload": str,
        "seed": int,
        "rate": float,
        "duration_s": float,
        "warmup_s": float,
        "tunnels": int,
        "batches": int,
        "offered": int,
        "admitted": int,
        "rejected": int,
        "deferrals": int,
        "replayed": int,
        "deferred_pending": int,
        "placed": int,
        "place_failed": int,
        "retired": int,
        "active_at_end": int,
        "placement_p50_ms": float,
        "placement_p95_ms": float,
        "placement_p99_ms": float,
        "placement_samples": int,
        "reopt_ticks": int,
        "migrations": int,
        "convergence_p50_s": float,
        "convergence_p95_s": float,
        "convergence_samples": int,
        "retired_digest": str,
        "sim_events": int,
        "telemetry_samples": int,
    }

    def reconciles(self) -> bool:
        """Exact admission-ledger check (see the class docstring)."""
        return (
            self.admitted + self.rejected + self.deferred_pending == self.offered
            and self.placed + self.place_failed == self.admitted
            and self.placed - self.retired == self.active_at_end
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of plain builtins (inverse of :meth:`from_dict`);
        numpy scalars are coerced so artifacts never embed dtypes."""
        return {
            name: coerce(getattr(self, name))
            for name, coerce in self._FIELD_TYPES.items()
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServiceResult":
        return cls(
            **{
                name: coerce(payload[name])
                for name, coerce in cls._FIELD_TYPES.items()
            }
        )

    def summary(self) -> str:
        lines = [
            f"service {self.workload} seed={self.seed} "
            f"rate={self.rate:g}/s duration={self.duration_s:g}s "
            f"warmup={self.warmup_s:g}s ({self.tunnels} tunnels, "
            f"{self.batches} batch ticks)",
            f"  admission : {self.offered} offered = {self.admitted} admitted"
            f" + {self.rejected} rejected + {self.deferred_pending} still "
            f"deferred ({self.deferrals} deferrals, {self.replayed} replayed)"
            + ("" if self.reconciles() else "  ** UNRECONCILED **"),
            f"  placement : {self.placed} placed, {self.place_failed} failed, "
            f"{self.retired} retired, {self.active_at_end} active at end",
            f"  latency   : p50={self.placement_p50_ms:.2f} ms  "
            f"p95={self.placement_p95_ms:.2f} ms  "
            f"p99={self.placement_p99_ms:.2f} ms  "
            f"({self.placement_samples} samples past warmup)",
            f"  reopt     : {self.reopt_ticks} ticks, {self.migrations} "
            f"migrations, convergence p50={self.convergence_p50_s:.2f}s "
            f"p95={self.convergence_p95_s:.2f}s "
            f"({self.convergence_samples} settles)",
            f"  volume    : sim_events={self.sim_events}  "
            f"telemetry_samples={self.telemetry_samples}  "
            f"retired_digest={self.retired_digest[:16]}",
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------- driver


class ServiceDriver:
    """Runs one :class:`~repro.scenarios.spec.ServiceWorkload`.

    Construction builds the topology, wires a
    :class:`SelfDrivingNetwork` with bounded audit trails and (by
    default) control-plane-only placement, derives candidate tunnels for
    the workload's host pairs, and precomputes the arrival schedule;
    :meth:`run` then walks virtual time in ``batch_interval_s`` quanta:

    1. advance the simulator to the tick (telemetry, re-optimization,
       departures fire);
    2. replay the defer queue FIFO, stopping at the first token miss so
       submission order is preserved;
    3. admit the newly-due arrivals through the token bucket (behind any
       still-deferred request, which would otherwise be overtaken);
    4. append the cumulative counter row to the columnar store.

    Admitted flows are submitted through the Scheduler (the Fig. 4 path
    the Dashboard uses), their departures scheduled as simulator events
    that retire them end to end.
    """

    def __init__(
        self,
        workload: ServiceWorkload,
        rate: Optional[float] = None,
        duration: Optional[float] = None,
        warmup: Optional[float] = None,
        seed: Optional[int] = None,
        objective: Optional[str] = None,
    ):
        overrides: Dict[str, Any] = {}
        if duration is not None:
            overrides["duration"] = duration
        if warmup is not None:
            overrides["warmup"] = warmup
        if seed is not None:
            overrides["seed"] = seed
        if rate is not None:
            overrides["churn"] = dataclasses.replace(workload.churn, rate=rate)
        if objective is not None:
            overrides["policy"] = dataclasses.replace(
                workload.policy, objective=objective
            )
        self.workload = workload.with_overrides(**overrides) if overrides else workload
        churn = self.workload.churn
        policy = self.workload.policy

        network = self.workload.topology.build()
        self.sdn = SelfDrivingNetwork(
            network,
            model_factory=resolve_model(policy.model),
            telemetry_interval=policy.telemetry_interval,
            reoptimize_every=policy.reoptimize_every,
            reopt_threshold_mbps=policy.reopt_threshold_mbps,
            launch_apps=churn.launch_apps,
            audit_window=_AUDIT_WINDOW,
        )
        self.pairs = host_pairs(network)[: churn.n_pairs]
        router_pairs: List[Tuple[str, str]] = []
        seen = set()
        for src, dst in self.pairs:
            pair = (network.edge_router_of(src), network.edge_router_of(dst))
            if pair not in seen:
                seen.add(pair)
                router_pairs.append(pair)
        for name, tid, path in derive_tunnels_for_pairs(
            network, router_pairs, policy.k_paths
        ):
            self.sdn.add_tunnel(name, tid, path)
        self.schedule = generate_schedule(
            churn, self.workload.duration, self.workload.seed, self.pairs
        )
        self.bucket = TokenBucket(churn.admission_rate, churn.admission_burst)
        self.collector = SLOCollector(self.sdn.db, self.workload.warmup)
        # admission ledger
        self.admitted = 0
        self.rejected = 0
        self.deferrals = 0  # defer *events* (a flow may defer repeatedly)
        self.replayed = 0  # admissions that waited in the defer queue
        self.placed = 0
        self.place_failed = 0
        self.retired_names: List[str] = []
        # the defer queue is provably drained: replay runs every batch
        # tick and admission tokens refill continuously, so its depth is
        # bounded by one tick's arrivals, not the run length
        self._defer_q: Deque[ScheduledFlow] = deque()  # repro-lint: disable=RL008
        self._deferred_once: set = set()
        # convergence probe state (see _on_reopt)
        self._last_migrations = 0
        self._unstable_since: Optional[float] = None
        self.sdn.controller.on_reopt = self._on_reopt

    # ------------------------------------------------------- internals

    def _on_reopt(self, controller: Any) -> None:
        """Convergence probe: a re-optimization episode opens at the
        first tick that migrates flows and settles at the next tick that
        migrates none; the settle time is the episode's duration in
        virtual time."""
        now = self.sdn.network.sim.now
        delta = controller.migrations_total - self._last_migrations
        self._last_migrations = controller.migrations_total
        if delta > 0:
            if self._unstable_since is None:
                self._unstable_since = now
        elif self._unstable_since is not None:
            self.collector.record_convergence(now, now - self._unstable_since)
            self._unstable_since = None

    def _submit(self, flow: ScheduledFlow, now: float) -> None:
        """Admit one flow: Scheduler -> Controller placement, departure
        event, SLO sample.  Caller has already taken the token."""
        churn = self.workload.churn
        request = FlowRequest(
            flow_name=flow.name,
            src=flow.src,
            dst=flow.dst,
            protocol=churn.protocol,
            tos=flow.tos,
            duration=flow.holding,
            start_at=0.0,
            rate_mbps=churn.rate_mbps if churn.protocol == "udp" else None,
            objective=self.workload.policy.objective,
        )
        self.admitted += 1
        if flow.index in self._deferred_once:
            self.replayed += 1
        reply = self.sdn.scheduler.submit(request)
        verdict = reply.get("controller", {})
        if not (reply.get("ok") and verdict.get("ok")):
            self.place_failed += 1
            return
        self.placed += 1
        self.collector.record_placement(flow.at, now)
        name = flow.name
        self.sdn.network.sim.schedule_at(
            now + flow.holding, lambda: self._retire(name)
        )

    def _retire(self, flow_name: str) -> None:
        self.sdn.retire_flow(flow_name)
        self.retired_names.append(flow_name)

    # ------------------------------------------------------------- run

    def run(self) -> ServiceResult:
        churn = self.workload.churn
        duration = self.workload.duration
        interval = churn.batch_interval_s
        n_batches = max(1, int(np.ceil(duration / interval)))
        sim = self.sdn.network.sim
        next_arrival = 0  # pointer into the precomputed schedule
        defer_mode = churn.on_exhausted == "defer"
        for k in range(n_batches):
            now = min((k + 1) * interval, duration)
            sim.run(until=now)
            # 1. replay deferred requests FIFO; the first token miss
            #    stops the replay so submission order is never inverted
            while self._defer_q and self.bucket.try_take(now):
                self._submit(self._defer_q.popleft(), now)
            # 2. newly-due arrivals, behind anything still deferred
            while (
                next_arrival < len(self.schedule)
                and self.schedule[next_arrival].at <= now
            ):
                flow = self.schedule[next_arrival]
                next_arrival += 1
                if defer_mode and self._defer_q:
                    self._defer_q.append(flow)
                    self._deferred_once.add(flow.index)
                    self.deferrals += 1
                elif self.bucket.try_take(now):
                    self._submit(flow, now)
                elif defer_mode:
                    self._defer_q.append(flow)
                    self._deferred_once.add(flow.index)
                    self.deferrals += 1
                else:
                    self.rejected += 1
            self.collector.record_tick(
                now,
                (
                    float(next_arrival),
                    float(self.admitted),
                    float(self.rejected),
                    float(len(self._defer_q)),
                    float(self.placed),
                    float(len(self.sdn.controller.flows)),
                ),
            )
        return self._result(n_batches)

    def _result(self, n_batches: int) -> ServiceResult:
        controller = self.sdn.controller
        digest = hashlib.sha256(
            ",".join(sorted(self.retired_names)).encode()
        ).hexdigest()
        pct = self.collector.percentile
        return ServiceResult(
            workload=self.workload.name,
            seed=self.workload.seed,
            rate=self.workload.churn.rate,
            duration_s=self.workload.duration,
            warmup_s=self.workload.warmup,
            tunnels=len(controller.tunnels),
            batches=n_batches,
            offered=len(self.schedule),
            admitted=self.admitted,
            rejected=self.rejected,
            deferrals=self.deferrals,
            replayed=self.replayed,
            deferred_pending=len(self._defer_q),
            placed=self.placed,
            place_failed=self.place_failed,
            retired=len(self.retired_names),
            active_at_end=len(controller.flows),
            placement_p50_ms=pct(self.collector.placement_ms, 50),
            placement_p95_ms=pct(self.collector.placement_ms, 95),
            placement_p99_ms=pct(self.collector.placement_ms, 99),
            placement_samples=len(self.collector.placement_ms),
            reopt_ticks=controller.reopt_ticks,
            migrations=controller.migrations_total,
            convergence_p50_s=pct(self.collector.convergence_s, 50),
            convergence_p95_s=pct(self.collector.convergence_s, 95),
            convergence_samples=len(self.collector.convergence_s),
            retired_digest=digest,
            sim_events=self.sdn.network.sim.events_processed,
            telemetry_samples=self.sdn.db.total_samples(),
        )


def run_service(
    workload: ServiceWorkload,
    rate: Optional[float] = None,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    seed: Optional[int] = None,
    objective: Optional[str] = None,
) -> ServiceResult:
    """Build a :class:`ServiceDriver` for ``workload`` (with optional
    rate/duration/warmup/seed/objective overrides) and run it to
    completion."""
    return ServiceDriver(
        workload,
        rate=rate,
        duration=duration,
        warmup=warmup,
        seed=seed,
        objective=objective,
    ).run()
