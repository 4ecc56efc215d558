"""ScenarioResult: the uniform cross-scenario, cross-backend metrics.

Every execution backend — packet-level DES, closed-form fluid, the
flow-class hybrid, or an external emulation driver — collapses its run
into this one frozen value object, which is what makes scenarios and
backends directly comparable, cacheable and shippable across process
boundaries.  The dataclass lives in its own module so backend
implementations (:mod:`repro.backends`) can construct results without
importing the runner that orchestrates them; the historical import path
``repro.scenarios.runner.ScenarioResult`` keeps working as a re-export.

Serialisation is exact: :meth:`ScenarioResult.to_dict` emits builtins
only (numpy scalars are coerced), and :meth:`ScenarioResult.from_dict`
reproduces the result bit-for-bit after a JSON round-trip.  ``from_dict``
also *validates* the ``backend`` field against the execution-backend
registry — an artifact naming a backend this build does not know is an
error at load time, not a silent row in a sweep comparison table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

__all__ = ["ScenarioResult"]


def _known_backend_names() -> tuple:
    """Registered execution-backend names (builtins always included).

    Late import: the backend modules themselves construct results, so
    this module must not depend on them at import time.
    """
    from repro.backends.base import backend_names

    return backend_names()


def _not_an_object(field_name: str, value: Any) -> TypeError:
    return TypeError(
        f"result field {field_name!r} must be an object, "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True)
class ScenarioResult:
    """Uniform cross-scenario, cross-backend metrics of one run."""

    scenario: str
    backend: str
    seed: int
    horizon_s: float
    warmup_s: float
    tunnels: int
    offered: int
    placed: int
    rejected: int
    per_flow_mbps: Dict[str, float]
    total_throughput_mbps: float
    min_flow_mbps: float
    mean_latency_ms: float
    max_latency_ms: float
    drops: int
    migrations: int
    reconfigurations: int
    failure_events: int
    #: discrete events the simulator processed (0 on the fluid backend);
    #: wall-clock divided by this is the events/s figure the scale-smoke
    #: CI gate floors.  Deterministic, unlike wall-clock itself.
    sim_events: int = 0
    #: samples the telemetry store recorded across all metrics (0 on the
    #: fluid backend, which has no telemetry agents).  Deterministic, so
    #: sweeps can assert the monitoring volume did not silently change.
    telemetry_samples: int = 0
    #: hybrid backend: flows carried in the fluid background domain (0
    #: elsewhere).  In aggregate-mice mode these flows have no per-flow
    #: entry in ``per_flow_mbps`` — this count plus ``background_mbps``
    #: is their footprint in the result.
    background_flows: int = 0
    #: flow classes the aggregate-mice solver used (0 in per-flow mode).
    background_classes: int = 0
    #: total background throughput, Mbps averaged over the horizon.
    background_mbps: float = 0.0
    #: mean predicted MOS over every *classified* flow (see
    #: repro.net.qoe); 0.0 when the scenario offers only generic flows.
    mean_qoe: float = 0.0
    #: how many flows carried an app class and were scored.
    qoe_flows: int = 0
    #: per-app-class mean predicted MOS (name-sorted; empty without
    #: classified flows).
    qoe_per_class: Dict[str, float] = field(default_factory=dict)

    #: numeric field -> coercion applied on both to_dict and from_dict, so
    #: results survive a JSON round-trip (and numpy scalars never leak
    #: into artifacts or across process boundaries).
    _FIELD_TYPES = {
        "scenario": str,
        "backend": str,
        "seed": int,
        "horizon_s": float,
        "warmup_s": float,
        "tunnels": int,
        "offered": int,
        "placed": int,
        "rejected": int,
        "total_throughput_mbps": float,
        "min_flow_mbps": float,
        "mean_latency_ms": float,
        "max_latency_ms": float,
        "drops": int,
        "migrations": int,
        "reconfigurations": int,
        "failure_events": int,
        "sim_events": int,
        "telemetry_samples": int,
        "background_flows": int,
        "background_classes": int,
        "background_mbps": float,
        "mean_qoe": float,
        "qoe_flows": int,
    }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of plain builtins (inverse of :meth:`from_dict`).

        Workers use this to ship results across process boundaries and
        the sweep cache stores it verbatim, so every value is coerced to
        a builtin ``str``/``int``/``float`` here rather than trusting
        whatever numpy scalar a backend produced."""
        payload: Dict[str, Any] = {
            name: coerce(getattr(self, name))
            for name, coerce in self._FIELD_TYPES.items()
        }
        payload["per_flow_mbps"] = {
            str(name): float(rate) for name, rate in self.per_flow_mbps.items()
        }
        payload["qoe_per_class"] = {
            str(name): float(mos)
            for name, mos in self.qoe_per_class.items()
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output (or its JSON
        round-trip); raises ``KeyError`` on missing fields and ignores
        unknown ones, so cache artifacts from newer minor versions load.
        ``sim_events`` and ``telemetry_samples`` (added after the first
        release) default to 0 so older payloads still deserialize.

        The ``backend`` field must name a *registered* execution
        backend: an artifact written by a build with extra backends (or
        a corrupted one) raises ``ValueError`` here instead of flowing
        an unknown label into sweep comparison tables.  A
        ``per_flow_mbps`` or ``qoe_per_class`` that is not an object
        raises ``TypeError`` naming the field."""
        source = dict(payload)
        source.setdefault("sim_events", 0)
        source.setdefault("telemetry_samples", 0)
        source.setdefault("background_flows", 0)
        source.setdefault("background_classes", 0)
        source.setdefault("background_mbps", 0.0)
        source.setdefault("mean_qoe", 0.0)
        source.setdefault("qoe_flows", 0)
        source.setdefault("qoe_per_class", {})
        backend = str(source["backend"])
        known = _known_backend_names()
        if backend not in known:
            raise ValueError(
                f"result names unknown backend {backend!r}; "
                f"registered backends: {', '.join(known)}"
            )
        kwargs: Dict[str, Any] = {
            name: coerce(source[name])
            for name, coerce in cls._FIELD_TYPES.items()
        }
        per_flow = source["per_flow_mbps"]
        if not isinstance(per_flow, Mapping):
            raise _not_an_object("per_flow_mbps", per_flow)
        qoe = source["qoe_per_class"]
        if not isinstance(qoe, Mapping):
            raise _not_an_object("qoe_per_class", qoe)
        kwargs["per_flow_mbps"] = {
            str(name): float(rate) for name, rate in per_flow.items()
        }
        kwargs["qoe_per_class"] = {
            str(name): float(mos) for name, mos in qoe.items()
        }
        return cls(**kwargs)

    def summary(self) -> str:
        lines = [
            f"scenario {self.scenario} [{self.backend}] "
            f"seed={self.seed} horizon={self.horizon_s:g}s "
            f"warmup={self.warmup_s:g}s",
            f"  flows     : {self.placed}/{self.offered} placed"
            + (f" ({self.rejected} rejected)" if self.rejected else "")
            + f", {self.tunnels} candidate tunnels",
            f"  throughput: {self.total_throughput_mbps:8.2f} Mbps total, "
            f"{self.min_flow_mbps:.2f} Mbps worst flow",
            f"  latency   : {self.mean_latency_ms:8.2f} ms mean, "
            f"{self.max_latency_ms:.2f} ms worst",
            f"  drops={self.drops}  migrations={self.migrations}  "
            f"reconfigurations={self.reconfigurations}  "
            f"failure_events={self.failure_events}  "
            f"sim_events={self.sim_events}  "
            f"telemetry_samples={self.telemetry_samples}",
        ]
        if self.background_flows:
            mode = (
                f"{self.background_classes} classes"
                if self.background_classes
                else "per-flow fluid"
            )
            lines.append(
                f"  background: {self.background_flows} flows ({mode}), "
                f"{self.background_mbps:.2f} Mbps"
            )
        if self.qoe_flows:
            per_class = ", ".join(
                f"{name}:{mos:.2f}"
                for name, mos in self.qoe_per_class.items()
            )
            lines.append(
                f"  qoe       : {self.mean_qoe:.2f} mean MOS over "
                f"{self.qoe_flows} flows ({per_class})"
            )
        if self.per_flow_mbps:
            worst = sorted(self.per_flow_mbps.items(), key=lambda kv: kv[1])
            shown = ", ".join(f"{k}:{v:.2f}" for k, v in worst[:8])
            suffix = " ..." if len(worst) > 8 else ""
            lines.append(f"  per flow  : {shown}{suffix} (Mbps)")
        return "\n".join(lines)
