"""The five perf-ledger workloads.

Each workload turns ``--seed`` into a few program inputs, and for every
input exposes three steps the harness (``run.py``) drives from outside:

``prepare(key)``
    untimed set-up of one unit of work (counts toward ``setup_s``);
``execute(state)``
    the **timed region**: run the program and serialise its result to
    canonical JSON, exactly what a user waits for;
``inspect(state, result)``
    untimed: correctness checks, the op count the wall clock is divided
    by, simulated (``sim.*``) results and per-layer counts read at the
    layer boundaries.

Units are deliberately short (0.1-0.5 s) so that a run holds many
repeats of the *same* input and the host-speed reading that brackets
each one (``calibration.py``) is taken close to it.  Work per input
still varies with the seed, so the end-to-end figure is host time **per
op** — an op being the unit of simulated work the result itself counts
(sim event, sweep cell, offered flow).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.framework.service_mode import ServiceDriver
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.registry import get_workload
from repro.sweep import ResultCache, SweepEngine, SweepSpec

__all__ = ["Outcome", "Sizes", "WORKLOADS", "canonical", "get"]

#: scratch space for sweep caches; inside the checkout (the benchmark
#: may write nowhere else) and git-ignored.
OUT_DIR = Path(__file__).resolve().parent / "out"


def canonical(payload: Any) -> str:
    """Canonical JSON of a result payload (what ``result_digest``
    hashes): sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(blob: str) -> str:
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _subseeds(seed: int, count: int) -> List[int]:
    """``count`` program seeds for one benchmark seed; disjoint between
    benchmark seeds so ten ``--seed`` values are ten different inputs."""
    return [seed * 100 + j for j in range(count)]


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one mode (full, or ``--smoke`` for tier-1)."""

    hybrid_horizon_s: float
    hybrid_inputs: int
    sweep_flows: int
    sweep_cold_cells: int
    sweep_warm_cells: int
    sweep_warm_passes: int
    churn_duration_s: float
    churn_inputs: int
    rfr_duration_s: float
    rfr_inputs: int


FULL = Sizes(
    hybrid_horizon_s=2.0,
    hybrid_inputs=3,
    sweep_flows=1000,
    sweep_cold_cells=8,
    sweep_warm_cells=3,
    sweep_warm_passes=25,
    churn_duration_s=3.0,
    churn_inputs=3,
    rfr_duration_s=40.0,
    rfr_inputs=3,
)

SMOKE = Sizes(
    hybrid_horizon_s=1.0,
    hybrid_inputs=1,
    sweep_flows=60,
    sweep_cold_cells=2,
    sweep_warm_cells=2,
    sweep_warm_passes=2,
    churn_duration_s=1.0,
    churn_inputs=1,
    rfr_duration_s=33.0,
    rfr_inputs=1,
)


@dataclass
class Outcome:
    """What one executed unit produced, as ``inspect`` reads it."""

    #: units of simulated work the timed region completed
    ops: int
    #: operations offered / refused (the contract's attempted/failed)
    attempted: int
    failed: int
    #: sha256 of the canonical result JSON; repeats exactly per input
    digest: str
    #: simulated results (virtual time / modelled network), exact per input
    sim: Dict[str, float] = field(default_factory=dict)
    #: counts read at layer boundaries after the run
    counts: Dict[str, float] = field(default_factory=dict)
    #: failed correctness checks (empty means correct)
    problems: List[str] = field(default_factory=list)


class Workload:
    """One named workload; subclasses fill in the three steps."""

    name = ""
    why = ""
    #: what one op is (the denominator of ``norm_wall_per_op_us``)
    op = ""
    #: span names a traced run of this workload must record (the
    #: dead-wrapper guard: a rebound name cannot silently zero a layer)
    exercises: Tuple[str, ...] = ()
    #: ``prepare`` once per input and re-``execute`` (the state is not
    #: consumed by a run)
    reusable = False

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def inputs(self, seed: int) -> Sequence[Any]:
        raise NotImplementedError

    def describe(self, seed: int) -> Dict[str, Any]:
        """Input sizes for the ledger's environment block."""
        raise NotImplementedError

    def prepare(self, key: Any) -> Any:
        raise NotImplementedError

    def execute(self, state: Any) -> Any:
        raise NotImplementedError

    def inspect(self, state: Any, result: Any) -> Outcome:
        raise NotImplementedError

    def release(self, state: Any) -> None:
        """Drop whatever ``prepare`` left on disk."""


# ------------------------------------------------------------ framework


def _framework_counts(sdn: Any) -> Dict[str, float]:
    """Counts the framework layers keep about themselves (raw, so they
    add up over inputs; ``run.py`` derives the ratios)."""
    hecate = sdn.hecate
    controller = sdn.controller
    link_stats = [
        link.stats_from(node)
        for link in sdn.network.links.values()
        for node in link.endpoints()
    ]
    return {
        "net.sim.events": sdn.network.sim.events_processed,
        "net.links.tx_packets": sum(s.tx_packets for s in link_stats),
        "net.links.dropped_packets": sum(
            s.dropped_packets for s in link_stats
        ),
        "net.telemetry.samples": sdn.db.total_samples(),
        "hecate.service.asked": hecate.asked,
        "hecate.service.fits": hecate.fits,
        "hecate.service.forecast_cache_hits": hecate.forecast_cache_hits,
        "framework.controller.reopt_ticks": controller.reopt_ticks,
        "framework.controller.reopt_solved": controller.reopt_solved,
        "framework.controller.reopt_skipped": controller.reopt_skipped,
        "framework.controller.migrations": controller.migrations_total,
    }


# --------------------------------------------------------------- hybrid


class HybridQoe2k(Workload):
    name = "hybrid_qoe_2k"
    why = (
        "scale-qoe-mix-2k on the hybrid backend: the only workload whose "
        "wall is the packet domain (net.sim loop, links, apps, PolKA "
        "forward, ACL classify); it also carries the hybrid epoch pipeline"
    )
    op = "simulated event (result.sim_events)"
    exercises = (
        "scenarios.runner.setup",
        "scenarios.traffic.generate_traffic",
        "scenarios.runner.derive_tunnels",
        "backends.execute",
        "backends.collect",
        "scenarios.result.to_dict",
        "scenarios.hybrid.solve_epochs",
        "scenarios.hybrid.assign_class_paths",
        "net.background.install_background_schedule",
        "net.fluid.max_min_fair_bounded",
        "net.sim.run",
        "net.telemetry.append",
        "net.telemetry.series",
        "bus.request",
        "bus.topic.dashboard.insert_new_flow",
        "bus.topic.scheduler.new_flow",
        "bus.topic.hecate.ask_path",
        "bus.topic.telemetry.get",
        "bus.topic.freertr.reconfig",
        "framework.scheduler.submit",
        "framework.controller.place_flow",
        "hecate.service.forecast_path",
    )

    def _scenario(self) -> Any:
        return get_scenario("scale-qoe-mix-2k").with_overrides(
            horizon=self.sizes.hybrid_horizon_s
        )

    def inputs(self, seed: int) -> Sequence[int]:
        return _subseeds(seed, self.sizes.hybrid_inputs)

    def describe(self, seed: int) -> Dict[str, Any]:
        scenario = self._scenario()
        return {
            "scenario": scenario.name,
            "backend": scenario.backend,
            "horizon_s": scenario.horizon,
            "warmup_s": scenario.warmup,
            "offered_flows": scenario.traffic.n_flows,
            "program_seeds": list(self.inputs(seed)),
        }

    def prepare(self, key: int) -> ScenarioRunner:
        return ScenarioRunner(self._scenario(), seed=key).setup()

    def execute(self, state: ScenarioRunner) -> Tuple[Any, str]:
        result = state.run()
        return result, canonical(result.to_dict())

    def inspect(self, state: ScenarioRunner, result: Any) -> Outcome:
        res, blob = result
        problems = []
        if res.offered != res.placed + res.rejected:
            problems.append(
                f"offered {res.offered} != placed {res.placed} + "
                f"rejected {res.rejected}"
            )
        if res.sim_events < 1:
            problems.append("no simulated events")
        return Outcome(
            ops=res.sim_events,
            attempted=res.offered,
            failed=res.rejected,
            digest=_digest(blob),
            sim={
                "sim.throughput_mbps": res.total_throughput_mbps,
                "sim.mean_qoe": res.mean_qoe,
            },
            counts=_framework_counts(state.sdn),
            problems=problems,
        )


# ---------------------------------------------------------------- sweep


class _Sweep(Workload):
    """Shared by the cold and warm sweep workloads: one scenario, fluid
    backend, one result cache under ``perf/out``.

    The scenario is scale-fat-tree-2k thinned to ``sweep_flows`` flows so
    a cell is a short unit; 1 000 keeps every (ingress, egress) group
    above ``assign_flows``' exhaustive-search size, where a cell's cost
    would swing several-fold with the seed.
    """

    def _spec(self, seeds: Sequence[int]) -> SweepSpec:
        base = get_scenario("scale-fat-tree-2k")
        traffic = dataclasses.replace(
            base.traffic, n_flows=self.sizes.sweep_flows
        )
        return SweepSpec(
            scenarios=(base.name,),
            seeds=tuple(seeds),
            backends=("fluid",),
            overrides={"traffic": traffic},
        )

    def _cache(self, tag: str) -> ResultCache:
        root = OUT_DIR / "sweep-cache" / tag
        shutil.rmtree(root, ignore_errors=True)
        return ResultCache(root)

    def release(self, state: Any) -> None:
        shutil.rmtree(state["cache"].root, ignore_errors=True)

    @staticmethod
    def _bytes_written(cache: ResultCache) -> int:
        return sum(p.stat().st_size for p in cache.root.glob("*.json"))


class SweepCold(_Sweep):
    name = "sweep_cold_1k"
    why = (
        "fluid sweep cells on an empty cache: no packet events, ~85 % of "
        "a cell is assign_flows -> max_min_fair, the rest traffic "
        "generation, epoch solves, serialisation and cache writes"
    )
    op = "sweep cell executed and cached"
    exercises = (
        "sweep.engine.run",
        "sweep.executors.execute",
        "sweep.cache.get",
        "sweep.cache.put",
        "scenarios.runner.setup",
        "scenarios.traffic.generate_traffic",
        "scenarios.runner.derive_tunnels",
        "backends.execute",
        "backends.collect",
        "backends.fluid.assign_fluid",
        "hecate.objectives.assign_flows",
        "net.fluid.max_min_fair",
        "net.fluid.max_min_fair_bounded",
        "scenarios.hybrid.solve_epochs",
        "scenarios.result.to_dict",
        "scenarios.result.from_dict",
    )

    def inputs(self, seed: int) -> Sequence[int]:
        return _subseeds(seed, self.sizes.sweep_cold_cells)

    def describe(self, seed: int) -> Dict[str, Any]:
        return {
            "scenario": "scale-fat-tree-2k",
            "backend": "fluid",
            "flows_per_cell": self.sizes.sweep_flows,
            "cells": self.sizes.sweep_cold_cells,
            "program_seeds": list(self.inputs(seed)),
        }

    def prepare(self, key: int) -> Dict[str, Any]:
        cache = self._cache(f"cold-{key}")
        engine = SweepEngine(self._spec([key]), jobs=1, cache=cache)
        return {"cache": cache, "engine": engine}

    def execute(self, state: Dict[str, Any]) -> Tuple[Any, str]:
        outcome = state["engine"].run()
        return outcome, canonical([r.to_dict() for r in outcome.results])

    def inspect(self, state: Dict[str, Any], result: Any) -> Outcome:
        outcome, blob = result
        cells = len(outcome.runs)
        problems = []
        if outcome.executed != cells or outcome.cache_hits != 0:
            problems.append(
                f"cold pass executed {outcome.executed}/{cells} cells "
                f"with {outcome.cache_hits} cache hits"
            )
        bad = sum(
            1
            for r in outcome.results
            if r.offered != r.placed + r.rejected
        )
        if bad:
            problems.append(f"{bad} cells do not account for every flow")
        mean_mbps = sum(
            r.total_throughput_mbps for r in outcome.results
        ) / cells
        return Outcome(
            ops=cells,
            attempted=cells,
            failed=bad,
            digest=_digest(blob),
            sim={"sim.throughput_mbps": mean_mbps},
            counts={
                "sweep.cache.bytes_written": self._bytes_written(
                    state["cache"]
                )
            },
            problems=problems,
        )


class SweepWarm(_Sweep):
    name = "sweep_warm_1k"
    why = (
        "engine passes over a filled cache: the same sweep/cache/result "
        "layers as reads (cache.get + from_dict) instead of writes, so a "
        "gain for one that costs the other shows"
    )
    op = "sweep cell served from the cache"
    exercises = (
        "sweep.engine.run",
        "sweep.cache.get",
        "scenarios.result.from_dict",
    )
    reusable = True

    def inputs(self, seed: int) -> Sequence[Tuple[int, ...]]:
        return [tuple(_subseeds(seed, self.sizes.sweep_warm_cells))]

    def describe(self, seed: int) -> Dict[str, Any]:
        return {
            "scenario": "scale-fat-tree-2k",
            "backend": "fluid",
            "flows_per_cell": self.sizes.sweep_flows,
            "cells": self.sizes.sweep_warm_cells,
            "passes_per_unit": self.sizes.sweep_warm_passes,
            "program_seeds": list(self.inputs(seed)[0]),
        }

    def prepare(self, key: Tuple[int, ...]) -> Dict[str, Any]:
        cache = self._cache(f"warm-{key[0]}")
        spec = self._spec(key)
        filled = SweepEngine(spec, jobs=1, cache=cache).run()
        return {
            "cache": cache,
            "spec": spec,
            "cold": [r.to_dict() for r in filled.results],
        }

    def execute(self, state: Dict[str, Any]) -> Tuple[Any, str]:
        passes = [
            SweepEngine(state["spec"], jobs=1, cache=state["cache"]).run()
            for _ in range(self.sizes.sweep_warm_passes)
        ]
        return passes, canonical(
            [r.to_dict() for r in passes[-1].results]
        )

    def inspect(self, state: Dict[str, Any], result: Any) -> Outcome:
        passes, blob = result
        cells = len(state["cold"])
        problems = []
        missed = sum(cells - p.cache_hits for p in passes)
        if missed:
            problems.append(
                f"{missed} warm cell reads missed the cache "
                "(corrupt or missing artifact)"
            )
        differing = sum(
            1
            for p in passes
            for warm, cold in zip(p.results, state["cold"])
            if canonical(warm.to_dict()) != canonical(cold)
        )
        if differing:
            problems.append(
                f"{differing} warm results differ from their cold ones"
            )
        mean_mbps = sum(
            r["total_throughput_mbps"] for r in state["cold"]
        ) / cells
        return Outcome(
            ops=cells * len(passes),
            attempted=cells * len(passes),
            failed=missed + differing,
            digest=_digest(blob),
            sim={"sim.throughput_mbps": mean_mbps},
            counts={
                "sweep.cache.bytes_written": self._bytes_written(
                    state["cache"]
                )
            },
            problems=problems,
        )


# -------------------------------------------------------------- service


class _Service(Workload):
    """Open loop in virtual time (seeded Poisson arrivals, schedule
    precomputed); on the host it runs as fast as one thread allows, so
    the figure is host time per offered flow, not latency at a rate."""

    op = "offered flow (result.offered)"
    rate = 0.0

    def _workload(self) -> Any:
        raise NotImplementedError

    def _shape(self) -> Tuple[float, int]:
        """(virtual seconds per run, inputs per seed) from ``sizes``."""
        raise NotImplementedError

    def inputs(self, seed: int) -> Sequence[int]:
        return _subseeds(seed, self._shape()[1])

    def describe(self, seed: int) -> Dict[str, Any]:
        workload = self._workload()
        return {
            "service_workload": workload.name,
            "model": workload.policy.model,
            "rate_per_s": self.rate,
            "duration_s": self._shape()[0],
            "reoptimize_every_s": workload.policy.reoptimize_every,
            "program_seeds": list(self.inputs(seed)),
        }

    def prepare(self, key: int) -> ServiceDriver:
        return ServiceDriver(
            self._workload(),
            rate=self.rate,
            duration=self._shape()[0],
            warmup=0.0,
            seed=key,
        )

    def execute(self, state: ServiceDriver) -> Tuple[Any, str]:
        result = state.run()
        return result, canonical(result.to_dict())

    def inspect(self, state: ServiceDriver, result: Any) -> Outcome:
        res, blob = result
        problems = []
        if not res.reconciles():
            problems.append("admission ledger does not reconcile")
        counts = _framework_counts(state.sdn)
        counts["framework.service_mode.deferrals"] = res.deferrals
        return Outcome(
            ops=res.offered,
            attempted=res.offered,
            failed=res.rejected + res.place_failed + res.deferred_pending,
            digest=_digest(blob),
            sim={
                "sim.placement_p99_ms": res.placement_p99_ms,
                "sim.placement_samples": res.placement_samples,
            },
            counts=counts,
            problems=problems,
        )


_SERVICE_SPANS = (
    "framework.service_mode.run",
    "net.sim.run",
    "net.telemetry.append",
    "net.telemetry.series",
    "bus.request",
    "bus.topic.scheduler.new_flow",
    "bus.topic.hecate.ask_path",
    "bus.topic.telemetry.get",
    "bus.topic.freertr.reconfig",
    "framework.scheduler.submit",
    "framework.controller.place_flow",
    "framework.controller.remove_flow",
    "hecate.service.forecast_path",
)


class ServiceChurn(_Service):
    name = "service_churn"
    why = (
        "fat-tree-churn at 500 flows/s, linear model, re-optimiser off: "
        "pure control plane (bus dispatch, topic handlers, place/remove) "
        "with the ML made cheap - the bypass for Hecate/ml changes"
    )
    exercises = _SERVICE_SPANS
    rate = 500.0

    def _workload(self) -> Any:
        return get_workload("fat-tree-churn")

    def _shape(self) -> Tuple[float, int]:
        return self.sizes.churn_duration_s, self.sizes.churn_inputs


class ServiceRfrLoop(_Service):
    name = "service_rfr_loop"
    why = (
        "ring-steady with the paper's RFR model and the 5 s re-optimiser "
        "on: the closed loop itself; predictor fit + forecast dominate, "
        "and only here do reoptimize_now and migrations run"
    )
    exercises = _SERVICE_SPANS + (
        "hecate.predictor.fit",
        "hecate.predictor.forecast",
        "framework.controller.reoptimize_now",
        "framework.controller.migrate_flow",
        "bus.topic.hecate.ask_path_batch",
        "hecate.objectives.assign_flows",
        "net.fluid.max_min_fair",
    )
    rate = 30.0

    def _shape(self) -> Tuple[float, int]:
        return self.sizes.rfr_duration_s, self.sizes.rfr_inputs

    def _workload(self) -> Any:
        base = get_workload("ring-steady")
        return base.with_overrides(
            policy=dataclasses.replace(base.policy, model="rfr")
        )


_CLASSES = (HybridQoe2k, SweepCold, SweepWarm, ServiceChurn, ServiceRfrLoop)

#: workload names in ledger order
WORKLOADS: Tuple[str, ...] = tuple(cls.name for cls in _CLASSES)


def get(name: str, smoke: bool = False) -> Workload:
    """The named workload at full or ``--smoke`` size."""
    for cls in _CLASSES:
        if cls.name == name:
            return cls(SMOKE if smoke else FULL)
    raise KeyError(
        f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
    )
