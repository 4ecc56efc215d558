"""The measuring harness behind ``run.py``.

One *run* measures one workload for a fixed time:

1. ``--trace 0`` — a few **probe** subprocesses each import the program,
   prepare the workload's first input and execute it once, giving
   ``setup_s`` (process start -> timed region) and ``peak_rss_mb`` of a
   fresh process; between them this process repeats the workload's
   inputs round-robin until the time is up and reports
   ``norm_wall_per_op_us``: per input the median over its repeats, each
   repeat scaled to the reference host speed (``calibration.py``).
2. ``--trace 1`` — a short untraced reference, the same loop under the
   span tracer (``spans.py``), and the isolated kernels
   (``kernels.py``); reports every per-layer metric.

The *ledger* (no ``--workload``) runs both forms for every workload in
fresh subprocesses and aggregates them into ``perf/out/ledger.json``.

Host time and simulated time are never mixed: names starting ``sim.``
are simulated (virtual time, modelled network), everything else is host.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import kernels
import spans as spans_mod
import workloads
from calibration import calibrate, normalise
from spans import Spans, Tracer, relative, summarise
from workloads import Outcome, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = workloads.OUT_DIR

#: how long one run measures (BENCHMARK.json ``run_seconds``)
RUN_SECONDS = 15
#: fresh-process probes per untraced run
PROBES = 4

# ------------------------------------------------------------ the metrics

#: (name, unit, better, bound): what a user of the system sees.  The
#: bound is the share of the parent's median by which the metric may
#: worsen before ``compare.py`` (and the driver) call it a regression.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("norm_wall_per_op_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: spans called often enough that their call count is worth a metric
#: (the rest are called once per unit; total stays under the 128 cap)
CALL_COUNTS = (
    "net.sim.run",
    "net.telemetry.append",
    "net.telemetry.series",
    "bus.request",
    "framework.scheduler.submit",
    "framework.controller.place_flow",
    "framework.controller.remove_flow",
    "framework.controller.migrate_flow",
    "framework.controller.reoptimize_now",
    "hecate.service.forecast_path",
    "hecate.predictor.fit",
    "hecate.objectives.assign_flows",
    "net.fluid.max_min_fair",
    "net.fluid.max_min_fair_bounded",
    "sweep.cache.get",
    "sweep.cache.put",
)

#: counts the layers keep about themselves, read after the run
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("net.sim.events", "count", "lower"),
    ("net.links.tx_packets", "count", "lower"),
    ("net.links.dropped_packets", "count", "lower"),
    ("net.telemetry.samples", "count", "lower"),
    ("hecate.service.asked", "count", "lower"),
    ("hecate.service.fits", "count", "lower"),
    ("hecate.service.forecast_cache_hits", "count", "higher"),
    ("framework.controller.reopt_ticks", "count", "lower"),
    ("framework.controller.reopt_solved", "count", "lower"),
    ("framework.controller.reopt_skipped", "count", "higher"),
    ("framework.controller.migrations", "count", "lower"),
    ("framework.service_mode.deferrals", "count", "lower"),
    ("sweep.cache.bytes_written", "B", "lower"),
)

#: derived from the spans, counts and walls of the traced run
DERIVED: Tuple[Tuple[str, str, str], ...] = (
    ("hecate.service.cache_hit_ratio", "ratio", "higher"),
    ("framework.controller.reopt_skip_ratio", "ratio", "higher"),
    ("net.sim.host_ns_per_event", "ns", "lower"),
    ("framework.scheduler.submit.host_ms_p50", "ms", "lower"),
    ("framework.scheduler.submit.host_ms_p99", "ms", "lower"),
    ("hecate.service.forecast_path.miss_host_ms_p50", "ms", "lower"),
    ("hecate.service.forecast_path.miss_host_ms_p99", "ms", "lower"),
    ("run.wall_s", "s", "lower"),
    ("run.ops", "count", "lower"),
    ("run.ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.attributed_ratio", "ratio", "higher"),
)

#: simulated results; exact for a fixed seed, so any change is a
#: behaviour change, not noise
SIMULATED: Tuple[Tuple[str, str, str], ...] = (
    ("sim.throughput_mbps", "Mbps", "higher"),
    ("sim.mean_qoe", "MOS", "higher"),
    ("sim.placement_p99_ms", "ms", "lower"),
    ("sim.placement_samples", "count", "higher"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric a traced run reports, in report order."""
    rows: List[Tuple[str, str, str]] = []
    for name in spans_mod.SPAN_NAMES:
        rows.append((f"{name}.self_s", "s", "lower"))
        if name in CALL_COUNTS:
            rows.append((f"{name}.calls", "count", "lower"))
    rows.extend(COUNTS)
    rows.extend(DERIVED)
    rows.extend(SIMULATED)
    rows.extend(
        (name, unit, "lower") for name, (_, unit) in kernels.KERNELS.items()
    )
    return rows


def manifest() -> Dict[str, Any]:
    """What ``BENCHMARK.json`` must hold (the smoke test compares)."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": workloads.get(name).why}
            for name in workloads.WORKLOADS
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b in per_layer_metrics()
        ],
    }


# ---------------------------------------------------------- measuring loop


@dataclass
class Best:
    """The fastest execution of one input, and what it produced."""

    wall: float
    outcome: Outcome
    #: traced runs only: the timed region's spans
    spans: Optional[Spans] = None


@dataclass
class Measurement:
    """One measuring loop over a workload's inputs."""

    best: List[Optional[Best]]
    #: traced runs only: the spans of the cheapest ``prepare`` per input
    prepared: List[Optional[Spans]]
    #: per input, every repeat's wall scaled to the reference host speed
    normalised: List[List[float]]
    units: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def bests(self) -> List[Best]:
        return [b for b in self.best if b is not None]

    @property
    def wall(self) -> float:
        """Raw host seconds of the best repeat of every input."""
        return sum(b.wall for b in self.bests)

    @property
    def norm_wall(self) -> float:
        """Normalised host seconds of one pass over the inputs: per
        input the median over its repeats."""
        return sum(statistics.median(n) for n in self.normalised if n)

    @property
    def ops(self) -> int:
        return sum(b.outcome.ops for b in self.bests)

    @property
    def digest(self) -> str:
        """One digest over every input's result digest."""
        joined = ",".join(b.outcome.digest for b in self.bests)
        return hashlib.sha256(joined.encode()).hexdigest()


def _duration(recording: Spans) -> float:
    """Seconds inside the recording's top-level spans."""
    return sum(
        end - start for _, start, end, parent in recording if parent < 0
    )


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
    min_rounds: int = 2,
    into: Optional[Measurement] = None,
) -> Measurement:
    """Execute the workload's inputs round-robin for ``seconds`` (and at
    least ``min_rounds`` rounds), keeping per input every repeat's
    normalised wall and its best repeat; ``into`` continues an earlier
    measurement of the same inputs.

    Repeats of one input are identical work, so their results must be
    identical too: a digest that changes between repeats is recorded as
    a problem, as is any check ``inspect`` fails.
    """
    inputs = list(workload.inputs(seed))
    out = into or Measurement(
        best=[None] * len(inputs),
        prepared=[None] * len(inputs),
        normalised=[[] for _ in inputs],
    )
    kept: Dict[int, Any] = {}
    deadline = perf_counter() + seconds
    rounds = 0
    try:
        while rounds < min_rounds or perf_counter() < deadline:
            for index, key in enumerate(inputs):
                if rounds >= min_rounds and perf_counter() >= deadline:
                    break
                state = kept.get(index)
                if state is None:
                    if tracer is not None:
                        tracer.begin()
                    state = workload.prepare(key)
                    if tracer is not None:
                        recording = tracer.take()
                        previous = out.prepared[index]
                        if previous is None or _duration(
                            recording
                        ) < _duration(previous):
                            out.prepared[index] = recording
                    if workload.reusable:
                        kept[index] = state
                gc.collect()
                before = calibrate()
                if tracer is not None:
                    tracer.begin()
                started = perf_counter()
                result = workload.execute(state)
                wall = perf_counter() - started
                recording = tracer.take() if tracer is not None else None
                out.normalised[index].append(
                    normalise(wall, before, calibrate())
                )
                outcome = workload.inspect(state, result)
                if not workload.reusable:
                    workload.release(state)
                out.units += 1
                out.attempted += outcome.attempted
                out.failed += outcome.failed
                for problem in outcome.problems:
                    out.problems.append(f"input {key}: {problem}")
                best = out.best[index]
                if best is not None and (
                    best.outcome.digest != outcome.digest
                ):
                    out.problems.append(
                        f"input {key}: result digest changed between "
                        "repeats of the same input"
                    )
                if best is None or wall < best.wall:
                    out.best[index] = Best(wall, outcome, recording)
            rounds += 1
    finally:
        for state in kept.values():
            workload.release(state)
    return out


# ------------------------------------------------------------ one probe


def probe(
    name: str,
    seed: int,
    smoke: bool,
    process_start: float,
    speed_at_start: float,
) -> int:
    """Fresh-process probe: set-up time and peak RSS of one execution."""
    speed_after_imports = calibrate()
    workload = workloads.get(name, smoke)
    state = workload.prepare(workload.inputs(seed)[0])
    # process start -> timed region, less the two calibrations inside it
    raw_s = (
        perf_counter() - process_start - speed_at_start
        - speed_after_imports
    )
    setup_s = normalise(
        raw_s, speed_at_start, speed_after_imports, calibrate()
    )
    try:
        outcome = workload.inspect(state, workload.execute(state))
    finally:
        workload.release(state)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "raw_setup_s": raw_s,
                "peak_rss_mb": peak_kb / 1024.0,
                "digest": outcome.digest,
                "problems": outcome.problems,
            }
        )
    )
    return 0


def _child(args: Sequence[str]) -> Tuple[int, str]:
    """Run ``run.py`` with ``args`` in a fresh interpreter and wait."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=str(ROOT),
        check=False,
    )
    return done.returncode, done.stdout


def _last_json(stdout: str) -> Dict[str, Any]:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("child printed nothing")
    return json.loads(lines[-1])


def run_probe(name: str, seed: int, smoke: bool) -> Dict[str, Any]:
    args = ["--probe", "--workload", name, "--seed", str(seed)]
    if smoke:
        args.append("--smoke")
    code, stdout = _child(args)
    if code != 0:
        raise RuntimeError(f"probe of {name} exited with code {code}")
    return _last_json(stdout)


# -------------------------------------------------------------- one run


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _span_durations_ms(
    recordings: Sequence[Spans], name: str, with_child: Optional[str] = None
) -> List[float]:
    """Durations (ms) of every ``name`` span, optionally only those with
    a direct child named ``with_child``."""
    out = []
    for rec in recordings:
        parents = {span[3] for span in rec if span[0] == with_child}
        for index, (span_name, start, end, _) in enumerate(rec):
            if span_name == name and (
                with_child is None or index in parents
            ):
                out.append((end - start) * 1e3)
    return out


def layer_values(
    workload: Workload,
    reference: Measurement,
    traced: Measurement,
    kernel_values: Dict[str, float],
) -> Tuple[Dict[str, float], List[str]]:
    """Every per-layer metric of one traced run, plus the dead-wrapper
    problems (a span the workload must exercise that recorded no call).

    Spans and counts are those of the **timed region** of the best
    traced execution of each input, summed over the inputs, so the self
    times add up to the traced wall; a layer the workload does not touch
    there reads 0.  (``prepare``'s spans are in the trace file, and
    count for the dead-wrapper guard.)
    """
    best = traced.bests
    runs = [b.spans for b in best if b.spans is not None]
    totals: Dict[str, Dict[str, float]] = {}
    for recording in runs:
        for name, row in summarise(recording).items():
            into = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            into["calls"] += row["calls"]
            into["self_s"] += row["self_s"]
    seen = set(totals)
    for recording in traced.prepared:
        seen.update(span[0] for span in recording or ())
    problems = [
        f"span {name} recorded no call (dead wrapper?)"
        for name in workload.exercises
        if name not in seen
    ]

    values: Dict[str, float] = {}
    for name in spans_mod.SPAN_NAMES:
        row = totals.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.self_s"] = row["self_s"]
        if name in CALL_COUNTS:
            values[f"{name}.calls"] = row["calls"]
    for name, _, _ in COUNTS:
        values[name] = sum(b.outcome.counts.get(name, 0) for b in best)
    for name, _, _ in SIMULATED:
        values[name] = statistics.fmean(
            b.outcome.sim.get(name, 0.0) for b in best
        )

    # useful / attempts: forecasts served without a refit, over every
    # forecast asked for (cold-start forecasts are neither hit nor fit)
    lookups = totals.get("hecate.service.forecast_path", {}).get("calls", 0)
    values["hecate.service.cache_hit_ratio"] = (
        values["hecate.service.forecast_cache_hits"] / lookups
        if lookups else 0.0
    )
    skipped = values["framework.controller.reopt_skipped"]
    groups = skipped + values["framework.controller.reopt_solved"]
    values["framework.controller.reopt_skip_ratio"] = (
        skipped / groups if groups else 0.0
    )
    events = values["net.sim.events"]
    values["net.sim.host_ns_per_event"] = (
        values["net.sim.run.self_s"] / events * 1e9 if events else 0.0
    )
    submits = _span_durations_ms(runs, "framework.scheduler.submit")
    values["framework.scheduler.submit.host_ms_p50"] = _percentile(
        submits, 50
    )
    values["framework.scheduler.submit.host_ms_p99"] = _percentile(
        submits, 99
    )
    misses = _span_durations_ms(
        runs, "hecate.service.forecast_path", "hecate.predictor.fit"
    )
    values["hecate.service.forecast_path.miss_host_ms_p50"] = _percentile(
        misses, 50
    )
    values["hecate.service.forecast_path.miss_host_ms_p99"] = _percentile(
        misses, 99
    )
    # untraced reference: what the run costs with the wrappers off
    # (raw host seconds of the best repeats, not normalised)
    values["run.wall_s"] = reference.wall
    values["run.ops"] = reference.ops
    values["run.ops_per_s"] = reference.ops / reference.wall
    values["trace.overhead_ratio"] = (
        traced.norm_wall / reference.norm_wall - 1.0
    )
    attributed = sum(_duration(rec) for rec in runs)
    values["trace.attributed_ratio"] = attributed / traced.wall
    values.update(kernel_values)
    # registry order, and a KeyError if a registered metric is missing
    return {n: values[n] for n, _, _ in per_layer_metrics()}, problems


def write_trace(workload: Workload, seed: int, traced: Measurement) -> Path:
    """``perf/out/trace-<workload>.json``: the spans of the best traced
    execution of each input (times in seconds from the first span)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}.json"
    units = []
    for key, best, prep in zip(
        workload.inputs(seed), traced.best, traced.prepared
    ):
        if best is None or best.spans is None:
            continue
        units.append(
            {
                "input": key,
                "wall_s": best.wall,
                "columns": ["name", "start_s", "end_s", "parent"],
                "prepare": relative(prep or []),
                "execute": relative(best.spans),
            }
        )
    path.write_text(
        json.dumps({"workload": workload.name, "seed": seed, "units": units})
        + "\n",
        encoding="utf-8",
    )
    return path


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One run.  Returns (the contract's result object, detail for the
    ledger: digest, problems, how much was executed)."""
    workload = workloads.get(name, smoke)
    detail: Dict[str, Any] = {"workload": name, "seed": seed, "trace": trace}
    problems: List[str] = []
    if not trace:
        # probes and measuring slices alternate, so that neither sees
        # only one of the host's speed regimes
        slices = 1 if smoke else PROBES
        probed: List[Dict[str, Any]] = []
        measured = None
        for _ in range(slices):
            probed.append(run_probe(name, seed, smoke))
            measured = measure(
                workload, seed, seconds / slices,
                min_rounds=2 if slices == 1 else 1, into=measured,
            )
        first = measured.best[0]
        for one in probed:
            problems.extend(f"probe: {p}" for p in one["problems"])
            if first is not None and one["digest"] != first.outcome.digest:
                problems.append(
                    "probe: a fresh process produced a different result "
                    "digest for the same input"
                )
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probed),
            "norm_wall_per_op_us": measured.norm_wall / measured.ops * 1e6,
            "peak_rss_mb": statistics.median(
                p["peak_rss_mb"] for p in probed
            ),
        }
        units = {n: u for n, u, _, _ in END_TO_END}
        detail["probes"] = probed
    else:
        reference = measure(workload, seed, seconds * 0.3, min_rounds=1)
        with Tracer() as tracer:
            measured = measure(
                workload, seed, seconds * 0.4, tracer=tracer, min_rounds=1
            )
        kernel_values = kernels.run_kernels(seconds * 0.3)
        values, dead = layer_values(
            workload, reference, measured, kernel_values
        )
        problems.extend(reference.problems)
        problems.extend(dead)
        if reference.digest != measured.digest:
            problems.append("tracing changed the result digest")
        units = {n: u for n, u, _ in per_layer_metrics()}
        detail["trace_file"] = str(
            write_trace(workload, seed, measured).relative_to(ROOT)
        )
    problems.extend(measured.problems)
    detail.update(
        result_digest=measured.digest,
        units_executed=measured.units,
        inputs=len(measured.best),
        problems=problems,
    )
    result = {
        "correct": not problems,
        "attempted": max(1, measured.attempted),
        "failed": measured.failed,
        "metrics": {
            n: {"value": float(v), "unit": units[n]}
            for n, v in values.items()
        },
    }
    return result, detail


def print_run(result: Dict[str, Any], detail: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the contract's last
    line."""
    print(
        f"workload {detail['workload']} seed={detail['seed']} "
        f"trace={int(detail['trace'])}: {detail['units_executed']} units "
        f"over {detail['inputs']} inputs, "
        f"result_digest={detail['result_digest'][:16]}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<52} {metric['value']:>16.6g} {metric['unit']}")
    for problem in detail["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


# ----------------------------------------------------------- the ledger


def environment(seed: int, repeats: int, seconds: float, smoke: bool) -> Dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {
            var: value
            for var, value in sorted(os.environ.items())
            if var.endswith("_NUM_THREADS")
        },
        "seed": seed,
        "repeats": repeats,
        "run_seconds": seconds,
        "smoke": smoke,
        "inputs": {
            name: workloads.get(name, smoke).describe(seed)
            for name in workloads.WORKLOADS
        },
    }


def _child_run(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> Tuple[Dict[str, Any], Dict[str, Any], int]:
    args = [
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if smoke:
        args.append("--smoke")
    code, stdout = _child(args)
    detail: Dict[str, Any] = {}
    for line in stdout.splitlines():
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
    return _last_json(stdout), detail, code


def ledger(
    names: Sequence[str],
    seed: int,
    repeats: int,
    seconds: float,
    smoke: bool,
    out_dir: Path,
) -> int:
    """Run every named workload ``repeats`` times untraced and once
    traced, print the table, write ``ledger.json``; 0 when every check
    passed."""
    bounds = {n: (u, b, bound) for n, u, b, bound in END_TO_END}
    book: Dict[str, Any] = {
        "environment": environment(seed, repeats, seconds, smoke),
        "workloads": {},
    }
    failed_checks = 0
    for name in names:
        workload = workloads.get(name, smoke)
        runs = [
            _child_run(name, seed, seconds, False, smoke)
            for _ in range(repeats)
        ]
        traced, traced_detail, traced_code = _child_run(
            name, seed, seconds, True, smoke
        )
        problems = [
            p for _, detail, _ in runs for p in detail.get("problems", [])
        ] + traced_detail.get("problems", [])
        if any(code != 0 for _, _, code in runs) or traced_code != 0:
            problems.append("a run exited non-zero")
        digests = {d.get("result_digest") for _, d, _ in runs}
        digests.add(traced_detail.get("result_digest"))
        if len(digests) != 1:
            problems.append(
                "result digest differs between the repeats and the "
                "traced run"
            )
        end_to_end = {}
        for metric, (unit, better, bound) in bounds.items():
            series = [r["metrics"][metric]["value"] for r, _, _ in runs]
            end_to_end[metric] = {
                "unit": unit,
                "better": better,
                "bound": bound,
                "median": statistics.median(series),
                "min": min(series),
                "max": max(series),
                "n": len(series),
                "values": series,
            }
        attempted = sum(r["attempted"] for r, _, _ in runs)
        failed = sum(r["failed"] for r, _, _ in runs)
        book["workloads"][name] = {
            "why": workload.why,
            "op": workload.op,
            "correct": not problems,
            "problems": problems,
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "result_digest": traced_detail.get("result_digest"),
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
        failed_checks += len(problems)

        print(f"\n== {name}  (op: {workload.op})")
        print(
            f"   result_digest {traced_detail.get('result_digest')}  "
            f"fail_ratio {failed}/{attempted}"
        )
        for metric, row in end_to_end.items():
            print(
                f"   {metric:<18} median {row['median']:>12.6g} "
                f"{row['unit']:<3} [min {row['min']:.6g}, max "
                f"{row['max']:.6g}, n={row['n']}]  bound "
                f"{row['bound']:.0%} {row['better']} is better"
            )
        for metric, value in traced["metrics"].items():
            if value["value"]:
                print(
                    f"     {metric:<50} {value['value']:>14.6g} "
                    f"{value['unit']}"
                )
        for problem in problems:
            print(f"   CHECK FAILED: {problem}")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "ledger.json"
    path.write_text(
        json.dumps(book, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"\nledger written to {path}")
    if failed_checks:
        print(f"{failed_checks} correctness checks FAILED")
    return 1 if failed_checks else 0


# ------------------------------------------------------------------ CLI


def main(
    argv: Sequence[str], process_start: float, speed_at_start: float
) -> int:
    parser = argparse.ArgumentParser(
        prog="perf/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", choices=workloads.WORKLOADS,
        help="measure this one workload and end with the result line "
        "(default: the whole ledger)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(RUN_SECONDS),
        help="how long one run measures",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="same code path on shrunk inputs (the tier-1 smoke test)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="ledger: untraced runs per workload",
    )
    parser.add_argument(
        "--workloads", nargs="+", choices=workloads.WORKLOADS,
        default=list(workloads.WORKLOADS), help="ledger: which workloads",
    )
    parser.add_argument(
        "--out", type=Path, default=OUT_DIR,
        help="ledger: where ledger.json goes",
    )
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0 or args.repeats < 1:
        parser.error("--seconds must be >= 0 and --repeats >= 1")

    if args.probe:
        if args.workload is None:
            parser.error("--probe needs --workload")
        return probe(
            args.workload, args.seed, args.smoke, process_start,
            speed_at_start,
        )
    if args.workload is not None:
        result, detail = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            smoke=args.smoke,
        )
        print_run(result, detail)
        return 0 if result["correct"] else 1
    return ledger(
        args.workloads, args.seed, args.repeats, args.seconds,
        args.smoke, args.out,
    )
