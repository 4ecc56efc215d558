#!/usr/bin/env python3
"""Compare two perf ledgers: ``python3 perf/compare.py A.json B.json``.

A is the parent, B the change (both written by ``perf/run.py``).  One
row per workload x end-to-end metric: each side's median, min/max and
n, the ratio with its base, and a verdict from the metric's own bound:

``REGRESSION``  B's median is worse than A's by more than the bound;
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so "no regression" cannot be told from noise -
                unless every run of B beats every run of A
                (``improved``);
``ok``          within the bound, spread narrower than the bound.

Changes of ``result_digest``, of any ``sim.*`` value or of a
deterministic count are listed separately as *simulated results
changed*: at one seed those repeat exactly, so a difference is a
behaviour change, never noise.  Exits 1 on any regression, 2 on ledgers
that cannot be compared, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

#: per-layer counts that repeat exactly for a fixed seed
EXACT_COUNTS = (
    "net.sim.events",
    "net.links.tx_packets",
    "net.telemetry.samples",
    "hecate.service.asked",
    "hecate.service.fits",
    "hecate.service.forecast_cache_hits",
    "framework.controller.reopt_solved",
    "framework.controller.migrations",
    "run.ops",
)


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the distance between
    the quartiles (the range, below four runs; 0 for a single run)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[str, float]:
    """(verdict, share of A's median by which B is worse)."""
    lower = a["better"] == "lower"
    base = a["median"]
    worse_by = (b["median"] - base) / base if base else 0.0
    if not lower:
        worse_by = -worse_by
    bound = a["bound"]
    if worse_by > bound:
        return "REGRESSION", worse_by
    if max(spread(a["values"]), spread(b["values"])) > bound:
        if lower:
            clean_win = max(b["values"]) < min(a["values"])
        else:
            clean_win = min(b["values"]) > max(a["values"])
        return ("improved" if clean_win else "unresolved"), worse_by
    return "ok", worse_by


def comparable(env_a: Dict[str, Any], env_b: Dict[str, Any]) -> List[str]:
    """Why two ledgers' numbers may not be set side by side."""
    notes = []
    for key in ("seed", "smoke", "run_seconds", "inputs", "nproc",
                "threads", "python", "numpy"):
        if env_a.get(key) != env_b.get(key):
            notes.append(
                f"{key} differs: {env_a.get(key)!r} vs {env_b.get(key)!r}"
            )
    return notes


def _cell(row: Dict[str, Any]) -> str:
    return (
        f"{row['median']:.5g} [{row['min']:.5g}, {row['max']:.5g}] "
        f"n={row['n']}"
    )


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    notes = comparable(a["environment"], b["environment"])
    for note in notes:
        print(f"NOT LIKE FOR LIKE: {note}")
    same_inputs = (
        a["environment"].get("seed") == b["environment"].get("seed")
        and a["environment"].get("inputs") == b["environment"].get("inputs")
    )
    print(
        f"A = {a['environment'].get('commit')}  "
        f"B = {b['environment'].get('commit')}"
    )
    regressions = 0
    shared = [w for w in a["workloads"] if w in b["workloads"]]
    if not shared:
        print("the ledgers share no workload")
        return 2
    header = (
        f"{'workload':<18}{'metric':<21}{'A median [min, max] n':<40}"
        f"{'B median [min, max] n':<40}{'B/A':>8}  verdict"
    )
    print(header)
    for name in shared:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, row_a in wa["end_to_end"].items():
            row_b = wb["end_to_end"].get(metric)
            if row_b is None:
                continue
            what, worse_by = verdict(row_a, row_b)
            regressions += what == "REGRESSION"
            ratio = (
                row_b["median"] / row_a["median"] if row_a["median"] else 0.0
            )
            print(
                f"{name:<18}{metric:<21}{_cell(row_a):<40}{_cell(row_b):<40}"
                f"{ratio:>7.3f}x  {what} ({worse_by:+.1%} vs bound "
                f"{row_a['bound']:.0%}, base A {row_a['median']:.5g} "
                f"{row_a['unit']})"
            )
        for side, w in (("A", wa), ("B", wb)):
            if not w.get("correct", False):
                print(f"{name}: ledger {side} failed its own checks")
        if not same_inputs:
            continue
        changed = []
        if wa.get("result_digest") != wb.get("result_digest"):
            changed.append("result_digest")
        layers_a, layers_b = wa["per_layer"], wb["per_layer"]
        for metric in layers_a:
            if metric.startswith("sim.") or metric in EXACT_COUNTS:
                va = layers_a[metric]["value"]
                vb = layers_b.get(metric, {}).get("value")
                if va != vb:
                    changed.append(f"{metric} {va!r} -> {vb!r}")
        if wa.get("failed") != wb.get("failed") and (
            wa.get("attempted") == wb.get("attempted")
        ):
            changed.append(f"failed {wa.get('failed')} -> {wb.get('failed')}")
        if changed:
            print(
                f"{name}: SIMULATED RESULTS CHANGED: " + "; ".join(changed)
            )
    if regressions:
        print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    try:
        a, b = (
            json.loads(Path(path).read_text(encoding="utf-8"))
            for path in argv
        )
    except (OSError, ValueError) as exc:
        print(f"compare.py: cannot read a ledger: {exc}", file=sys.stderr)
        return 2
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
