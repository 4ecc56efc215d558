"""Tier-1 smoke tests of the perf ledger (``--smoke`` sizes, no timing
assertions: host speed is not a test outcome).

They pin what later PRs rely on: the metric and workload names equal
``BENCHMARK.json``, every correctness check fires, the tracer's
arithmetic is right and leaves nothing behind, and no wrapper is dead —
every span a workload is said to exercise records a call, so a refactor
that rebinds a name (``from x import f``) cannot silently zero a layer.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import harness
import kernels
import spans
import workloads
from spans import Tracer, summarise

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _run_py(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(PERF / "run.py"), *args],
        cwd=str(cwd), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False, timeout=120,
    )


# ------------------------------------------------------------- the names


def test_benchmark_json_equals_the_harness_registry():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == harness.manifest()


def test_names_and_units_are_well_formed():
    manifest = harness.manifest()
    names = [w["name"] for w in manifest["workloads"]]
    metrics = manifest["end_to_end"] + manifest["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert len(manifest["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])


# ------------------------------------------- every workload, traced, smoke


@pytest.fixture(scope="module")
def traced_runs():
    """One traced smoke run per workload, kernels timed once."""
    kernel_values = kernels.run_kernels(0.0)
    runs = {}
    for name in workloads.WORKLOADS:
        workload = workloads.get(name, smoke=True)
        reference = harness.measure(workload, 1, 0.0, min_rounds=1)
        with Tracer() as tracer:
            traced = harness.measure(
                workload, 1, 0.0, tracer=tracer, min_rounds=2
            )
        values, dead = harness.layer_values(
            workload, reference, traced, kernel_values
        )
        runs[name] = (workload, reference, traced, values, dead)
    return runs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(traced_runs, name):
    _, reference, traced, values, _ = traced_runs[name]
    expected = [n for n, _, _ in harness.per_layer_metrics()]
    assert list(values) == expected
    assert all(isinstance(v, (int, float)) for v in values.values())
    assert not reference.problems and not traced.problems
    # tracing changes no result, and repeats of an input agree
    assert reference.digest == traced.digest
    assert values["run.ops"] >= 1
    assert values["trace.attributed_ratio"] > 0.5
    assert all(v > 0 for k, v in values.items() if k.startswith("kernel."))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_no_dead_wrapper(traced_runs, name):
    """Every span the workload is said to exercise recorded a call."""
    workload, _, _, values, dead = traced_runs[name]
    assert workload.exercises
    assert set(workload.exercises) <= set(spans.SPAN_NAMES)
    assert dead == []


def test_workloads_stress_different_layers(traced_runs):
    # counts only: which layer a workload reaches, not how fast
    packets = {
        name: run[3]["net.links.tx_packets"]
        for name, run in traced_runs.items()
    }
    assert packets.pop("hybrid_qoe_2k") > 1000
    assert not any(packets.values())
    assert traced_runs["service_churn"][3]["hecate.service.fits"] == 0
    assert traced_runs["service_rfr_loop"][3]["hecate.service.fits"] > 0
    cold = traced_runs["sweep_cold_1k"][3]
    warm = traced_runs["sweep_warm_1k"][3]
    assert cold["sweep.cache.put.calls"] > 0
    assert cold["net.sim.events"] == 0
    # the warm workload writes only while filling the cache (prepare)
    assert warm["sweep.cache.get.calls"] > warm["sweep.cache.put.calls"]


# ------------------------------------------------- correctness checks fire


def test_corrupt_warm_artifact_fails_the_run(monkeypatch, capsys):
    prepare = workloads.SweepWarm.prepare

    def prepare_then_corrupt(self, key):
        state = prepare(self, key)
        victim = sorted(state["cache"].root.glob("*.json"))[0]
        victim.write_text("{ not json", encoding="utf-8")
        return state

    monkeypatch.setattr(workloads.SweepWarm, "prepare", prepare_then_corrupt)
    monkeypatch.setattr(  # timed once already, in traced_runs
        kernels, "run_kernels", lambda seconds: dict.fromkeys(kernels.KERNELS, 0)
    )
    code = harness.main(
        ["--workload", "sweep_warm_1k", "--smoke", "--seconds", "0",
         "--trace", "1"],
        process_start=0.0, speed_at_start=0.005,
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "missed the cache" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_changed_digest_between_repeats_is_a_problem(monkeypatch):
    workload = workloads.get("service_churn", smoke=True)
    inspect = workload.inspect
    calls = []

    def inspect_drifting(state, result):
        outcome = inspect(state, result)
        calls.append(1)
        outcome.digest += str(len(calls))
        return outcome

    monkeypatch.setattr(workload, "inspect", inspect_drifting)
    measured = harness.measure(workload, 1, 0.0, min_rounds=2)
    assert any("digest changed" in p for p in measured.problems)


# --------------------------------------------------- the command, end to end


def test_one_untraced_run_prints_the_contract_line():
    done = _run_py(
        "--workload", "service_churn", "--seed", "3", "--seconds", "0",
        "--trace", "0", "--smoke",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {n: u for n, u, _, _ in harness.END_TO_END}
    assert {
        n: m["unit"] for n, m in result["metrics"].items()
    } == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # and every metric is printed by name with its unit
    for name, unit in expected.items():
        assert re.search(rf"^\s+{name}\s+\S+ {unit}$", done.stdout, re.M)


def test_fails_without_printing_a_result_when_the_program_is_absent(
    tmp_path,
):
    """The driver runs the benchmark in a directory that holds only
    BENCHMARK.json and perf/: it must exit non-zero with no result."""
    lonely = tmp_path / "perf"
    lonely.mkdir()
    for source in PERF.glob("*.py"):
        (lonely / source.name).write_bytes(source.read_bytes())
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "service_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False, timeout=60, env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ------------------------------------------------------------- the tracer


def test_summarise_self_time_arithmetic():
    #       name   start  end   parent
    rec = [["outer", 0.0, 10.0, -1],
           ["inner", 1.0, 4.0, 0],
           ["leaf", 2.0, 3.0, 1],
           ["inner", 5.0, 7.0, 0],
           ["outer", 20.0, 21.0, -1]]
    summary = summarise(rec)
    assert summary["outer"] == {"calls": 2, "total_s": 11.0, "self_s": 6.0}
    assert summary["inner"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert summary["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    # self times over the forest add up to the roots' durations
    assert sum(r["self_s"] for r in summary.values()) == 11.0


def test_wrapped_calls_nest_and_survive_exceptions():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    traced_leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda x: traced_leaf(x) + traced_leaf(x))

    assert outer(1) == 4  # no recording open: runs unrecorded
    tracer.begin()
    assert outer(1) == 4
    with pytest.raises(ValueError):
        outer(-1)
    rec = tracer.take()  # raises if a span were left open
    assert [span[0] for span in rec] == [
        "outer", "leaf", "leaf", "outer", "leaf"
    ]
    assert [span[3] for span in rec] == [-1, 0, 0, -1, 3]
    assert all(end >= start for _, start, end, _ in rec)
    summary = summarise(rec)
    children = summary["leaf"]["total_s"]
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - children
    )
    with pytest.raises(RuntimeError):
        tracer.take()


def test_tracer_removes_every_wrapper():
    import repro.backends.fluid
    import repro.hecate.objectives
    from repro.backends.hybrid import HybridBackend
    from repro.bus import MessageBus
    from repro.scenarios.result import ScenarioResult
    from repro.scenarios.runner import ScenarioRunner

    def snapshot():
        return (
            ScenarioRunner.__dict__["setup"],
            ScenarioResult.__dict__["from_dict"],
            HybridBackend.__dict__["execute"],
            MessageBus.__dict__["subscribe"],
            repro.hecate.objectives.assign_flows,
            repro.backends.fluid.assign_flows,
        )

    before = snapshot()
    with Tracer():
        during = snapshot()
        # the lookup site is patched, not only the defining module
        assert (
            repro.backends.fluid.assign_flows
            is repro.hecate.objectives.assign_flows
        )
        assert isinstance(during[1], classmethod)
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(snapshot(), before))
    # a failed install rolls back too
    tracer = Tracer()
    tracer.install()
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()
    assert all(a is b for a, b in zip(snapshot(), before))


# ------------------------------------------------------------- compare.py


def _ledger(values, digest="d", events=10.0):
    return {
        "environment": {"seed": 1, "inputs": {}, "commit": "c"},
        "workloads": {
            "w": {
                "correct": True,
                "attempted": 5,
                "failed": 0,
                "result_digest": digest,
                "end_to_end": {
                    "norm_wall_per_op_us": {
                        "unit": "us", "better": "lower", "bound": 0.10,
                        "median": sorted(values)[len(values) // 2],
                        "min": min(values), "max": max(values),
                        "n": len(values), "values": list(values),
                    }
                },
                "per_layer": {
                    "net.sim.events": {"value": events, "unit": "count"},
                    "sim.mean_qoe": {"value": 3.5, "unit": "MOS"},
                },
            }
        },
    }


def test_compare_verdicts(capsys):
    base = _ledger([100.0, 101.0, 102.0])
    assert compare.compare(base, _ledger([104.0, 105.0, 106.0])) == 0
    assert "ok" in capsys.readouterr().out
    assert compare.compare(base, _ledger([120.0, 121.0, 122.0])) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # spread wider than the bound: unresolved, unless a clean win
    noisy = _ledger([90.0, 100.0, 115.0])
    assert compare.compare(noisy, _ledger([92.0, 101.0, 114.0])) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.compare(noisy, _ledger([60.0, 70.0, 80.0])) == 0
    assert "improved" in capsys.readouterr().out


def test_compare_flags_simulated_changes_separately(capsys):
    base = _ledger([100.0, 101.0, 102.0])
    changed = _ledger([100.0, 101.0, 102.0], digest="e", events=11.0)
    assert compare.compare(base, changed) == 0
    out = capsys.readouterr().out
    assert "SIMULATED RESULTS CHANGED" in out
    assert "result_digest" in out and "net.sim.events" in out
