"""Epoch-solve and FIB pins for the fluid cell's setup and solve path.

``data/epoch_pins.json`` was captured before ``solve_epochs``, the
``max_min_fair_bounded`` round loop, ``_canonicalize``/``_fill_vector``
and ``Network._rebuild_fibs`` were rewritten to resolve spans, paths and
the FIB graph once per call.  The scenario-level pins compare a
``ScenarioResult``; these compare what it is computed from.

- ``solves``: per cell, the number of ``EpochSolve`` records the
  backend's ``solve_epochs`` call returned and the sha256 of all of
  them — each solve's ``t0``/``t1``, its ``rates``, ``overlaps`` and
  ``blacked`` in dict order with floats as ``float.hex()``, its
  ``class_rates`` and its ``blacked_members``.  The cells: a thinned
  ``scale-fat-tree-2k`` on ``fluid`` (the coalesced-grid path),
  ``ring-link-flap``, ``geo-rolling-failures`` and a thinned
  ``scale-geo-rolling-10k`` on ``fluid`` (the failure path), and
  ``wan-elephant-mice`` on ``hybrid`` in per-flow and aggregate-mice
  mode.
- ``fibs``: per registered scenario, the sha256 of every router's FIB in
  insertion order after the topology's ``build()``, after ``fail_link``
  on its middle router-to-router link, and after the matching
  ``restore_link``.

Nothing here hashes a builtin float ``sum``, so the pins hold on every
supported Python.  Everything is compared with ``==``.  To re-capture
after an intentional change: ``PYTHONPATH=src python
tests/scenarios/test_epoch_pins.py > tests/scenarios/data/epoch_pins.json``
— it captures under ``PYTHONHASHSEED`` 0 and 4242 and refuses to print
unless both agree — and say why in the commit.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import repro.backends.fluid
import repro.backends.hybrid
from repro.scenarios import ScenarioRunner, get_scenario, list_scenarios

PIN_FILE = Path(__file__).parent / "data" / "epoch_pins.json"
HASH_SEEDS = ("0", "4242")

#: label -> (scenario, backend, thinned flow count, quick horizon/warmup,
#: aggregate mice)
CELLS = {
    "scale-fat-tree-2k/400[fluid]": (
        "scale-fat-tree-2k", "fluid", 400, None, False
    ),
    "ring-link-flap[fluid]": ("ring-link-flap", "fluid", None, None, False),
    "geo-rolling-failures[fluid]": (
        "geo-rolling-failures", "fluid", None, None, False
    ),
    "scale-geo-rolling-10k/600[fluid]": (
        "scale-geo-rolling-10k", "fluid", 600, None, False
    ),
    "wan-elephant-mice[hybrid]": (
        "wan-elephant-mice", "hybrid", None, (6.0, 2.0), False
    ),
    "wan-elephant-mice/aggregate[hybrid]": (
        "wan-elephant-mice", "hybrid", None, (6.0, 2.0), True
    ),
}


def _hex(values):
    return ",".join(float(v).hex() for v in values)


def _solve_line(solve):
    return ";".join(
        (
            _hex((solve.t0, solve.t1)),
            ",".join(f"{n}={float(r).hex()}" for n, r in solve.rates.items()),
            ",".join(
                f"{n}={float(o).hex()}" for n, o in solve.overlaps.items()
            ),
            ",".join(solve.blacked),
            _hex(solve.class_rates.tolist()),
            str(solve.blacked_members),
        )
    )


def _scenario(label):
    name, _, flows, quick, aggregate = CELLS[label]
    scenario = get_scenario(name)
    if quick is not None:
        scenario = scenario.quick(horizon=quick[0], warmup=quick[1])
    if flows is not None:
        scenario = scenario.with_overrides(
            traffic=dataclasses.replace(scenario.traffic, n_flows=flows)
        )
    if aggregate:
        scenario = scenario.with_overrides(
            classes=dataclasses.replace(
                scenario.classes, aggregate_background=True
            )
        )
    return scenario


def epoch_pin(label):
    """Run one cell and digest every ``EpochSolve`` its backend solved."""
    backend = CELLS[label][1]
    module = {"fluid": repro.backends.fluid, "hybrid": repro.backends.hybrid}
    seen = []
    solve = module[backend].solve_epochs

    def recording(*args, **kwargs):
        solves = solve(*args, **kwargs)
        seen.append(solves)
        return solves

    with mock.patch.object(module[backend], "solve_epochs", recording):
        ScenarioRunner(_scenario(label), backend=backend).run()
    (solves,) = seen
    blob = "\n".join(_solve_line(s) for s in solves)
    return {
        "epochs": len(solves),
        "blacked": sum(len(s.blacked) for s in solves),
        "classes": sum(int((s.class_rates > 0.0).sum()) for s in solves),
        "sha256": hashlib.sha256(blob.encode("ascii")).hexdigest(),
    }


def _fib_digest(network):
    blob = json.dumps(
        [
            [name, list(router.fib.items())]
            for name, router in network.routers.items()
        ]
    )
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def fib_pin(name):
    """FIB digests of one scenario's topology: built, one router link
    failed, restored."""
    network = get_scenario(name).topology.build()
    core = sorted(
        tuple(sorted(n.name for n in link.endpoints()))
        for link in network.links.values()
        if all(n.name in network.routers for n in link.endpoints())
    )
    a, b = core[len(core) // 2]
    digests = {"built": _fib_digest(network)}
    network.fail_link(a, b)
    digests["failed"] = _fib_digest(network)
    network.restore_link(a, b)
    digests["restored"] = _fib_digest(network)
    return {"link": f"{a}-{b}", **digests}


def capture():
    return {
        "solves": {label: epoch_pin(label) for label in CELLS},
        "fibs": {s.name: fib_pin(s.name) for s in list_scenarios()},
    }


def _pins():
    return json.loads(PIN_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("label", sorted(CELLS))
def test_epoch_solves_are_identical(label):
    assert epoch_pin(label) == _pins()["solves"][label]


def test_fibs_are_identical():
    pins = _pins()["fibs"]
    assert set(pins) == {s.name for s in list_scenarios()}
    for name, pin in pins.items():
        assert fib_pin(name) == pin, name


def test_pins_exercise_what_they_name():
    """The failure cells black flows out, the aggregate cell solves
    classes, and the failed link moves at least one FIB."""
    solves = _pins()["solves"]
    assert all(pin["epochs"] > 1 for pin in solves.values())
    for label in (
        "ring-link-flap[fluid]",
        "geo-rolling-failures[fluid]",
        "scale-geo-rolling-10k/600[fluid]",
    ):
        assert solves[label]["blacked"] > 0
    assert solves["wan-elephant-mice/aggregate[hybrid]"]["classes"] > 0
    assert solves["wan-elephant-mice[hybrid]"]["classes"] == 0
    fibs = _pins()["fibs"]
    assert all(pin["restored"] == pin["built"] for pin in fibs.values())
    assert any(pin["failed"] != pin["built"] for pin in fibs.values())


if __name__ == "__main__":
    if "--one" in sys.argv:
        print(json.dumps(capture(), indent=1, sort_keys=True))
        sys.exit(0)
    captures = [
        subprocess.run(
            [sys.executable, __file__, "--one"],
            env={**os.environ, "PYTHONHASHSEED": seed},
            check=True, capture_output=True, text=True,
        ).stdout
        for seed in HASH_SEEDS
    ]
    if len(set(captures)) != 1:
        sys.exit(f"captures differ between PYTHONHASHSEED {HASH_SEEDS}")
    sys.stdout.write(captures[0])
