"""Byte-identity pins for objective handling off the packet level.

``data/objective_pins.json`` was captured at the commit *before*
``assign_fluid`` stopped naming objectives and started resolving them
through the registry in :mod:`repro.hecate.objectives`, under two
``PYTHONHASHSEED`` values that produced identical output.  Each entry
is the sha256 of the canonical ``ScenarioResult.to_dict()`` of one run:

- ``small``: every non-scale scenario x {``fluid``, ``emulation-mock``}
  x every objective registered at capture time, at
  ``quick(horizon=6.0, warmup=2.0)`` — 168 cells;
- ``scale``: ``scale-qoe-mix-2k`` on ``fluid``, ``hybrid`` and
  ``emulation-mock`` and ``scale-fat-tree-2k`` on ``fluid`` at
  ``quick(horizon=3.0, warmup=1.0)`` with the scenario's own objective
  (2 000 flows: the per-flow ``max_qoe`` choice inside large groups,
  and the greedy branch of the joint assignment).

Everything is compared with ``==``.  To re-capture after an intentional
change: ``PYTHONPATH=src python tests/backends/test_objective_pins.py >
tests/backends/data/objective_pins.json`` and say why in the commit.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.hecate.objectives import objective_names
from repro.scenarios import ScenarioRunner, get_scenario, list_scenarios

PIN_FILE = Path(__file__).parent / "data" / "objective_pins.json"

BACKENDS = ("fluid", "emulation-mock")
SCALE_CELLS = (
    ("scale-qoe-mix-2k", "fluid"),
    ("scale-qoe-mix-2k", "hybrid"),
    ("scale-qoe-mix-2k", "emulation-mock"),
    ("scale-fat-tree-2k", "fluid"),
)


def _digest(scenario, backend):
    result = ScenarioRunner(scenario, backend=backend).run()
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def small_pin(name, backend, objective):
    scenario = get_scenario(name).quick(horizon=6.0, warmup=2.0)
    scenario = scenario.with_overrides(
        policy=dataclasses.replace(scenario.policy, objective=objective)
    )
    return _digest(scenario, backend)


def scale_pin(name, backend):
    return _digest(get_scenario(name).quick(horizon=3.0, warmup=1.0), backend)


def capture():
    return {
        "small": {
            f"{scenario.name}[{backend}]": {
                objective: small_pin(scenario.name, backend, objective)
                for objective in objective_names()
            }
            for scenario in list_scenarios(include_scale=False)
            for backend in BACKENDS
        },
        "scale": {
            f"{name}[{backend}]": scale_pin(name, backend)
            for name, backend in SCALE_CELLS
        },
    }


def _pins():
    return json.loads(PIN_FILE.read_text(encoding="utf-8"))


SMALL_CELLS = tuple(
    (scenario.name, backend)
    for scenario in list_scenarios(include_scale=False)
    for backend in BACKENDS
)


@pytest.mark.parametrize("name,backend", SMALL_CELLS)
def test_every_objective_is_byte_identical(name, backend):
    pinned = _pins()["small"][f"{name}[{backend}]"]
    measured = {
        objective: small_pin(name, backend, objective)
        for objective in pinned
    }
    assert measured == pinned


@pytest.mark.parametrize("name,backend", SCALE_CELLS)
def test_scale_cell_is_byte_identical(name, backend):
    assert scale_pin(name, backend) == _pins()["scale"][f"{name}[{backend}]"]


def test_pins_cover_the_objectives_they_name():
    """All four built-in objectives are pinned on every cell, and the
    two that ``assign_fluid`` used to special-case by name really do
    place differently from the joint assignment somewhere."""
    small = _pins()["small"]
    assert len(small) == len(SMALL_CELLS)
    for cell in small.values():
        assert set(cell) == {
            "max_bandwidth", "max_qoe", "min_latency", "min_max_utilization",
        }
    fig11 = small["fig11-latency-migration[fluid]"]
    assert fig11["min_latency"] != fig11["max_bandwidth"]
    mixed = small["qoe-mixed-steady[fluid]"]
    assert mixed["max_qoe"] != mixed["max_bandwidth"]


if __name__ == "__main__":
    print(json.dumps(capture(), indent=1, sort_keys=True))
