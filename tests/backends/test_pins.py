"""Byte-identity pins: the backend extraction changed no numbers.

``data/pre_refactor_pins.json`` was captured from the monolithic
``ScenarioRunner._run_*`` implementations immediately before the
backends were extracted into :mod:`repro.backends` (with the fluid /
hybrid delivered-rate summation pinned to sorted flow order — the
hash-seed determinism fix noted on ``CACHE_VERSION`` v6).  Every entry
pins one ``(scenario, backend)`` cell at ``quick(horizon=6.0,
warmup=2.0)`` unless the entry carries its own ``horizon``/``warmup``:

- the full ``ScenarioResult.to_dict()`` payload, compared for exact
  equality — floats must match to the last ulp, not approximately;
- the scenario's cache fingerprint, which is independent of
  ``CACHE_VERSION`` and therefore must never move unless the
  ``Scenario`` dataclass itself changes shape.

If a refactor legitimately changes a number, re-capture the pin in the
same commit and say why in the commit message; this file failing is the
alarm, not the nuisance.

Re-captured at ``CACHE_VERSION`` v7 (application-aware QoE): the path
probes grew jitter/loss columns, moving ``telemetry_samples`` on every
DES/hybrid cell, and results grew ``mean_qoe`` / ``qoe_flows`` /
``qoe_per_class`` (all zero/empty here — these scenarios classify no
flows).  Every traffic number was verified unchanged at re-capture.

The three ``scale-fat-tree-2k`` cells (``quick(horizon=3.0,
warmup=1.0)``) were captured immediately before the fluid paths were
merged into one solver and one epoch pipeline.  They pin what the small
cells cannot reach: the ``fluid`` cell has more flow edges than
``max_epochs`` and so runs the coalesced-grid path, and the two hybrid
cells carry 1 992 mice (168 classes in aggregate mode, against 6 on
``wan-elephant-mice``).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.scenarios import ScenarioRunner, get_scenario
from repro.sweep import scenario_fingerprint

PINS = json.loads(
    (Path(__file__).parent / "data" / "pre_refactor_pins.json").read_text(
        encoding="utf-8"
    )
)


def _scenario_for(pin):
    scenario = get_scenario(pin["scenario"]).quick(
        horizon=pin.get("horizon", 6.0), warmup=pin.get("warmup", 2.0)
    )
    if pin["aggregate"]:
        scenario = scenario.with_overrides(
            classes=dataclasses.replace(
                scenario.classes, aggregate_background=True
            )
        )
    return scenario


@pytest.mark.parametrize("key", sorted(PINS))
def test_result_is_byte_identical_to_pre_refactor(key):
    pin = PINS[key]
    scenario = _scenario_for(pin)
    result = ScenarioRunner(scenario, backend=pin["backend"]).run()
    assert result.to_dict() == pin["result"], (
        f"{key} drifted from the pre-refactor pin; if the change is "
        "intentional, re-capture data/pre_refactor_pins.json"
    )


@pytest.mark.parametrize("key", sorted(PINS))
def test_scenario_fingerprint_is_stable(key):
    pin = PINS[key]
    assert scenario_fingerprint(_scenario_for(pin)) == pin["fingerprint"]


def test_pin_coverage():
    """Every in-process backend is pinned on at least one scenario."""
    pinned_backends = {pin["backend"] for pin in PINS.values()}
    assert {"des", "fluid", "hybrid"} <= pinned_backends
    assert any(pin["aggregate"] for pin in PINS.values())
