"""Byte-identity pins for Hecate's RFR forecast path.

``data/forecast_pins.json`` was captured at the commit *before* the
forest learned to predict in one packed pass (one node table, every
(tree, row) pair routed together), under two ``PYTHONHASHSEED`` values
that produced identical output.  It pins, as float hex so that no digit
is lost to a decimal round trip:

- ``forecasts``: ``QoSPredictor(default_model_factory()).fit(s)
  .forecast(s)`` on four series — constant (the perf ledger's
  ``service_rfr_loop`` regime: service mode sends no packets, so every
  path's available bandwidth is flat), a noisy sinusoid, a step, and a
  120-sample noisy ramp that grows deep trees;
- ``forests``: ``RandomForestRegressor.predict`` at 1, 17 and 200 rows
  for forests whose per-node feature subsampling draws from the tree's
  RNG (``"sqrt"``, ``0.5``), a depth-capped one and one without
  bootstrap — the subsampling RNG stream must not shift;
- ``service``: the sha256 of the canonical ``ServiceResult.to_dict()``
  of ``ring-steady`` with the RFR model at the perf ledger's ``--smoke``
  size (33 s: long enough for Hecate to fit, which no scenario pin is).

Everything is compared with ``==``.  To re-capture after an intentional
change: ``PYTHONPATH=src python tests/hecate/test_forecast_pins.py >
tests/hecate/data/forecast_pins.json`` and say why in the commit.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.framework.service_mode import ServiceDriver
from repro.hecate import QoSPredictor
from repro.hecate.service import default_model_factory
from repro.ml import RandomForestRegressor
from repro.scenarios.registry import get_workload

PIN_FILE = Path(__file__).parent / "data" / "forecast_pins.json"

FOREST_ROWS = (1, 17, 200)
FOREST_PARAMS = {
    "max_features=sqrt": {"max_features": "sqrt"},
    "max_features=0.5": {"max_features": 0.5},
    "max_depth=3": {"max_depth": 3},
    "bootstrap=False": {"bootstrap": False},
}
SERVICE = {
    "workload": "ring-steady",
    "model": "rfr",
    "rate": 30.0,
    "duration": 33.0,
    "seed": 100,
}


def _series():
    rng = np.random.default_rng(2024)
    t = np.arange(40)
    return {
        "constant": np.full(40, 87.5),
        "noisy-sinusoid": 60.0
        + 25.0 * np.sin(t / 4.0)
        + rng.normal(scale=3.0, size=40),
        "step": np.concatenate([np.full(22, 90.0), np.full(18, 35.0)]),
        "noisy-ramp-120": np.linspace(10.0, 95.0, 120)
        + rng.normal(scale=2.0, size=120),
    }


def _forest_data():
    """Training set with tied feature values and 217 query rows."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(150, 9))
    X[:, 0] = np.round(X[:, 0])
    X[:, 4] = rng.integers(0, 3, size=150)
    y = X[:, 0] * 2.0 + np.sin(X[:, 1] * 3.0) + X[:, 4] + 0.1 * X[:, 7] ** 2
    Z = rng.normal(size=(max(FOREST_ROWS), 9))
    Z[:, 0] = np.round(Z[:, 0])
    Z[:, 4] = rng.integers(0, 3, size=Z.shape[0])
    return X, y, Z


def _hex(values):
    return [float(v).hex() for v in values]


def forecast_pin(name):
    series = _series()[name]
    predictor = QoSPredictor(default_model_factory()).fit(series)
    return _hex(predictor.forecast(series))


def forest_pin(name):
    X, y, Z = _forest_data()
    forest = RandomForestRegressor(
        n_estimators=25, random_state=11, **FOREST_PARAMS[name]
    ).fit(X, y)
    return {str(rows): _hex(forest.predict(Z[:rows])) for rows in FOREST_ROWS}


def service_pin():
    base = get_workload(SERVICE["workload"])
    workload = base.with_overrides(
        policy=dataclasses.replace(base.policy, model=SERVICE["model"])
    )
    result = ServiceDriver(
        workload,
        rate=SERVICE["rate"],
        duration=SERVICE["duration"],
        warmup=0.0,
        seed=SERVICE["seed"],
    ).run()
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return dict(SERVICE, sha256=hashlib.sha256(blob.encode("utf-8")).hexdigest())


def capture():
    return {
        "forecasts": {name: forecast_pin(name) for name in _series()},
        "forests": {name: forest_pin(name) for name in FOREST_PARAMS},
        "service": service_pin(),
    }


def _pins():
    return json.loads(PIN_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(_series()))
def test_forecast_is_byte_identical(name):
    assert forecast_pin(name) == _pins()["forecasts"][name]


@pytest.mark.parametrize("name", sorted(FOREST_PARAMS))
def test_forest_prediction_is_byte_identical(name):
    assert forest_pin(name) == _pins()["forests"][name]


def test_service_result_is_byte_identical():
    assert service_pin() == _pins()["service"]


def test_pins_cover_the_regimes_they_name():
    """The constant series must grow single-leaf trees and the ramp deep
    ones, or the pins above would not pin what their names say."""
    series = _series()
    flat = QoSPredictor(default_model_factory()).fit(series["constant"])
    assert {t.n_nodes_ for t in flat.fitted_model_.estimators_} == {1}
    ramp = QoSPredictor(default_model_factory()).fit(series["noisy-ramp-120"])
    assert min(t.depth_ for t in ramp.fitted_model_.estimators_) >= 6
    assert len(set(_pins()["forecasts"]["noisy-ramp-120"])) > 1


if __name__ == "__main__":
    print(json.dumps(capture(), indent=1, sort_keys=True))
