"""Byte-identity pins for the tree ensembles and the regressor tournament.

``data/ensemble_pins.json`` was captured at the commit *before* the five
ensembles (Bagging, Random Forest, AdaBoost.R2, Gradient Boosting and
Histogram Gradient Boosting) were moved onto one packed tree core.  It
pins:

- ``tournament``: the ``run_tournament`` table for every entrant (R1..R18
  and X1) on ``generate_uq_wireless(seed=3)``, ``rmse_wifi`` and
  ``rmse_lte`` as ``float.hex()``, for ``target="bandwidth"`` (the
  paper's Fig. 6) and ``target="mos"``;
- ``ensembles``: the sha256 of ``predict(...).tobytes()`` on 1 row and on
  50 rows (25 training rows, 25 fresh ones) for each ensemble at its
  defaults and at the non-default settings that take a different branch
  of its fit: Bagging without bootstrap on 70 % of the rows, AdaBoost's
  square and exponential losses, stochastic GB, HGB with small leaves or
  a depth cap, and RF with per-node feature subsampling.

Everything is compared with ``==``.  To re-capture after an intentional
change: ``PYTHONPATH=src python tests/ml/test_ensemble_pins.py >
tests/ml/data/ensemble_pins.json`` — it captures under ``PYTHONHASHSEED``
0 and 4242 and refuses to print unless both agree — and say why in the
commit.
"""

import hashlib
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import generate_uq_wireless
from repro.hecate import run_tournament
from repro.ml import (
    AdaBoostRegressor,
    BaggingRegressor,
    GradientBoostingRegressor,
    HistGradientBoostingRegressor,
    RandomForestRegressor,
)

PIN_FILE = Path(__file__).parent / "data" / "ensemble_pins.json"
HASH_SEEDS = ("0", "4242")

ENTRANTS = tuple(f"R{i}" for i in range(1, 19)) + ("X1",)
TARGETS = ("bandwidth", "mos")
ROWS = (1, 50)

#: name -> (class, constructor arguments)
ENSEMBLES = {
    "bagging": (BaggingRegressor, {"random_state": 5}),
    "bagging-bootstrap=False,max_samples=0.7": (
        BaggingRegressor,
        {"bootstrap": False, "max_samples": 0.7, "random_state": 5},
    ),
    "adaboost": (AdaBoostRegressor, {"random_state": 5}),
    "adaboost-loss=square": (
        AdaBoostRegressor,
        {"loss": "square", "random_state": 5},
    ),
    "adaboost-loss=exponential": (
        AdaBoostRegressor,
        {"loss": "exponential", "random_state": 5},
    ),
    "gb": (GradientBoostingRegressor, {"random_state": 5}),
    "gb-subsample=0.6": (
        GradientBoostingRegressor,
        {"subsample": 0.6, "random_state": 5},
    ),
    "hgb": (HistGradientBoostingRegressor, {}),
    "hgb-min_samples_leaf=5": (
        HistGradientBoostingRegressor,
        {"min_samples_leaf": 5},
    ),
    "hgb-max_depth=3": (HistGradientBoostingRegressor, {"max_depth": 3}),
    "rf": (RandomForestRegressor, {"random_state": 5}),
    "rf-max_features=sqrt": (
        RandomForestRegressor,
        {"max_features": "sqrt", "random_state": 5},
    ),
}


def _data():
    """160 training rows with a tied and a discrete column, and 50 query
    rows: the first 25 training rows followed by 25 fresh ones."""
    rng = np.random.default_rng(26)

    def rows(n):
        X = rng.normal(size=(n, 6))
        X[:, 0] = np.round(X[:, 0])
        X[:, 3] = rng.integers(0, 4, size=n)
        return X

    X = rows(160)
    y = (
        2.0 * X[:, 0]
        + np.sin(3.0 * X[:, 1])
        + X[:, 3]
        + 0.1 * X[:, 5] ** 2
        + rng.normal(scale=0.1, size=160)
    )
    Z = np.concatenate([X[:25], rows(25)])
    return X, y, Z


@lru_cache(maxsize=None)
def tournament_pin(target):
    result = run_tournament(
        generate_uq_wireless(seed=3), entrants=ENTRANTS, target=target
    )
    return {
        e.paper_id: [e.rmse_wifi.hex(), e.rmse_lte.hex()]
        for e in result.entries
    }


def ensemble_pin(name):
    cls, params = ENSEMBLES[name]
    X, y, Z = _data()
    model = cls(**params).fit(X, y)
    return {
        str(rows): hashlib.sha256(
            model.predict(Z[:rows]).tobytes()
        ).hexdigest()
        for rows in ROWS
    }


def capture():
    return {
        "tournament": {target: tournament_pin(target) for target in TARGETS},
        "ensembles": {name: ensemble_pin(name) for name in ENSEMBLES},
    }


def _pins():
    return json.loads(PIN_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("target", TARGETS)
def test_tournament_rmse_is_bit_identical(target):
    assert tournament_pin(target) == _pins()["tournament"][target]


@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_ensemble_prediction_is_byte_identical(name):
    assert ensemble_pin(name) == _pins()["ensembles"][name]


def test_pins_cover_what_they_name():
    pins = _pins()
    assert set(pins["ensembles"]) == set(ENSEMBLES)
    for target in TARGETS:
        assert set(pins["tournament"][target]) == set(ENTRANTS)
    # the 1-row and 50-row digests differ, so both sizes are exercised
    for digests in pins["ensembles"].values():
        assert digests["1"] != digests["50"]


if __name__ == "__main__":
    if "--one" in sys.argv:
        print(json.dumps(capture(), indent=1, sort_keys=True))
        sys.exit(0)
    captures = [
        subprocess.run(
            [sys.executable, __file__, "--one"],
            env={**os.environ, "PYTHONHASHSEED": seed},
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        for seed in HASH_SEEDS
    ]
    if len(set(captures)) != 1:
        sys.exit(f"captures differ between PYTHONHASHSEED {HASH_SEEDS}")
    sys.stdout.write(captures[0])
