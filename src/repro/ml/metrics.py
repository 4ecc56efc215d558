"""Regression metrics.

The paper scores every model with RMSE (its Fig. 6 scatter plots RMSE on
WiFi vs RMSE on LTE), and RMSE is the only score anything here reports.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mean_squared_error", "root_mean_squared_error"]


def _validate(y_true, y_pred):
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"shape mismatch: y_true {y_true.shape} vs y_pred {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("empty inputs")
    return y_true, y_pred


def mean_squared_error(y_true, y_pred) -> float:
    y_true, y_pred = _validate(y_true, y_pred)
    return float(np.mean((y_true - y_pred) ** 2))


def root_mean_squared_error(y_true, y_pred) -> float:
    """RMSE — the paper's headline metric for the regressor tournament."""
    return float(np.sqrt(mean_squared_error(y_true, y_pred)))
