"""Hecate's QoS predictor: the paper's regression pipeline (Sec. V.B).

Pipeline per path: ``StandardScaler`` (fit on training data only) ->
10-lag sliding window -> regressor -> inverse transform.  The integrated
framework asks for the *next 10 steps* (recursive forecast) and routes
the flow onto the path with the most predicted available bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ml import StandardScaler, clone, make_lag_matrix, root_mean_squared_error
from repro.ml.base import NotFittedError

__all__ = ["QoSPredictor", "EvaluationResult", "evaluate_pipeline"]

PAPER_N_LAGS = 10
PAPER_HORIZON = 10  # "Hecate computes the predicted values for the next 10 steps"


@dataclass(frozen=True)
class EvaluationResult:
    """Train/test evaluation of one (series, model) pipeline."""

    rmse: float
    predictions: np.ndarray
    observed: np.ndarray
    test_start_index: int


class QoSPredictor:
    """Scaler + lag window + regressor, per the paper's protocol.

    Parameters
    ----------
    model:
        Any ``repro.ml`` regressor (unfitted; it is cloned on ``fit``).
    n_lags:
        History length (the paper fixes 10: values ``t_i .. t_{i-9}``).
    scale:
        Standardize the series with train-split statistics (the paper's
        StandardScaler step).  The tournament disables this only for its
        paper-faithful GPR entry.
    """

    def __init__(self, model, n_lags: int = PAPER_N_LAGS, scale: bool = True):
        if n_lags < 1:
            raise ValueError("n_lags must be >= 1")
        self.model = model
        self.n_lags = n_lags
        self.scale = scale
        self.fitted_model_ = None
        self.scaler_: Optional[StandardScaler] = None

    # ---------------------------------------------------------------- fit

    def fit(self, series) -> "QoSPredictor":
        series = np.asarray(series, dtype=np.float64).ravel()
        if series.size < self.n_lags + 1:
            raise ValueError(
                f"need at least {self.n_lags + 1} samples, got {series.size}"
            )
        if self.scale:
            self.scaler_ = StandardScaler().fit(series.reshape(-1, 1))
            series = self.scaler_.transform(series.reshape(-1, 1)).ravel()
        else:
            self.scaler_ = None
        X, y = make_lag_matrix(series, self.n_lags, horizon=1)
        self.fitted_model_ = clone(self.model)
        self.fitted_model_.fit(X, y)
        return self

    def _check_fitted(self) -> None:
        if self.fitted_model_ is None:
            raise NotFittedError("QoSPredictor is not fitted")

    def _to_scaled(self, values: np.ndarray) -> np.ndarray:
        if self.scaler_ is None:
            return values
        return self.scaler_.transform(values.reshape(-1, 1)).ravel()

    def _from_scaled(self, values: np.ndarray) -> np.ndarray:
        if self.scaler_ is None:
            return values
        return self.scaler_.inverse_transform(values.reshape(-1, 1)).ravel()

    # ------------------------------------------------------------ predict

    def predict_next(self, history) -> float:
        """One-step-ahead prediction from the most recent ``n_lags`` values."""
        return float(self.forecast(history, steps=1)[0])

    def forecast(self, history, steps: int = PAPER_HORIZON) -> np.ndarray:
        """Recursive multi-step forecast (each prediction feeds the window)."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        self._check_fitted()
        history = np.asarray(history, dtype=np.float64).ravel()
        if history.size < self.n_lags:
            raise ValueError(
                f"need {self.n_lags} history samples, got {history.size}"
            )
        window = list(self._to_scaled(history[-self.n_lags:]))
        out = []
        for _ in range(steps):
            pred = float(
                self.fitted_model_.predict(np.asarray(window[-self.n_lags:]).reshape(1, -1))[0]
            )
            out.append(pred)
            window.append(pred)
        return self._from_scaled(np.asarray(out))


def evaluate_pipeline(
    series,
    model,
    n_lags: int = PAPER_N_LAGS,
    test_size: float = 0.25,
    scale: bool = True,
) -> EvaluationResult:
    """Run the paper's full evaluation protocol on one series.

    1. proportional time-ordered split (default 75/25),
    2. scaler fit on the training split only,
    3. lag matrices built *within* each split,
    4. RMSE on inverse-transformed test predictions.
    """
    series = np.asarray(series, dtype=np.float64).ravel()
    n_test = max(1, int(round(series.size * test_size)))
    n_train = series.size - n_test
    if n_train < n_lags + 2:
        raise ValueError("series too short for the requested split")
    train, test = series[:n_train], series[n_train:]

    predictor = QoSPredictor(model, n_lags=n_lags, scale=scale).fit(train)
    X_test, y_test = make_lag_matrix(
        predictor._to_scaled(test), n_lags, horizon=1
    )
    pred = predictor._from_scaled(predictor.fitted_model_.predict(X_test))
    observed = predictor._from_scaled(y_test)
    return EvaluationResult(
        rmse=root_mean_squared_error(observed, pred),
        predictions=pred,
        observed=observed,
        test_start_index=n_train + n_lags,
    )
