"""Classical time-series forecasters (paper Sec. VII future work).

The paper's conclusion names "time series estimation models" as the next
modelling direction; this module provides the standard exponential-
smoothing family — simple exponential smoothing, Holt's linear trend and
additive Holt-Winters — behind a ``fit(series)`` / ``forecast(steps)``
API, plus an adapter exposing them through the same interface as
:class:`repro.hecate.predictor.QoSPredictor` so the framework can swap a
lag-regression model for a state-based forecaster with one argument.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "SimpleExpSmoothing",
    "HoltLinear",
    "HoltWinters",
    "TimeSeriesQoSPredictor",
]


class _FittedMixin:
    def _check_fitted(self):
        if getattr(self, "_fitted", False) is not True:
            raise RuntimeError(f"{type(self).__name__} is not fitted")


class SimpleExpSmoothing(_FittedMixin):
    """Level-only exponential smoothing: flat forecasts at the last level."""

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.level_: float = 0.0
        self.fitted_: Optional[np.ndarray] = None
        self._fitted = False

    def fit(self, series) -> "SimpleExpSmoothing":
        s = np.asarray(series, dtype=np.float64).ravel()
        if s.size < 1:
            raise ValueError("series is empty")
        level = s[0]
        fitted = np.empty_like(s)
        for i, x in enumerate(s):
            fitted[i] = level
            level = self.alpha * x + (1 - self.alpha) * level
        self.level_ = float(level)
        self.fitted_ = fitted
        self._fitted = True
        return self

    def forecast(self, steps: int = 1) -> np.ndarray:
        self._check_fitted()
        if steps < 1:
            raise ValueError("steps must be >= 1")
        return np.full(steps, self.level_)


class HoltLinear(_FittedMixin):
    """Holt's double exponential smoothing: level + linear trend."""

    def __init__(self, alpha: float = 0.3, beta: float = 0.1):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        self.alpha = alpha
        self.beta = beta
        self.level_: float = 0.0
        self.trend_: float = 0.0
        self._fitted = False

    def fit(self, series) -> "HoltLinear":
        s = np.asarray(series, dtype=np.float64).ravel()
        if s.size < 2:
            raise ValueError("need at least 2 samples for a trend")
        level, trend = s[0], s[1] - s[0]
        for x in s[1:]:
            prev_level = level
            level = self.alpha * x + (1 - self.alpha) * (level + trend)
            trend = self.beta * (level - prev_level) + (1 - self.beta) * trend
        self.level_ = float(level)
        self.trend_ = float(trend)
        self._fitted = True
        return self

    def forecast(self, steps: int = 1) -> np.ndarray:
        self._check_fitted()
        if steps < 1:
            raise ValueError("steps must be >= 1")
        return self.level_ + self.trend_ * np.arange(1, steps + 1)


class HoltWinters(_FittedMixin):
    """Additive Holt-Winters: level + trend + seasonal component."""

    def __init__(
        self,
        season_length: int,
        alpha: float = 0.3,
        beta: float = 0.05,
        gamma: float = 0.1,
    ):
        if season_length < 2:
            raise ValueError("season_length must be >= 2")
        for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        self.season_length = int(season_length)
        self.alpha, self.beta, self.gamma = alpha, beta, gamma
        self.level_: float = 0.0
        self.trend_: float = 0.0
        self.seasonal_: Optional[np.ndarray] = None
        self._fitted = False

    def fit(self, series) -> "HoltWinters":
        s = np.asarray(series, dtype=np.float64).ravel()
        m = self.season_length
        if s.size < 2 * m:
            raise ValueError(f"need >= {2 * m} samples for season_length={m}")
        level = s[:m].mean()
        trend = (s[m : 2 * m].mean() - s[:m].mean()) / m
        seasonal = s[:m] - level
        for i in range(m, s.size):
            j = i % m
            prev_level = level
            level = self.alpha * (s[i] - seasonal[j]) + (1 - self.alpha) * (
                level + trend
            )
            trend = self.beta * (level - prev_level) + (1 - self.beta) * trend
            seasonal[j] = self.gamma * (s[i] - level) + (1 - self.gamma) * seasonal[j]
        self.level_ = float(level)
        self.trend_ = float(trend)
        self.seasonal_ = seasonal
        self._n_seen = s.size
        self._fitted = True
        return self

    def forecast(self, steps: int = 1) -> np.ndarray:
        self._check_fitted()
        if steps < 1:
            raise ValueError("steps must be >= 1")
        m = self.season_length
        out = np.empty(steps)
        for k in range(1, steps + 1):
            out[k - 1] = (
                self.level_
                + self.trend_ * k
                + self.seasonal_[(self._n_seen + k - 1) % m]
            )
        return out


class TimeSeriesQoSPredictor:
    """Adapter: use a smoothing forecaster where a QoSPredictor fits.

    Mirrors :class:`repro.hecate.predictor.QoSPredictor`'s surface
    (``fit(series)``, ``predict_next(history)``, ``forecast(history,
    steps)``) but re-fits the state-space model on the supplied history at
    query time (these models are O(n) to fit, so that's cheap).
    """

    def __init__(self, forecaster_factory=HoltLinear):
        self.forecaster_factory = forecaster_factory

    def fit(self, series) -> "TimeSeriesQoSPredictor":
        """No-op, kept for the ``QoSPredictor`` surface: :meth:`forecast`
        re-fits on the history it is handed."""
        return self

    def predict_next(self, history) -> float:
        return float(self.forecast(history, steps=1)[0])

    def forecast(self, history, steps: int = 10) -> np.ndarray:
        model = self.forecaster_factory()
        model.fit(np.asarray(history, dtype=np.float64).ravel())
        return model.forecast(steps)
