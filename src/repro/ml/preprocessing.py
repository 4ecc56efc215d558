"""Feature scaling.

The paper's pipeline (Sec. V.B) fits a ``StandardScaler`` on the training
split of the UQ traces, transforms the test split with the *training*
statistics, and inverse-transforms predictions back to Mbps before
computing RMSE.  We reproduce that utility exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import BaseEstimator, NotFittedError, check_array

__all__ = ["StandardScaler"]


class StandardScaler(BaseEstimator):
    """Standardize features to zero mean and unit variance.

    Mirrors sklearn semantics: statistics come from ``fit`` data only;
    zero-variance features are left unscaled (divisor 1) rather than
    producing NaN.
    """

    def __init__(self, with_mean: bool = True, with_std: bool = True):
        self.with_mean = with_mean
        self.with_std = with_std
        self.mean_: Optional[np.ndarray] = None
        self.scale_: Optional[np.ndarray] = None
        self.n_features_in_: Optional[int] = None

    def fit(self, X) -> "StandardScaler":
        X = check_array(X)
        self.n_features_in_ = X.shape[1]
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            std = X.std(axis=0)
            std[std == 0.0] = 1.0
            self.scale_ = std
        else:
            self.scale_ = np.ones(X.shape[1])
        return self

    def _check(self, X) -> np.ndarray:
        if self.mean_ is None:
            raise NotFittedError("StandardScaler is not fitted")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"expected {self.n_features_in_} features, got {X.shape[1]}"
            )
        return X

    def transform(self, X) -> np.ndarray:
        X = self._check(X)
        return (X - self.mean_) / self.scale_

    def inverse_transform(self, X) -> np.ndarray:
        X = self._check(X)
        return X * self.scale_ + self.mean_

