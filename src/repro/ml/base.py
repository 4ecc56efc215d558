"""Estimator base class and validation helpers.

scikit-learn is unavailable offline, so :mod:`repro.ml` reimplements the
eighteen regressors the paper evaluates (Sec. V.A.2) behind sklearn's
``fit`` / ``predict`` / ``get_params`` surface.  Keeping those names
means Hecate's predictor pipeline and the tournament harness read like
the paper's sklearn-based code; :func:`clone` is how Hecate gets a fresh
copy of the model it was handed.
"""

from __future__ import annotations

import copy
import inspect
from typing import Any, Dict, Tuple

import numpy as np

__all__ = [
    "BaseEstimator",
    "clone",
    "check_array",
    "check_X_y",
    "check_is_fitted",
    "NotFittedError",
]


class NotFittedError(RuntimeError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""


def check_array(X, *, ensure_2d: bool = True, name: str = "X") -> np.ndarray:
    """Coerce to a float64 ndarray and validate shape/finiteness."""
    arr = np.asarray(X, dtype=np.float64)
    if ensure_2d:
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError(f"{name} has 0 samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinity")
    return arr


def check_X_y(X, y) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a regression design matrix and 1-D target together."""
    X = check_array(X)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        y = y.ravel()
    if y.shape[0] != X.shape[0]:
        raise ValueError(
            f"X has {X.shape[0]} samples but y has {y.shape[0]}"
        )
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains NaN or infinity")
    return X, y


def check_is_fitted(estimator, attribute: str) -> None:
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first"
        )


class BaseEstimator:
    """Parameter introspection identical in spirit to sklearn's.

    Constructor arguments are hyperparameters; everything learned during
    ``fit`` is stored on attributes with a trailing underscore.  That split
    is what makes :func:`clone` safe.
    """

    @classmethod
    def _param_names(cls) -> Tuple[str, ...]:
        init = cls.__init__
        if init is object.__init__:
            return ()
        sig = inspect.signature(init)
        return tuple(
            p.name
            for p in sig.parameters.values()
            if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        )

    def get_params(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self._param_names()}

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Fresh unfitted copy with the same hyperparameters."""
    params = {k: copy.deepcopy(v) for k, v in estimator.get_params().items()}
    return type(estimator)(**params)


def resolve_rng(random_state) -> np.random.Generator:
    """Accept None, an int seed, or a Generator (sklearn-style)."""
    if isinstance(random_state, np.random.Generator):
        return random_state
    return np.random.default_rng(random_state)
