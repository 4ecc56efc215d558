"""Gaussian process regression with a small composable kernel algebra.

GPR is entrant R7 of the paper's tournament — and its designated loser:
with default hyperparameters on standardized 10-lag inputs the RBF kernel
sees pairwise distances far beyond its unit length-scale, the Gram matrix
degenerates towards the identity, and the posterior mean reverts to the
prior (zero) on test points.  Inverse-transforming a near-zero prediction
lands at the feature mean, producing the off-scale RMSE the paper reports
(WiFi 34.75, LTE 52.43, excluded from the Fig. 6 scatter).  We reproduce
that failure mode faithfully rather than fixing it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy import optimize
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .base import (
    BaseEstimator,
    check_is_fitted,
    check_X_y,
    check_array,
)

__all__ = [
    "Kernel",
    "RBF",
    "ConstantKernel",
    "Sum",
    "Product",
    "GaussianProcessRegressor",
]


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at zero."""
    aa = (A**2).sum(axis=1)[:, None]
    bb = (B**2).sum(axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0)


class Kernel:
    """Base kernel; subclasses implement ``__call__`` and theta handling.

    ``theta`` is the log-transformed vector of tunable parameters, matching
    sklearn so the marginal-likelihood optimizer works in log-space.
    """

    def __call__(self, A, B=None) -> np.ndarray:
        raise NotImplementedError

    def diag(self, A) -> np.ndarray:
        return np.diag(self(A))

    @property
    def theta(self) -> np.ndarray:
        raise NotImplementedError

    @theta.setter
    def theta(self, value) -> None:
        raise NotImplementedError

    @property
    def bounds(self) -> np.ndarray:
        raise NotImplementedError

    def __add__(self, other):
        return Sum(self, _as_kernel(other))

    def __radd__(self, other):
        return Sum(_as_kernel(other), self)

    def __mul__(self, other):
        return Product(self, _as_kernel(other))

    def __rmul__(self, other):
        return Product(_as_kernel(other), self)


def _as_kernel(value) -> "Kernel":
    if isinstance(value, Kernel):
        return value
    return ConstantKernel(float(value))


class RBF(Kernel):
    """Squared-exponential kernel ``exp(-d^2 / (2 l^2))``."""

    def __init__(self, length_scale: float = 1.0, length_scale_bounds=(1e-5, 1e5)):
        if length_scale <= 0:
            raise ValueError("length_scale must be positive")
        self.length_scale = float(length_scale)
        self.length_scale_bounds = length_scale_bounds

    def __call__(self, A, B=None) -> np.ndarray:
        A = np.atleast_2d(A)
        B = A if B is None else np.atleast_2d(B)
        return np.exp(-_sq_dists(A, B) / (2.0 * self.length_scale**2))

    def diag(self, A) -> np.ndarray:
        return np.ones(np.atleast_2d(A).shape[0])

    @property
    def theta(self) -> np.ndarray:
        return np.array([math.log(self.length_scale)])

    @theta.setter
    def theta(self, value) -> None:
        self.length_scale = float(np.exp(value[0]))

    @property
    def bounds(self) -> np.ndarray:
        lo, hi = self.length_scale_bounds
        return np.array([[math.log(lo), math.log(hi)]])


class ConstantKernel(Kernel):
    """``k(x, x') = constant_value`` (scales other kernels in products)."""

    def __init__(self, constant_value: float = 1.0, constant_value_bounds=(1e-5, 1e5)):
        if constant_value <= 0:
            raise ValueError("constant_value must be positive")
        self.constant_value = float(constant_value)
        self.constant_value_bounds = constant_value_bounds

    def __call__(self, A, B=None) -> np.ndarray:
        A = np.atleast_2d(A)
        B = A if B is None else np.atleast_2d(B)
        return np.full((A.shape[0], B.shape[0]), self.constant_value)

    def diag(self, A) -> np.ndarray:
        return np.full(np.atleast_2d(A).shape[0], self.constant_value)

    @property
    def theta(self) -> np.ndarray:
        return np.array([math.log(self.constant_value)])

    @theta.setter
    def theta(self, value) -> None:
        self.constant_value = float(np.exp(value[0]))

    @property
    def bounds(self) -> np.ndarray:
        lo, hi = self.constant_value_bounds
        return np.array([[math.log(lo), math.log(hi)]])


class _Binary(Kernel):
    def __init__(self, k1: Kernel, k2: Kernel):
        self.k1 = k1
        self.k2 = k2

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.k1.theta, self.k2.theta])

    @theta.setter
    def theta(self, value) -> None:
        n1 = self.k1.theta.shape[0]
        self.k1.theta = value[:n1]
        self.k2.theta = value[n1:]

    @property
    def bounds(self) -> np.ndarray:
        return np.vstack([self.k1.bounds, self.k2.bounds])


class Sum(_Binary):
    def __call__(self, A, B=None) -> np.ndarray:
        return self.k1(A, B) + self.k2(A, B)

    def diag(self, A) -> np.ndarray:
        return self.k1.diag(A) + self.k2.diag(A)


class Product(_Binary):
    def __call__(self, A, B=None) -> np.ndarray:
        return self.k1(A, B) * self.k2(A, B)

    def diag(self, A) -> np.ndarray:
        return self.k1.diag(A) * self.k2.diag(A)


class GaussianProcessRegressor(BaseEstimator):
    """Exact GP regression via Cholesky factorization.

    Defaults reproduce the paper's "default hyperparameters" setting:
    kernel ``1.0 * RBF(1.0)`` with *no* marginal-likelihood optimization
    and jitter ``alpha=1e-10``.  Pass ``optimizer="fmin_l_bfgs_b"`` to
    enable type-II ML hyperparameter tuning (implemented, but off by
    default to match the paper's protocol).
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        alpha: float = 1e-10,
        optimizer: Optional[str] = None,
        n_restarts_optimizer: int = 0,
        normalize_y: bool = False,
        random_state=None,
    ):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.kernel = kernel
        self.alpha = alpha
        self.optimizer = optimizer
        self.n_restarts_optimizer = n_restarts_optimizer
        self.normalize_y = normalize_y
        self.random_state = random_state
        self.kernel_: Optional[Kernel] = None
        self.X_train_: Optional[np.ndarray] = None
        self.alpha_: Optional[np.ndarray] = None
        self._L: Optional[np.ndarray] = None
        self._y_mean: float = 0.0
        self._y_std: float = 1.0

    def _make_kernel(self) -> Kernel:
        if self.kernel is not None:
            import copy

            return copy.deepcopy(self.kernel)
        return ConstantKernel(1.0) * RBF(1.0)

    def log_marginal_likelihood(self, theta=None) -> float:
        check_is_fitted(self, "X_train_")
        kernel = self.kernel_
        if theta is not None:
            import copy

            kernel = copy.deepcopy(self.kernel_)
            kernel.theta = np.asarray(theta)
        K = kernel(self.X_train_)
        K[np.diag_indices_from(K)] += self.alpha
        try:
            L = cholesky(K, lower=True)
        except np.linalg.LinAlgError:
            return -np.inf
        y = self._y_train
        alpha_vec = cho_solve((L, True), y)
        return float(
            -0.5 * y @ alpha_vec
            - np.log(np.diag(L)).sum()
            - 0.5 * y.shape[0] * math.log(2.0 * math.pi)
        )

    def fit(self, X, y) -> "GaussianProcessRegressor":
        X, y = check_X_y(X, y)
        self.kernel_ = self._make_kernel()
        if self.normalize_y:
            self._y_mean = float(y.mean())
            self._y_std = float(y.std()) or 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        y_n = (y - self._y_mean) / self._y_std
        self.X_train_ = X
        self._y_train = y_n

        if self.optimizer is not None and self.kernel_.theta.size:
            bounds = self.kernel_.bounds

            def neg_lml(theta):
                return -self.log_marginal_likelihood(theta)

            best_theta = self.kernel_.theta
            best_val = neg_lml(best_theta)
            starts = [self.kernel_.theta]
            rng = np.random.default_rng(self.random_state)
            for _ in range(self.n_restarts_optimizer):
                starts.append(rng.uniform(bounds[:, 0], bounds[:, 1]))
            for theta0 in starts:
                res = optimize.minimize(
                    neg_lml, theta0, method="L-BFGS-B", bounds=bounds
                )
                if res.fun < best_val:
                    best_val = res.fun
                    best_theta = res.x
            self.kernel_.theta = best_theta

        K = self.kernel_(X)
        K[np.diag_indices_from(K)] += self.alpha
        self._L = cholesky(K, lower=True)
        self.alpha_ = cho_solve((self._L, True), y_n)
        return self

    def predict(self, X, return_std: bool = False):
        check_is_fitted(self, "X_train_")
        X = check_array(X)
        K_star = self.kernel_(X, self.X_train_)
        mean = K_star @ self.alpha_
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = solve_triangular(self._L, K_star.T, lower=True)
        var = self.kernel_.diag(X) - (v**2).sum(axis=0)
        var = np.maximum(var, 0.0) * self._y_std**2
        return mean, np.sqrt(var)
