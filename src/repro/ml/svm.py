"""Epsilon-insensitive Support Vector Regression (linear and RBF kernels).

Entrants R16 and R17 of the paper's tournament.  Rather than a full SMO
working-set solver we optimize the *kernelized primal* (Chapelle 2007):
with the representer theorem ``f(x) = sum_i beta_i k(x_i, x) + b`` the
epsilon-SVR objective

    min_{beta, b}  0.5 * beta^T K beta  +  C * sum_i L_eps(y_i - f(x_i))

is convex in ``(beta, b)``; we smooth the epsilon-insensitive hinge with a
small Huber rounding (smoothing width ``1e-3 * epsilon``-ish) and solve
with L-BFGS-B.  For the data scales in this repository the fitted function
matches libsvm closely while staying deterministic and dependency-free.
Defaults follow sklearn: ``C=1.0, epsilon=0.1, gamma="scale"``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import optimize

from .base import (
    BaseEstimator,
    check_is_fitted,
    check_X_y,
    check_array,
)

__all__ = ["SVR", "LinearSVR"]


def _smoothed_eps_loss(r: np.ndarray, eps: float, mu: float):
    """Smoothed epsilon-insensitive loss and its derivative wrt r.

    ``L(r) = 0`` for ``|r| <= eps``; quadratic for ``eps < |r| <= eps+mu``;
    linear beyond.  ``mu -> 0`` recovers the exact hinge.
    """
    a = np.abs(r) - eps
    out = np.where(
        a <= 0.0,
        0.0,
        np.where(a <= mu, a**2 / (2.0 * mu), a - mu / 2.0),
    )
    grad_mag = np.where(a <= 0.0, 0.0, np.where(a <= mu, a / mu, 1.0))
    return out, grad_mag * np.sign(r)


class SVR(BaseEstimator):
    """Kernel epsilon-SVR.

    Parameters
    ----------
    kernel:
        ``"rbf"`` or ``"linear"``.
    C, epsilon:
        Usual SVR trade-off and tube width (sklearn defaults 1.0 / 0.1).
    gamma:
        RBF width; ``"scale"`` = ``1 / (n_features * X.var())`` like sklearn.
    """

    def __init__(
        self,
        kernel: str = "rbf",
        C: float = 1.0,
        epsilon: float = 0.1,
        gamma="scale",
        max_iter: int = 500,
        tol: float = 1e-6,
    ):
        if kernel not in ("rbf", "linear"):
            raise ValueError(f"unsupported kernel {kernel!r}")
        if C <= 0:
            raise ValueError("C must be positive")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.kernel = kernel
        self.C = C
        self.epsilon = epsilon
        self.gamma = gamma
        self.max_iter = max_iter
        self.tol = tol
        self.X_train_: Optional[np.ndarray] = None
        self.beta_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.gamma_: float = 1.0

    def _kernel_matrix(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if self.kernel == "linear":
            return A @ B.T
        aa = (A**2).sum(axis=1)[:, None]
        bb = (B**2).sum(axis=1)[None, :]
        d2 = np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0)
        return np.exp(-self.gamma_ * d2)

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            var = X.var()
            return 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        if self.gamma == "auto":
            return 1.0 / X.shape[1]
        g = float(self.gamma)
        if g <= 0:
            raise ValueError("gamma must be positive")
        return g

    def fit(self, X, y) -> "SVR":
        X, y = check_X_y(X, y)
        n = X.shape[0]
        self.gamma_ = self._resolve_gamma(X)
        K = self._kernel_matrix(X, X)
        # tiny ridge keeps the quadratic term positive definite
        K_reg = K + 1e-10 * np.eye(n)
        eps = self.epsilon
        mu = max(eps, 0.1) * 1e-2

        def objective(theta):
            beta = theta[:n]
            b = theta[n]
            f = K @ beta + b
            r = y - f
            loss, dloss_dr = _smoothed_eps_loss(r, eps, mu)
            reg = 0.5 * beta @ (K_reg @ beta)
            obj = reg + self.C * loss.sum()
            # dr/dbeta = -K, dr/db = -1
            grad_beta = K_reg @ beta - self.C * (K @ dloss_dr)
            grad_b = -self.C * dloss_dr.sum()
            return obj, np.concatenate([grad_beta, [grad_b]])

        theta0 = np.zeros(n + 1)
        theta0[n] = float(np.median(y))
        res = optimize.minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        self.X_train_ = X
        self.beta_ = res.x[:n]
        self.intercept_ = float(res.x[n])
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "beta_")
        X = check_array(X)
        if X.shape[1] != self.X_train_.shape[1]:
            raise ValueError(
                f"expected {self.X_train_.shape[1]} features, got {X.shape[1]}"
            )
        return self._kernel_matrix(X, self.X_train_) @ self.beta_ + self.intercept_

    @property
    def support_(self) -> np.ndarray:
        """Indices with non-negligible dual-like coefficients."""
        check_is_fitted(self, "beta_")
        scale = np.abs(self.beta_).max() or 1.0
        return np.flatnonzero(np.abs(self.beta_) > 1e-6 * scale)


class LinearSVR(SVR):
    """Convenience alias for ``SVR(kernel="linear")`` (entrant R16)."""

    def __init__(
        self,
        C: float = 1.0,
        epsilon: float = 0.1,
        max_iter: int = 500,
        tol: float = 1e-6,
    ):
        super().__init__(
            kernel="linear", C=C, epsilon=epsilon, gamma="scale",
            max_iter=max_iter, tol=tol,
        )
