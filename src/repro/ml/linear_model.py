"""Linear regression family: OLS, Ridge, Lasso, ElasticNet, SGD, Huber,
ARD, RANSAC and Theil-Sen.

These are nine of the paper's eighteen tournament entrants (R2, R5, R9,
R10, R11, R12, R14, R15, R18).  Each implements the reference algorithm
with scikit-learn's default hyperparameters so that the tournament's
relative ordering is comparable to the paper's Fig. 6.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional

import numpy as np
from scipy import optimize

from .base import (
    BaseEstimator,
    check_is_fitted,
    check_X_y,
    check_array,
    clone,
    resolve_rng,
)

__all__ = [
    "LinearRegression",
    "Ridge",
    "Lasso",
    "ElasticNet",
    "SGDRegressor",
    "HuberRegressor",
    "ARDRegression",
    "RANSACRegressor",
    "TheilSenRegressor",
]


class _LinearPredictorMixin:
    """Shared ``predict`` for models exposing ``coef_`` and ``intercept_``."""

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "coef_")
        X = check_array(X)
        if X.shape[1] != self.coef_.shape[0]:
            raise ValueError(
                f"expected {self.coef_.shape[0]} features, got {X.shape[1]}"
            )
        return X @ self.coef_ + self.intercept_


class LinearRegression(BaseEstimator, _LinearPredictorMixin):
    """Ordinary least squares via numpy's (SVD-based) ``lstsq``."""

    def __init__(self, fit_intercept: bool = True):
        self.fit_intercept = fit_intercept
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "LinearRegression":
        X, y = check_X_y(X, y)
        if self.fit_intercept:
            design = np.hstack([X, np.ones((X.shape[0], 1))])
            beta, *_ = np.linalg.lstsq(design, y, rcond=None)
            self.coef_ = beta[:-1]
            self.intercept_ = float(beta[-1])
        else:
            beta, *_ = np.linalg.lstsq(X, y, rcond=None)
            self.coef_ = beta
            self.intercept_ = 0.0
        return self


class Ridge(BaseEstimator, _LinearPredictorMixin):
    """L2-penalized least squares; the intercept is not penalized
    (data is centred before solving, as in sklearn)."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.fit_intercept = fit_intercept
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "Ridge":
        X, y = check_X_y(X, y)
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = y.mean()
            Xc = X - x_mean
            yc = y - y_mean
        else:
            x_mean = np.zeros(X.shape[1])
            y_mean = 0.0
            Xc, yc = X, y
        gram = Xc.T @ Xc + self.alpha * np.eye(X.shape[1])
        self.coef_ = np.linalg.solve(gram, Xc.T @ yc)
        self.intercept_ = float(y_mean - x_mean @ self.coef_)
        return self


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


class ElasticNet(BaseEstimator, _LinearPredictorMixin):
    """Coordinate descent for the elastic-net objective.

    Minimizes ``1/(2n)||y - Xw - b||^2 + alpha*l1_ratio*||w||_1
    + alpha*(1 - l1_ratio)/2*||w||_2^2`` — sklearn's exact objective and
    defaults (``alpha=1.0, l1_ratio=0.5``), which is why ElasticNet and
    Lasso land mid-field-to-poor in the paper's Fig. 6: with ``alpha=1.0``
    on standardized bandwidth data they shrink aggressively.
    """

    def __init__(
        self,
        alpha: float = 1.0,
        l1_ratio: float = 0.5,
        max_iter: int = 1000,
        tol: float = 1e-4,
        fit_intercept: bool = True,
    ):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 <= l1_ratio <= 1.0:
            raise ValueError("l1_ratio must be in [0, 1]")
        self.alpha = alpha
        self.l1_ratio = l1_ratio
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    def fit(self, X, y) -> "ElasticNet":
        X, y = check_X_y(X, y)
        n, p = X.shape
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = y.mean()
            Xc = X - x_mean
            yc = y - y_mean
        else:
            x_mean = np.zeros(p)
            y_mean = 0.0
            Xc, yc = X.copy(), y.copy()

        l1 = self.alpha * self.l1_ratio
        l2 = self.alpha * (1.0 - self.l1_ratio)
        col_sq = (Xc**2).sum(axis=0) / n  # ||x_j||^2 / n

        w = np.zeros(p)
        residual = yc.copy()  # residual = yc - Xc @ w, maintained incrementally
        for iteration in range(1, self.max_iter + 1):
            max_delta = 0.0
            max_w = 0.0
            for j in range(p):
                if col_sq[j] == 0.0:
                    continue
                w_old = w[j]
                rho = (Xc[:, j] @ residual) / n + col_sq[j] * w_old
                w_new = _soft_threshold(rho, l1) / (col_sq[j] + l2)
                if w_new != w_old:
                    residual += Xc[:, j] * (w_old - w_new)
                    w[j] = w_new
                max_delta = max(max_delta, abs(w[j] - w_old))
                max_w = max(max_w, abs(w[j]))
            self.n_iter_ = iteration
            if max_delta <= self.tol * max(max_w, 1e-12):
                break
        self.coef_ = w
        self.intercept_ = float(y_mean - x_mean @ w)
        return self


class Lasso(ElasticNet):
    """L1-penalized least squares — elastic net with ``l1_ratio=1``."""

    def __init__(
        self,
        alpha: float = 1.0,
        max_iter: int = 1000,
        tol: float = 1e-4,
        fit_intercept: bool = True,
    ):
        super().__init__(
            alpha=alpha,
            l1_ratio=1.0,
            max_iter=max_iter,
            tol=tol,
            fit_intercept=fit_intercept,
        )


class SGDRegressor(BaseEstimator, _LinearPredictorMixin):
    """Stochastic gradient descent on squared loss with L2 penalty.

    Follows sklearn's defaults: ``alpha=1e-4``, inverse-scaling learning
    rate ``eta = eta0 / t**power_t`` with ``eta0=0.01, power_t=0.25``,
    per-epoch shuffling, and early stopping after ``n_iter_no_change``
    epochs without ``tol`` improvement in training loss.
    """

    def __init__(
        self,
        alpha: float = 1e-4,
        max_iter: int = 1000,
        tol: float = 1e-3,
        eta0: float = 0.01,
        power_t: float = 0.25,
        n_iter_no_change: int = 5,
        shuffle: bool = True,
        random_state=None,
        fit_intercept: bool = True,
    ):
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol
        self.eta0 = eta0
        self.power_t = power_t
        self.n_iter_no_change = n_iter_no_change
        self.shuffle = shuffle
        self.random_state = random_state
        self.fit_intercept = fit_intercept
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    def fit(self, X, y) -> "SGDRegressor":
        X, y = check_X_y(X, y)
        n, p = X.shape
        rng = resolve_rng(self.random_state)
        w = np.zeros(p)
        b = 0.0
        t = 1
        best_loss = np.inf
        stale = 0
        order = np.arange(n)
        for epoch in range(1, self.max_iter + 1):
            if self.shuffle:
                rng.shuffle(order)
            for i in order:
                eta = self.eta0 / t**self.power_t
                pred = X[i] @ w + b
                grad = pred - y[i]
                w -= eta * (grad * X[i] + self.alpha * w)
                if self.fit_intercept:
                    b -= eta * grad
                t += 1
            self.n_iter_ = epoch
            loss = float(np.mean((X @ w + b - y) ** 2)) / 2.0
            if loss > best_loss - self.tol:
                stale += 1
                if stale >= self.n_iter_no_change:
                    break
            else:
                stale = 0
            best_loss = min(best_loss, loss)
        self.coef_ = w
        self.intercept_ = float(b)
        return self


class HuberRegressor(BaseEstimator, _LinearPredictorMixin):
    """Huber loss regression, jointly optimizing coefficients and scale.

    Implements Owen's (2007) convex formulation used by sklearn::

        min_{w, b, sigma > 0}  sum_i [ sigma + H_eps(r_i / sigma) * sigma ]
                               + alpha * ||w||^2

    solved with L-BFGS-B on ``(w, b, log sigma)`` with an analytic
    gradient.  Defaults match sklearn (``epsilon=1.35, alpha=1e-4``).
    """

    def __init__(
        self,
        epsilon: float = 1.35,
        alpha: float = 1e-4,
        max_iter: int = 100,
        tol: float = 1e-5,
        fit_intercept: bool = True,
    ):
        if epsilon < 1.0:
            raise ValueError("epsilon must be >= 1.0")
        self.epsilon = epsilon
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.scale_: float = 1.0

    def fit(self, X, y) -> "HuberRegressor":
        X, y = check_X_y(X, y)
        n, p = X.shape
        eps = self.epsilon

        def objective(theta):
            w = theta[:p]
            b = theta[p] if self.fit_intercept else 0.0
            sigma = math.exp(theta[-1])
            r = y - X @ w - b
            z = r / sigma
            inliers = np.abs(z) <= eps
            h = np.where(inliers, z**2, 2.0 * eps * np.abs(z) - eps**2)
            f = n * sigma + sigma * h.sum() + self.alpha * (w @ w)
            # gradients
            dh_dz = np.where(inliers, 2.0 * z, 2.0 * eps * np.sign(z))
            grad_w = -(X.T @ dh_dz) + 2.0 * self.alpha * w
            grad_b = -dh_dz.sum()
            # d/dsigma of sigma*h(r/sigma) = h - z*dh_dz; plus the n*sigma term
            dsigma = n + (h - z * dh_dz).sum()
            grad = np.empty_like(theta)
            grad[:p] = grad_w
            if self.fit_intercept:
                grad[p] = grad_b
            grad[-1] = dsigma * sigma  # chain rule through log-sigma
            return f, grad

        size = p + (1 if self.fit_intercept else 0) + 1
        theta0 = np.zeros(size)
        theta0[-1] = math.log(max(np.std(y), 1e-3))
        result = optimize.minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        theta = result.x
        self.coef_ = theta[:p]
        self.intercept_ = float(theta[p]) if self.fit_intercept else 0.0
        self.scale_ = float(math.exp(theta[-1]))
        return self


class ARDRegression(BaseEstimator, _LinearPredictorMixin):
    """Automatic Relevance Determination (sparse Bayesian) regression.

    Evidence maximization with one precision per weight (Tipping 2001 /
    sklearn's ARDRegression): weights whose precision exceeds
    ``threshold_lambda`` are pruned.  Defaults mirror sklearn.
    """

    def __init__(
        self,
        max_iter: int = 300,
        tol: float = 1e-3,
        alpha_1: float = 1e-6,
        alpha_2: float = 1e-6,
        lambda_1: float = 1e-6,
        lambda_2: float = 1e-6,
        threshold_lambda: float = 1e4,
        fit_intercept: bool = True,
    ):
        self.max_iter = max_iter
        self.tol = tol
        self.alpha_1 = alpha_1
        self.alpha_2 = alpha_2
        self.lambda_1 = lambda_1
        self.lambda_2 = lambda_2
        self.threshold_lambda = threshold_lambda
        self.fit_intercept = fit_intercept
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.lambda_: Optional[np.ndarray] = None
        self.alpha_: float = 0.0

    def fit(self, X, y) -> "ARDRegression":
        X, y = check_X_y(X, y)
        n, p = X.shape
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = y.mean()
            Xc = X - x_mean
            yc = y - y_mean
        else:
            x_mean = np.zeros(p)
            y_mean = 0.0
            Xc, yc = X, y

        keep = np.ones(p, dtype=bool)
        lam = np.ones(p)
        var_y = np.var(yc)
        alpha = 1.0 / (var_y + 1e-10)
        coef = np.zeros(p)
        prev = coef.copy()
        for _ in range(self.max_iter):
            Xk = Xc[:, keep]
            lam_k = lam[keep]
            if Xk.shape[1] == 0:
                break
            sigma_inv = alpha * (Xk.T @ Xk) + np.diag(lam_k)
            sigma = np.linalg.inv(sigma_inv)
            mu = alpha * sigma @ (Xk.T @ yc)
            gamma = 1.0 - lam_k * np.diag(sigma)
            resid = yc - Xk @ mu
            lam_new = (gamma + 2.0 * self.lambda_1) / (mu**2 + 2.0 * self.lambda_2)
            alpha = (n - gamma.sum() + 2.0 * self.alpha_1) / (
                resid @ resid + 2.0 * self.alpha_2
            )
            lam[keep] = lam_new
            coef = np.zeros(p)
            coef[keep] = mu
            keep_new = lam < self.threshold_lambda
            if not keep_new.any():
                # keep at least the single most relevant weight
                keep_new[np.argmin(lam)] = True
            keep = keep_new
            if np.max(np.abs(coef - prev)) < self.tol:
                break
            prev = coef.copy()
        self.coef_ = coef
        self.lambda_ = lam
        self.alpha_ = float(alpha)
        self.intercept_ = float(y_mean - x_mean @ coef)
        return self


class RANSACRegressor(BaseEstimator):
    """RANdom SAmple Consensus around a base linear estimator.

    sklearn defaults: minimal samples ``n_features + 1``, residual
    threshold = MAD of ``y``, up to ``max_trials=100`` random minimal
    fits; the consensus (inlier) set of the best trial is refit.
    """

    def __init__(
        self,
        estimator=None,
        min_samples: Optional[int] = None,
        residual_threshold: Optional[float] = None,
        max_trials: int = 100,
        random_state=None,
    ):
        self.estimator = estimator
        self.min_samples = min_samples
        self.residual_threshold = residual_threshold
        self.max_trials = max_trials
        self.random_state = random_state
        self.estimator_: Optional[BaseEstimator] = None
        self.inlier_mask_: Optional[np.ndarray] = None
        self.n_trials_: int = 0

    def fit(self, X, y) -> "RANSACRegressor":
        X, y = check_X_y(X, y)
        n, p = X.shape
        rng = resolve_rng(self.random_state)
        base = self.estimator if self.estimator is not None else LinearRegression()
        min_samples = self.min_samples or (p + 1)
        if min_samples > n:
            raise ValueError(
                f"min_samples={min_samples} exceeds sample count {n}"
            )
        if self.residual_threshold is None:
            threshold = float(np.median(np.abs(y - np.median(y))))
            if threshold == 0.0:
                threshold = 1e-9
        else:
            threshold = self.residual_threshold

        best_count = -1
        best_mask: Optional[np.ndarray] = None
        for trial in range(1, self.max_trials + 1):
            idx = rng.choice(n, size=min_samples, replace=False)
            model = clone(base)
            try:
                model.fit(X[idx], y[idx])
            except np.linalg.LinAlgError:
                continue
            residuals = np.abs(y - model.predict(X))
            mask = residuals < threshold
            count = int(mask.sum())
            if count > best_count:
                best_count = count
                best_mask = mask
            self.n_trials_ = trial
            if best_count == n:
                break
        if best_mask is None or best_count < min_samples:
            # degenerate data: fall back to fitting everything
            best_mask = np.ones(n, dtype=bool)
        self.inlier_mask_ = best_mask
        self.estimator_ = clone(base).fit(X[best_mask], y[best_mask])
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "estimator_")
        return self.estimator_.predict(X)


def _spatial_median(points: np.ndarray, max_iter: int = 300, tol: float = 1e-9) -> np.ndarray:
    """Geometric median via Weiszfeld's algorithm (Theil-Sen aggregation)."""
    median = points.mean(axis=0)
    for _ in range(max_iter):
        diff = points - median
        dist = np.linalg.norm(diff, axis=1)
        near = dist < 1e-12
        if near.any():
            return points[near][0]
        weights = 1.0 / dist
        new = (points * weights[:, None]).sum(axis=0) / weights.sum()
        if np.linalg.norm(new - median) < tol:
            return new
        median = new
    return median


class TheilSenRegressor(BaseEstimator, _LinearPredictorMixin):
    """Theil-Sen estimator: spatial median of least-squares fits on random
    minimal subsets (``n_features + 1`` samples each).

    Robust to ~29% outliers in multiple dimensions; defaults follow
    sklearn (``max_subpopulation=1e4``).
    """

    def __init__(
        self,
        max_subpopulation: int = 10_000,
        n_subsamples: Optional[int] = None,
        random_state=None,
        fit_intercept: bool = True,
    ):
        self.max_subpopulation = int(max_subpopulation)
        self.n_subsamples = n_subsamples
        self.random_state = random_state
        self.fit_intercept = fit_intercept
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "TheilSenRegressor":
        X, y = check_X_y(X, y)
        n, p = X.shape
        k = self.n_subsamples or (p + 1)
        if k > n:
            raise ValueError(f"n_subsamples={k} exceeds sample count {n}")
        rng = resolve_rng(self.random_state)
        n_exact = math.comb(n, k)
        design_cols = p + (1 if self.fit_intercept else 0)
        solutions = []
        if n_exact <= self.max_subpopulation:
            subsets = combinations(range(n), k)
        else:
            subsets = (
                rng.choice(n, size=k, replace=False)
                for _ in range(self.max_subpopulation)
            )
        for idx in subsets:
            idx = np.fromiter(idx, dtype=np.intp, count=k)
            Xi = X[idx]
            if self.fit_intercept:
                Xi = np.hstack([Xi, np.ones((k, 1))])
            beta, *_ = np.linalg.lstsq(Xi, y[idx], rcond=None)
            if np.all(np.isfinite(beta)):
                solutions.append(beta)
        if not solutions:
            raise ValueError("all Theil-Sen subsets were singular")
        beta = _spatial_median(np.asarray(solutions))
        if self.fit_intercept:
            self.coef_ = beta[:-1]
            self.intercept_ = float(beta[-1])
        else:
            self.coef_ = beta
            self.intercept_ = 0.0
        return self
