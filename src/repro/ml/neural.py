"""Feed-forward neural network regression (paper Sec. VII future work).

The paper's next step is "experimenting with more machine learning models
such as neural networks"; this module provides that extension: a from-
scratch multi-layer perceptron with ReLU/tanh activations, Adam updates,
mini-batching and early stopping — sklearn-MLPRegressor-like defaults so
it can slot straight into the Hecate pipeline (registered as extension
entrant ``"X1"`` in :data:`repro.ml.registry.REGRESSOR_SPECS`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import (
    BaseEstimator,
    RegressorMixin,
    check_is_fitted,
    check_X_y,
    check_array,
    resolve_rng,
)

__all__ = ["MLPRegressor"]

_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(np.float64)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
}


class MLPRegressor(BaseEstimator, RegressorMixin):
    """Multi-layer perceptron for regression (squared loss).

    Parameters mirror sklearn's: ``hidden_layer_sizes=(100,)``,
    ``activation="relu"``, Adam with ``learning_rate_init=1e-3``,
    ``alpha=1e-4`` L2 penalty, ``batch_size=min(200, n)``, early stopping
    on training loss after ``n_iter_no_change`` stale epochs.
    """

    def __init__(
        self,
        hidden_layer_sizes: Sequence[int] = (100,),
        activation: str = "relu",
        alpha: float = 1e-4,
        learning_rate_init: float = 1e-3,
        max_iter: int = 200,
        batch_size: Optional[int] = None,
        tol: float = 1e-4,
        n_iter_no_change: int = 10,
        random_state=None,
    ):
        if activation not in _ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {sorted(_ACTIVATIONS)}, got {activation!r}"
            )
        if any(h < 1 for h in hidden_layer_sizes):
            raise ValueError("hidden layer sizes must be positive")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.hidden_layer_sizes = tuple(hidden_layer_sizes)
        self.activation = activation
        self.alpha = alpha
        self.learning_rate_init = learning_rate_init
        self.max_iter = max_iter
        self.batch_size = batch_size
        self.tol = tol
        self.n_iter_no_change = n_iter_no_change
        self.random_state = random_state
        self.coefs_: Optional[List[np.ndarray]] = None
        self.intercepts_: Optional[List[np.ndarray]] = None
        self.loss_curve_: Optional[List[float]] = None
        self.n_iter_: int = 0

    # ----------------------------------------------------------- internals

    def _forward(self, X: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Return (pre-activations z, activations a) per layer."""
        act, _ = _ACTIVATIONS[self.activation]
        zs, activations = [], [X]
        a = X
        n_layers = len(self.coefs_)
        for i, (W, b) in enumerate(zip(self.coefs_, self.intercepts_)):
            z = a @ W + b
            zs.append(z)
            a = z if i == n_layers - 1 else act(z)  # linear output layer
            activations.append(a)
        return zs, activations

    def fit(self, X, y) -> "MLPRegressor":
        X, y = check_X_y(X, y)
        n, p = X.shape
        rng = resolve_rng(self.random_state)
        sizes = [p, *self.hidden_layer_sizes, 1]
        # Glorot initialization
        self.coefs_ = []
        self.intercepts_ = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.coefs_.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.intercepts_.append(np.zeros(fan_out))

        batch = min(self.batch_size or 200, n)
        _, dact = _ACTIVATIONS[self.activation]
        # Adam state
        m_w = [np.zeros_like(W) for W in self.coefs_]
        v_w = [np.zeros_like(W) for W in self.coefs_]
        m_b = [np.zeros_like(b) for b in self.intercepts_]
        v_b = [np.zeros_like(b) for b in self.intercepts_]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        t = 0

        self.loss_curve_ = []
        best_loss = np.inf
        stale = 0
        y_col = y.reshape(-1, 1)
        for epoch in range(1, self.max_iter + 1):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                Xb, yb = X[idx], y_col[idx]
                zs, activations = self._forward(Xb)
                out = activations[-1]
                err = out - yb
                epoch_loss += float((err**2).sum())
                # backprop
                delta = 2.0 * err / Xb.shape[0]
                grads_w = [None] * len(self.coefs_)
                grads_b = [None] * len(self.coefs_)
                for layer in range(len(self.coefs_) - 1, -1, -1):
                    grads_w[layer] = (
                        activations[layer].T @ delta + self.alpha * self.coefs_[layer]
                    )
                    grads_b[layer] = delta.sum(axis=0)
                    if layer > 0:
                        delta = (delta @ self.coefs_[layer].T) * dact(zs[layer - 1])
                # Adam step
                t += 1
                lr = self.learning_rate_init * np.sqrt(1 - beta2**t) / (1 - beta1**t)
                for layer in range(len(self.coefs_)):
                    m_w[layer] = beta1 * m_w[layer] + (1 - beta1) * grads_w[layer]
                    v_w[layer] = beta2 * v_w[layer] + (1 - beta2) * grads_w[layer] ** 2
                    self.coefs_[layer] -= lr * m_w[layer] / (np.sqrt(v_w[layer]) + eps)
                    m_b[layer] = beta1 * m_b[layer] + (1 - beta1) * grads_b[layer]
                    v_b[layer] = beta2 * v_b[layer] + (1 - beta2) * grads_b[layer] ** 2
                    self.intercepts_[layer] -= lr * m_b[layer] / (
                        np.sqrt(v_b[layer]) + eps
                    )
            epoch_loss /= n
            self.loss_curve_.append(epoch_loss)
            self.n_iter_ = epoch
            if epoch_loss > best_loss - self.tol:
                stale += 1
                if stale >= self.n_iter_no_change:
                    break
            else:
                stale = 0
            best_loss = min(best_loss, epoch_loss)
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "coefs_")
        X = check_array(X)
        if X.shape[1] != self.coefs_[0].shape[0]:
            raise ValueError(
                f"expected {self.coefs_[0].shape[0]} features, got {X.shape[1]}"
            )
        _, activations = self._forward(X)
        return activations[-1].ravel()
