"""CART regression trees.

The decision tree is the substrate under five of the paper's eighteen
models (DTR itself plus Bagging, Random Forest, AdaBoost.R2 and Gradient
Boosting).  Split search is vectorized per node with prefix sums over the
sorted feature column — the textbook weighted-variance-reduction CART —
and prediction routes all samples level-by-level with numpy masks instead
of per-sample Python recursion.

``fit`` is input validation followed by ``_grow``; the random forest
validates once and calls ``_grow`` per bootstrap sample, then predicts
from its own packed copy of the node arrays.  ``predict`` here stays the
one-tree reference the forest's tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .base import (
    BaseEstimator,
    RegressorMixin,
    check_is_fitted,
    check_X_y,
    check_array,
    resolve_rng,
)

__all__ = ["DecisionTreeRegressor"]

_NO_FEATURE = -1


@dataclass
class _TreeBuffers:
    """Growable parallel arrays describing the tree; frozen after fit."""

    feature: List[int] = field(default_factory=list)
    threshold: List[float] = field(default_factory=list)
    left: List[int] = field(default_factory=list)
    right: List[int] = field(default_factory=list)
    value: List[float] = field(default_factory=list)

    def add(self) -> int:
        self.feature.append(_NO_FEATURE)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1


class DecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """CART with the weighted MSE criterion.

    Parameters mirror sklearn: ``max_depth=None`` grows until leaves are
    pure or smaller than ``min_samples_split``; ``max_features`` accepts
    ``None`` (all), an int, a float fraction, ``"sqrt"`` or ``"log2"`` and
    is what Random Forest uses for per-node feature subsampling.
    ``sample_weight`` support is required by AdaBoost.R2.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state=None,
    ):
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.feature_: Optional[np.ndarray] = None
        self.threshold_: Optional[np.ndarray] = None
        self.left_: Optional[np.ndarray] = None
        self.right_: Optional[np.ndarray] = None
        self.value_: Optional[np.ndarray] = None
        self.n_features_in_: Optional[int] = None
        self.depth_: int = 0

    # ------------------------------------------------------------------ fit

    def _n_candidate_features(self, p: int) -> int:
        mf = self.max_features
        if mf is None:
            return p
        if mf == "sqrt":
            return max(1, int(np.sqrt(p)))
        if mf == "log2":
            return max(1, int(np.log2(p)))
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError(f"max_features fraction must be in (0, 1], got {mf}")
            return max(1, int(mf * p))
        if isinstance(mf, (int, np.integer)):
            if not 1 <= mf <= p:
                raise ValueError(f"max_features must be in [1, {p}], got {mf}")
            return int(mf)
        raise ValueError(f"unsupported max_features: {mf!r}")

    def _best_split(self, X, y, w, feature_ids):
        """Return (feature, threshold, gain) for the best weighted-MSE split.

        For each feature, sorts the column once and evaluates every valid
        split position with prefix sums; cost O(m log m) per feature.
        """
        m = y.shape[0]
        total_w = w.sum()
        total_wy = float(w @ y)
        total_wy2 = float(w @ (y * y))
        parent_impurity = total_wy2 - total_wy**2 / total_w

        best_gain = 1e-12  # require strictly positive gain
        best_feature = _NO_FEATURE
        best_threshold = 0.0
        leaf = self.min_samples_leaf
        for j in feature_ids:
            order = np.argsort(X[:, j], kind="stable")
            xs = X[order, j]
            ys = y[order]
            ws = w[order]
            cw = np.cumsum(ws)
            cwy = np.cumsum(ws * ys)
            cwy2 = np.cumsum(ws * ys * ys)
            # split after position i-1 (left gets i samples), i in [leaf, m-leaf]
            i = np.arange(leaf, m - leaf + 1)
            if i.size == 0:
                continue
            valid = xs[i] > xs[i - 1]
            i = i[valid]
            if i.size == 0:
                continue
            lw = cw[i - 1]
            rw = total_w - lw
            li = cwy2[i - 1] - cwy[i - 1] ** 2 / lw
            rv = total_wy - cwy[i - 1]
            ri = (total_wy2 - cwy2[i - 1]) - rv**2 / rw
            gain = parent_impurity - (li + ri)
            k = int(np.argmax(gain))
            if gain[k] > best_gain:
                best_gain = float(gain[k])
                best_feature = int(j)
                best_threshold = float((xs[i[k] - 1] + xs[i[k]]) / 2.0)
        return best_feature, best_threshold, best_gain

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        n = X.shape[0]
        if sample_weight is None:
            w = np.ones(n)
        else:
            w = np.asarray(sample_weight, dtype=np.float64).ravel()
            if w.shape[0] != n:
                raise ValueError("sample_weight length mismatch")
            if (w < 0).any() or w.sum() <= 0:
                raise ValueError("sample_weight must be non-negative with positive sum")
        return self._grow(X, y, w)

    def _grow(self, X, y, w) -> "DecisionTreeRegressor":
        """Grow on arrays the caller has already validated (``fit``, or
        the forest, which checks once and passes bootstrap rows)."""
        n, p = X.shape
        self.n_features_in_ = p
        k_features = self._n_candidate_features(p)
        # seeding a Generator costs more than a single-leaf tree; only
        # per-node feature subsampling ever draws from it
        rng = resolve_rng(self.random_state) if k_features < p else None
        buffers = _TreeBuffers()
        self.depth_ = 0

        # explicit stack avoids recursion limits on deep trees
        root = buffers.add()
        stack = [(root, np.arange(n), 0)]
        while stack:
            node, idx, depth = stack.pop()
            self.depth_ = max(self.depth_, depth)
            yi = y[idx]
            wi = w[idx]
            buffers.value[node] = float((wi @ yi) / wi.sum())
            m = idx.shape[0]
            if (
                m < self.min_samples_split
                or m < 2 * self.min_samples_leaf
                or (self.max_depth is not None and depth >= self.max_depth)
                or np.all(yi == yi[0])
            ):
                continue
            if k_features < p:
                feature_ids = rng.choice(p, size=k_features, replace=False)
            else:
                feature_ids = np.arange(p)
            feat, thresh, gain = self._best_split(X[idx], yi, wi, feature_ids)
            if feat == _NO_FEATURE:
                continue
            mask = X[idx, feat] <= thresh
            left_idx = idx[mask]
            right_idx = idx[~mask]
            if left_idx.size < self.min_samples_leaf or right_idx.size < self.min_samples_leaf:
                continue
            buffers.feature[node] = feat
            buffers.threshold[node] = thresh
            left = buffers.add()
            right = buffers.add()
            buffers.left[node] = left
            buffers.right[node] = right
            stack.append((left, left_idx, depth + 1))
            stack.append((right, right_idx, depth + 1))

        self.feature_ = np.asarray(buffers.feature, dtype=np.intp)
        self.threshold_ = np.asarray(buffers.threshold)
        self.left_ = np.asarray(buffers.left, dtype=np.intp)
        self.right_ = np.asarray(buffers.right, dtype=np.intp)
        self.value_ = np.asarray(buffers.value)
        return self

    # -------------------------------------------------------------- predict

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "feature_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"expected {self.n_features_in_} features, got {X.shape[1]}"
            )
        nodes = np.zeros(X.shape[0], dtype=np.intp)
        active = self.feature_[nodes] != _NO_FEATURE
        while active.any():
            current = nodes[active]
            feat = self.feature_[current]
            go_left = X[active, feat] <= self.threshold_[current]
            nxt = np.where(go_left, self.left_[current], self.right_[current])
            nodes[active] = nxt
            active = self.feature_[nodes] != _NO_FEATURE
        return self.value_[nodes]

    @property
    def n_nodes_(self) -> int:
        check_is_fitted(self, "feature_")
        return int(self.feature_.shape[0])

    @property
    def n_leaves_(self) -> int:
        check_is_fitted(self, "feature_")
        return int((self.feature_ == _NO_FEATURE).sum())
