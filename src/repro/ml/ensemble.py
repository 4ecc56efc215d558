"""Ensemble regressors: Bagging, Random Forest, AdaBoost.R2, Gradient
Boosting and Histogram Gradient Boosting.

Five of the paper's eighteen entrants (R1, R3, R6, R8, R13) — and, per its
Fig. 6, the family that wins the tournament (RFR and GBR have the lowest
RMSE and RFR is the model integrated into the routing framework).
Defaults track scikit-learn's.

RFR sits inside the controller's placement loop (Hecate refits and
forecasts 10 steps per candidate path, one row at a time), so its cost
per call matters more than its cost per row: the forest validates its
input once per ``fit``/``predict``, packs its fitted trees into one node
table and routes every (tree, row) pair through it together.  The
packed pass is the forest's only prediction path and is bit-equal to
the mean of ``estimators_[i].predict`` (docs/PERFORMANCE.md, "Hecate
against the tick budget").  The other four ensembles run in no
benchmark workload and keep the plain per-member loop.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

import numpy as np

from .base import (
    BaseEstimator,
    RegressorMixin,
    check_is_fitted,
    check_X_y,
    check_array,
    clone,
    resolve_rng,
)
from .tree import _NO_FEATURE, DecisionTreeRegressor

__all__ = [
    "BaggingRegressor",
    "RandomForestRegressor",
    "AdaBoostRegressor",
    "GradientBoostingRegressor",
    "HistGradientBoostingRegressor",
]


def _seed_for(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


class BaggingRegressor(BaseEstimator, RegressorMixin):
    """Bootstrap-aggregated clones of a base estimator (default: full CART).

    Prediction is the plain mean of the members, reducing variance of the
    unstable base learner.
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        max_samples: float = 1.0,
        bootstrap: bool = True,
        random_state=None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < max_samples <= 1.0:
            raise ValueError("max_samples must be in (0, 1]")
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: Optional[List[BaseEstimator]] = None

    def fit(self, X, y) -> "BaggingRegressor":
        X, y = check_X_y(X, y)
        n = X.shape[0]
        rng = resolve_rng(self.random_state)
        base = self.estimator if self.estimator is not None else DecisionTreeRegressor()
        m = max(1, int(round(self.max_samples * n)))
        self.estimators_ = []
        for _ in range(self.n_estimators):
            if self.bootstrap:
                idx = rng.integers(0, n, size=m)
            else:
                idx = rng.permutation(n)[:m]
            member = clone(base)
            if "random_state" in member.get_params():
                member.set_params(random_state=_seed_for(rng))
            member.fit(X[idx], y[idx])
            self.estimators_.append(member)
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = check_array(X)
        preds = np.stack([est.predict(X) for est in self.estimators_])
        return preds.mean(axis=0)


class RandomForestRegressor(BaseEstimator, RegressorMixin):
    """Random forest: bootstrapped CARTs with per-node feature subsampling.

    sklearn's regression default is ``max_features=1.0`` (all features),
    making the default forest a variance-reduced bagged ensemble; "sqrt"
    and "log2" enable classic Breiman subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=1.0,
        bootstrap: bool = True,
        random_state=None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: Optional[List[DecisionTreeRegressor]] = None

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y = check_X_y(X, y)
        n = X.shape[0]
        rng = resolve_rng(self.random_state)
        w = np.ones(n)
        trees = []
        for _ in range(self.n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=_seed_for(rng),
            )
            idx = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            # X, y were checked above: skip the per-tree re-validation
            trees.append(tree._grow(X[idx], y[idx], w))
        # one node table for the whole forest: the trees' arrays end to
        # end, child links shifted by each tree's offset (a leaf's links
        # are never followed, so shifting its -1 is harmless)
        sizes = np.array([tree.n_nodes_ for tree in trees], dtype=np.intp)
        self._roots = np.cumsum(sizes) - sizes
        shift = np.repeat(self._roots, sizes)
        self._feature = np.concatenate([t.feature_ for t in trees])
        self._threshold = np.concatenate([t.threshold_ for t in trees])
        self._left = np.concatenate([t.left_ for t in trees]) + shift
        self._right = np.concatenate([t.right_ for t in trees]) + shift
        self._value = np.concatenate([t.value_ for t in trees])
        self.estimators_ = trees
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = check_array(X)
        n, p = X.shape
        expected = self.estimators_[0].n_features_in_
        if p != expected:
            raise ValueError(f"expected {expected} features, got {p}")
        # route every (tree, row) pair together, tree-major, one level
        # per iteration; ``active`` holds the pairs still at a split node
        feature = self._feature
        nodes = np.repeat(self._roots, n)
        active = np.flatnonzero(feature[nodes] != _NO_FEATURE)
        while active.size:
            at = nodes[active]
            go_left = X[active % n, feature[at]] <= self._threshold[at]
            at = np.where(go_left, self._left[at], self._right[at])
            nodes[active] = at
            active = active[feature[at] != _NO_FEATURE]
        # the same C-contiguous (n_trees, n) array the per-tree stack
        # built, so the mean adds in the same order: bit-equal output
        return self._value[nodes].reshape(-1, n).mean(axis=0)


class AdaBoostRegressor(BaseEstimator, RegressorMixin):
    """AdaBoost.R2 (Drucker 1997), sklearn's regression boosting.

    Each round draws a weighted bootstrap, fits the base learner (default
    depth-3 CART), computes the normalized loss over *all* samples, stops
    if the average loss reaches 0.5, and reweights with
    ``beta = L / (1 - L)``.  Prediction is the weighted *median* across
    members — the detail that makes R2 robust to its weakest learners.
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 50,
        learning_rate: float = 1.0,
        loss: str = "linear",
        random_state=None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if loss not in ("linear", "square", "exponential"):
            raise ValueError(f"unknown loss {loss!r}")
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.loss = loss
        self.random_state = random_state
        self.estimators_: Optional[List[BaseEstimator]] = None
        self.estimator_weights_: Optional[np.ndarray] = None

    def fit(self, X, y) -> "AdaBoostRegressor":
        X, y = check_X_y(X, y)
        n = X.shape[0]
        rng = resolve_rng(self.random_state)
        base = (
            self.estimator
            if self.estimator is not None
            else DecisionTreeRegressor(max_depth=3)
        )
        w = np.full(n, 1.0 / n)
        estimators: List[BaseEstimator] = []
        weights: List[float] = []
        for _ in range(self.n_estimators):
            idx = rng.choice(n, size=n, replace=True, p=w)
            member = clone(base)
            if "random_state" in member.get_params():
                member.set_params(random_state=_seed_for(rng))
            member.fit(X[idx], y[idx])
            err = np.abs(y - member.predict(X))
            err_max = err.max()
            if err_max <= 0:
                # perfect fit: dominate the vote and stop
                estimators.append(member)
                weights.append(1.0)
                break
            loss = err / err_max
            if self.loss == "square":
                loss = loss**2
            elif self.loss == "exponential":
                loss = 1.0 - np.exp(-loss)
            avg_loss = float(w @ loss)
            if avg_loss >= 0.5:
                if not estimators:
                    estimators.append(member)
                    weights.append(1.0)
                break
            beta = avg_loss / (1.0 - avg_loss)
            estimators.append(member)
            weights.append(self.learning_rate * np.log(1.0 / beta))
            w *= beta ** (self.learning_rate * (1.0 - loss))
            w /= w.sum()
        self.estimators_ = estimators
        self.estimator_weights_ = np.asarray(weights)
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = check_array(X)
        preds = np.stack([est.predict(X) for est in self.estimators_])  # (m, n)
        weights = self.estimator_weights_
        order = np.argsort(preds, axis=0)
        sorted_weights = weights[order]  # weight of each sorted prediction
        cdf = np.cumsum(sorted_weights, axis=0)
        half = 0.5 * cdf[-1, :]
        median_pos = np.argmax(cdf >= half, axis=0)
        cols = np.arange(preds.shape[1])
        return preds[order[median_pos, cols], cols]


class GradientBoostingRegressor(BaseEstimator, RegressorMixin):
    """Least-squares gradient boosting on shallow CARTs.

    ``F_0`` is the target mean; each stage fits a depth-``max_depth`` tree
    to the current residuals and contributes ``learning_rate`` of its
    prediction.  ``subsample < 1`` gives stochastic gradient boosting.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        random_state=None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.random_state = random_state
        self.init_: Optional[float] = None
        self.estimators_: Optional[List[DecisionTreeRegressor]] = None
        self.train_score_: Optional[np.ndarray] = None

    def fit(self, X, y) -> "GradientBoostingRegressor":
        X, y = check_X_y(X, y)
        n = X.shape[0]
        rng = resolve_rng(self.random_state)
        self.init_ = float(y.mean())
        current = np.full(n, self.init_)
        self.estimators_ = []
        scores = []
        m = max(1, int(round(self.subsample * n)))
        for _ in range(self.n_estimators):
            residual = y - current
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                random_state=_seed_for(rng),
            )
            if self.subsample < 1.0:
                idx = rng.permutation(n)[:m]
                tree.fit(X[idx], residual[idx])
            else:
                tree.fit(X, residual)
            current += self.learning_rate * tree.predict(X)
            self.estimators_.append(tree)
            scores.append(float(np.mean((y - current) ** 2)))
        self.train_score_ = np.asarray(scores)
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = check_array(X)
        out = np.full(X.shape[0], self.init_)
        for tree in self.estimators_:
            out += self.learning_rate * tree.predict(X)
        return out


# --------------------------------------------------------------------------
# Histogram gradient boosting
# --------------------------------------------------------------------------


class _HistNode:
    __slots__ = ("idx", "grad_sum", "count", "node_id", "depth")

    def __init__(self, idx, grad_sum, node_id, depth):
        self.idx = idx
        self.grad_sum = grad_sum
        self.count = idx.shape[0]
        self.node_id = node_id
        self.depth = depth


class _HistTree:
    """One leaf-wise-grown tree over pre-binned features (LightGBM-style).

    Squared loss means hessians are identically 1, so node statistics are
    just (sum of gradients, count) and the split gain is
    ``GL^2/(nL+lam) + GR^2/(nR+lam) - G^2/(n+lam)``.
    """

    def __init__(self, max_leaf_nodes, min_samples_leaf, l2, max_depth):
        self.max_leaf_nodes = max_leaf_nodes
        self.min_samples_leaf = min_samples_leaf
        self.l2 = l2
        self.max_depth = max_depth
        self.feature: List[int] = []
        self.split_bin: List[int] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.value: List[float] = []

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.split_bin.append(0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _best_split(self, binned, grad, node, n_bins):
        best = (0.0, -1, -1)  # (gain, feature, bin)
        g_total = node.grad_sum
        n_total = node.count
        parent = g_total**2 / (n_total + self.l2)
        for j in range(binned.shape[1]):
            bins = binned[node.idx, j]
            g_hist = np.bincount(bins, weights=grad[node.idx], minlength=n_bins)
            c_hist = np.bincount(bins, minlength=n_bins)
            g_left = np.cumsum(g_hist)[:-1]
            c_left = np.cumsum(c_hist)[:-1]
            g_right = g_total - g_left
            c_right = n_total - c_left
            ok = (c_left >= self.min_samples_leaf) & (c_right >= self.min_samples_leaf)
            if not ok.any():
                continue
            gain = np.where(
                ok,
                g_left**2 / (c_left + self.l2 + 1e-12)
                + g_right**2 / (c_right + self.l2 + 1e-12)
                - parent,
                -np.inf,
            )
            k = int(np.argmax(gain))
            if gain[k] > best[0] + 1e-12:
                best = (float(gain[k]), j, k)
        return best

    def fit(self, binned, grad, n_bins):
        root_id = self._new_node()
        root = _HistNode(np.arange(binned.shape[0]), float(grad.sum()), root_id, 0)
        self.value[root_id] = -root.grad_sum / (root.count + self.l2)
        heap = []
        counter = 0

        def try_push(node):
            nonlocal counter
            if self.max_depth is not None and node.depth >= self.max_depth:
                return
            if node.count < 2 * self.min_samples_leaf:
                return
            gain, feat, bin_ = self._best_split(binned, grad, node, n_bins)
            if feat >= 0:
                heapq.heappush(heap, (-gain, counter, node, feat, bin_))
                counter += 1

        try_push(root)
        n_leaves = 1
        while heap and n_leaves < self.max_leaf_nodes:
            _, _, node, feat, bin_ = heapq.heappop(heap)
            mask = binned[node.idx, feat] <= bin_
            left_idx = node.idx[mask]
            right_idx = node.idx[~mask]
            if (
                left_idx.size < self.min_samples_leaf
                or right_idx.size < self.min_samples_leaf
            ):
                continue
            self.feature[node.node_id] = feat
            self.split_bin[node.node_id] = bin_
            lid, rid = self._new_node(), self._new_node()
            self.left[node.node_id] = lid
            self.right[node.node_id] = rid
            gl = float(grad[left_idx].sum())
            left = _HistNode(left_idx, gl, lid, node.depth + 1)
            right = _HistNode(right_idx, node.grad_sum - gl, rid, node.depth + 1)
            self.value[lid] = -left.grad_sum / (left.count + self.l2)
            self.value[rid] = -right.grad_sum / (right.count + self.l2)
            n_leaves += 1
            try_push(left)
            try_push(right)
        self._freeze()
        return self

    def _freeze(self):
        self.feature_arr = np.asarray(self.feature, dtype=np.intp)
        self.split_bin_arr = np.asarray(self.split_bin, dtype=np.intp)
        self.left_arr = np.asarray(self.left, dtype=np.intp)
        self.right_arr = np.asarray(self.right, dtype=np.intp)
        self.value_arr = np.asarray(self.value)

    def predict_binned(self, binned) -> np.ndarray:
        nodes = np.zeros(binned.shape[0], dtype=np.intp)
        active = self.feature_arr[nodes] != -1
        while active.any():
            current = nodes[active]
            feat = self.feature_arr[current]
            go_left = binned[active, feat] <= self.split_bin_arr[current]
            nodes[active] = np.where(go_left, self.left_arr[current], self.right_arr[current])
            active = self.feature_arr[nodes] != -1
        return self.value_arr[nodes]


class HistGradientBoostingRegressor(BaseEstimator, RegressorMixin):
    """Histogram gradient boosting (LightGBM-style, squared loss).

    Features are quantile-binned into at most ``max_bins`` buckets once;
    trees are grown leaf-wise by best gain on the binned data.  Defaults
    follow sklearn (``max_iter=100, lr=0.1, max_leaf_nodes=31,
    min_samples_leaf=20``).
    """

    def __init__(
        self,
        max_iter: int = 100,
        learning_rate: float = 0.1,
        max_leaf_nodes: int = 31,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 20,
        l2_regularization: float = 0.0,
        max_bins: int = 255,
    ):
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 2 <= max_bins <= 255:
            raise ValueError("max_bins must be in [2, 255]")
        self.max_iter = max_iter
        self.learning_rate = learning_rate
        self.max_leaf_nodes = max_leaf_nodes
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.l2_regularization = l2_regularization
        self.max_bins = max_bins
        self.bin_edges_: Optional[List[np.ndarray]] = None
        self.init_: Optional[float] = None
        self.trees_: Optional[List[_HistTree]] = None

    def _bin_fit(self, X) -> np.ndarray:
        self.bin_edges_ = []
        binned = np.empty(X.shape, dtype=np.intp)
        for j in range(X.shape[1]):
            col = X[:, j]
            uniq = np.unique(col)
            if uniq.size <= self.max_bins:
                edges = (uniq[:-1] + uniq[1:]) / 2.0
            else:
                qs = np.quantile(col, np.linspace(0, 1, self.max_bins + 1)[1:-1])
                edges = np.unique(qs)
            self.bin_edges_.append(edges)
            binned[:, j] = np.searchsorted(edges, col, side="right")
        return binned

    def _bin_transform(self, X) -> np.ndarray:
        binned = np.empty(X.shape, dtype=np.intp)
        for j in range(X.shape[1]):
            binned[:, j] = np.searchsorted(self.bin_edges_[j], X[:, j], side="right")
        return binned

    def fit(self, X, y) -> "HistGradientBoostingRegressor":
        X, y = check_X_y(X, y)
        binned = self._bin_fit(X)
        n_bins = self.max_bins + 1
        self.init_ = float(y.mean())
        current = np.full(X.shape[0], self.init_)
        self.trees_ = []
        for _ in range(self.max_iter):
            grad = current - y  # d/dF of 0.5*(F - y)^2
            tree = _HistTree(
                self.max_leaf_nodes,
                self.min_samples_leaf,
                self.l2_regularization,
                self.max_depth,
            ).fit(binned, grad, n_bins)
            current += self.learning_rate * tree.predict_binned(binned)
            self.trees_.append(tree)
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "trees_")
        X = check_array(X)
        if X.shape[1] != len(self.bin_edges_):
            raise ValueError(
                f"expected {len(self.bin_edges_)} features, got {X.shape[1]}"
            )
        binned = self._bin_transform(X)
        out = np.full(X.shape[0], self.init_)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict_binned(binned)
        return out
