"""Bagging, Random Forest, AdaBoost.R2, Gradient Boosting and Histogram
Gradient Boosting on one tree core.

Five of the paper's eighteen entrants (R1, R3, R6, R8, R13) — and, per its
Fig. 6, the family that wins the tournament (RFR is the model integrated
into the routing framework).  Defaults track scikit-learn's.

Each ``fit`` validates once, grows its members on rows it already checked
(CART through ``DecisionTreeRegressor._grow``; HGB's leaf-wise histogram
trees on binned features) and packs them into one node table.  The shared
``predict`` routes every (tree, row) pair through that table in one pass
and reduces the leaf values: mean (RF, Bagging), weighted median
(AdaBoost) or boosted sum (GB, HGB), each bit-equal to the same reduction
over the members' own predictions (docs/PERFORMANCE.md, "Hecate against
the tick budget").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .base import (
    BaseEstimator,
    check_array,
    check_is_fitted,
    check_X_y,
    resolve_rng,
)
from .tree import (
    DecisionTreeRegressor,
    MaxFeatures,
    RandomState,
    _NodeArrays,
    _PackedTrees,
    _TreeBuffers,
)

__all__ = [
    "BaggingRegressor",
    "RandomForestRegressor",
    "AdaBoostRegressor",
    "GradientBoostingRegressor",
    "HistGradientBoostingRegressor",
]


def _seed_for(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _boosted_sum(
    init: float, learning_rate: float, stages: np.ndarray
) -> np.ndarray:
    """``init`` plus ``learning_rate`` times each stage, added with a
    sequential ``+=`` in stage order as fit accumulated them (``np.sum``
    adds pairwise and rounds differently)."""
    out = np.full(stages.shape[1], init)
    for stage in stages:
        out += learning_rate * stage
    return out


class _TreeEnsemble(BaseEstimator):
    """The packed table and ``predict`` the five ensembles share.  ``fit``
    assigns fitted state only after its last stage, ending with ``_pack``,
    so a fit that raises leaves the model as it was."""

    def _pack(self, trees: Sequence[_NodeArrays], n_features: int) -> None:
        self.n_features_in_ = n_features
        self._table = _PackedTrees(trees)

    def _encode(self, X: np.ndarray) -> np.ndarray:
        """What the trees split on: the input itself unless overridden."""
        return X

    def _reduce(self, leaves: np.ndarray) -> np.ndarray:
        """The members' mean (RF, Bagging) unless overridden."""
        return leaves.mean(axis=0)

    def predict(self, X: ArrayLike) -> np.ndarray:
        check_is_fitted(self, "_table")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"expected {self.n_features_in_} features, got {X.shape[1]}"
            )
        return self._reduce(self._table.route(self._encode(X)))


class BaggingRegressor(_TreeEnsemble):
    """Bootstrap-aggregated full CARTs.

    Prediction is the plain mean of the members, reducing variance of the
    unstable base learner.
    """

    def __init__(
        self,
        n_estimators: int = 10,
        max_samples: float = 1.0,
        bootstrap: bool = True,
        random_state: RandomState = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < max_samples <= 1.0:
            raise ValueError("max_samples must be in (0, 1]")
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X: ArrayLike, y: ArrayLike) -> BaggingRegressor:
        X, y = check_X_y(X, y)
        n = X.shape[0]
        rng = resolve_rng(self.random_state)
        m = max(1, int(round(self.max_samples * n)))
        w = np.ones(m)
        trees: List[DecisionTreeRegressor] = []
        for _ in range(self.n_estimators):
            # the draw order is part of the result: rows, then seed
            if self.bootstrap:
                idx = rng.integers(0, n, size=m)
            else:
                idx = rng.permutation(n)[:m]
            tree = DecisionTreeRegressor(random_state=_seed_for(rng))
            trees.append(tree._grow(X[idx], y[idx], w))
        self.estimators_ = trees
        self._pack(trees, X.shape[1])
        return self


class RandomForestRegressor(_TreeEnsemble):
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
        max_features: MaxFeatures = 1.0,
        bootstrap: bool = True,
        random_state: RandomState = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X: ArrayLike, y: ArrayLike) -> RandomForestRegressor:
        X, y = check_X_y(X, y)
        n = X.shape[0]
        rng = resolve_rng(self.random_state)
        w = np.ones(n)
        trees: List[DecisionTreeRegressor] = []
        for _ in range(self.n_estimators):
            # the draw order is part of the result: seed, then rows
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=_seed_for(rng),
            )
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            trees.append(tree._grow(X[idx], y[idx], w))
        self.estimators_ = trees
        self._pack(trees, X.shape[1])
        return self


class AdaBoostRegressor(_TreeEnsemble):
    """AdaBoost.R2 (Drucker 1997), sklearn's regression boosting.

    Each round draws a weighted bootstrap, fits a depth-3 CART, computes
    the normalized loss over *all* samples, stops if the average loss
    reaches 0.5, and reweights with ``beta = L / (1 - L)``.  Prediction
    is the weighted *median* across members — the detail that makes R2
    robust to its weakest learners.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 1.0,
        loss: str = "linear",
        random_state: RandomState = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if loss not in ("linear", "square", "exponential"):
            raise ValueError(f"unknown loss {loss!r}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.loss = loss
        self.random_state = random_state

    def fit(self, X: ArrayLike, y: ArrayLike) -> AdaBoostRegressor:
        X, y = check_X_y(X, y)
        n = X.shape[0]
        rng = resolve_rng(self.random_state)
        ones = np.ones(n)
        w = np.full(n, 1.0 / n)
        estimators: List[DecisionTreeRegressor] = []
        weights: List[float] = []
        for _ in range(self.n_estimators):
            # the draw order is part of the result: rows, then seed
            idx = rng.choice(n, size=n, replace=True, p=w)
            seed = _seed_for(rng)
            member = DecisionTreeRegressor(max_depth=3, random_state=seed)
            member._grow(X[idx], y[idx], ones)
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
            weights.append(float(self.learning_rate * np.log(1.0 / beta)))
            w *= beta ** (self.learning_rate * (1.0 - loss))
            w /= w.sum()
        self.estimators_ = estimators
        self.estimator_weights_ = np.asarray(weights)
        self._pack(estimators, X.shape[1])
        return self

    def _reduce(self, leaves: np.ndarray) -> np.ndarray:
        """Weighted median of the members' predictions, per row."""
        order = np.argsort(leaves, axis=0)
        cdf = np.cumsum(self.estimator_weights_[order], axis=0)
        median_pos = np.argmax(cdf >= 0.5 * cdf[-1, :], axis=0)
        cols = np.arange(leaves.shape[1])
        return leaves[order[median_pos, cols], cols]


class GradientBoostingRegressor(_TreeEnsemble):
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
        random_state: RandomState = None,
    ) -> None:
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

    def fit(self, X: ArrayLike, y: ArrayLike) -> GradientBoostingRegressor:
        X, y = check_X_y(X, y)
        n = X.shape[0]
        rng = resolve_rng(self.random_state)
        init = float(y.mean())
        current = np.full(n, init)
        m = max(1, int(round(self.subsample * n)))
        w = np.ones(m)
        trees: List[DecisionTreeRegressor] = []
        scores: List[float] = []
        for _ in range(self.n_estimators):
            residual = y - current
            # the draw order is part of the result: seed, then rows
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                random_state=_seed_for(rng),
            )
            if self.subsample < 1.0:
                idx = rng.permutation(n)[:m]
            else:
                idx = np.arange(n)
            tree._grow(X[idx], residual[idx], w)
            current += self.learning_rate * tree.predict(X)
            trees.append(tree)
            scores.append(float(np.mean((y - current) ** 2)))
        self.init_ = init
        self.estimators_ = trees
        self.train_score_ = np.asarray(scores)
        self._pack(trees, X.shape[1])
        return self

    def _reduce(self, leaves: np.ndarray) -> np.ndarray:
        return _boosted_sum(self.init_, self.learning_rate, leaves)


class _HistNode:
    __slots__ = ("idx", "grad_sum", "count", "node_id", "depth")

    def __init__(
        self, idx: np.ndarray, grad_sum: float, node_id: int, depth: int
    ) -> None:
        self.idx = idx
        self.grad_sum = grad_sum
        self.count = idx.shape[0]
        self.node_id = node_id
        self.depth = depth


@dataclass
class _HistTree(_NodeArrays):
    """One leaf-wise-grown tree over pre-binned features (LightGBM-style).

    Squared loss means hessians are identically 1, so node statistics are
    just (sum of gradients, count) and the split gain is
    ``GL^2/(nL+lam) + GR^2/(nR+lam) - G^2/(n+lam)``.  A split node keeps
    its bin in ``threshold_``: an integer bin compared with an integral
    float is exact, so the packed table routes binned rows unchanged.
    """

    max_leaf_nodes: int
    min_samples_leaf: int
    l2: float
    max_depth: Optional[int]

    def _best_split(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        node: _HistNode,
        n_bins: int,
    ) -> Tuple[float, int, int]:
        best = (0.0, -1, -1)  # (gain, feature, bin)
        g_total = node.grad_sum
        n_total = node.count
        parent = g_total**2 / (n_total + self.l2)
        leaf = self.min_samples_leaf
        for j in range(binned.shape[1]):
            bins = binned[node.idx, j]
            g_hist = np.bincount(
                bins, weights=grad[node.idx], minlength=n_bins
            )
            c_hist = np.bincount(bins, minlength=n_bins)
            g_left = np.cumsum(g_hist)[:-1]
            c_left = np.cumsum(c_hist)[:-1]
            g_right = g_total - g_left
            c_right = n_total - c_left
            ok = (c_left >= leaf) & (c_right >= leaf)
            if not ok.any():
                continue
            left = g_left**2 / (c_left + self.l2 + 1e-12)
            right = g_right**2 / (c_right + self.l2 + 1e-12)
            gain = np.where(ok, left + right - parent, -np.inf)
            k = int(np.argmax(gain))
            if gain[k] > best[0] + 1e-12:
                best = (float(gain[k]), j, k)
        return best

    def fit(
        self, binned: np.ndarray, grad: np.ndarray, n_bins: int
    ) -> _HistTree:
        buffers = _TreeBuffers()
        root = _HistNode(
            np.arange(binned.shape[0]), float(grad.sum()), buffers.add(), 0
        )
        buffers.value[root.node_id] = -root.grad_sum / (root.count + self.l2)
        heap: List[Tuple[float, int, _HistNode, int, int]] = []
        counter = 0

        def try_push(node: _HistNode) -> None:
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
            lid, rid = buffers.add(), buffers.add()
            buffers.feature[node.node_id] = feat
            buffers.threshold[node.node_id] = bin_
            buffers.left[node.node_id] = lid
            buffers.right[node.node_id] = rid
            gl = float(grad[left_idx].sum())
            left = _HistNode(left_idx, gl, lid, node.depth + 1)
            right = _HistNode(
                right_idx, node.grad_sum - gl, rid, node.depth + 1
            )
            buffers.value[lid] = -left.grad_sum / (left.count + self.l2)
            buffers.value[rid] = -right.grad_sum / (right.count + self.l2)
            n_leaves += 1
            try_push(left)
            try_push(right)
        buffers.freeze(self)
        return self


def _binned(X: np.ndarray, edges: Sequence[np.ndarray]) -> np.ndarray:
    """Each value's bin: how many of its column's edges lie at or below."""
    binned = np.empty(X.shape, dtype=np.intp)
    for j, column_edges in enumerate(edges):
        binned[:, j] = np.searchsorted(column_edges, X[:, j], side="right")
    return binned


class HistGradientBoostingRegressor(_TreeEnsemble):
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
    ) -> None:
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

    def _bin_edges(self, column: np.ndarray) -> np.ndarray:
        uniq = np.unique(column)
        if uniq.size <= self.max_bins:
            return (uniq[:-1] + uniq[1:]) / 2.0
        qs = np.quantile(column, np.linspace(0, 1, self.max_bins + 1)[1:-1])
        return np.unique(qs)

    def _encode(self, X: np.ndarray) -> np.ndarray:
        return _binned(X, self.bin_edges_)

    def fit(self, X: ArrayLike, y: ArrayLike) -> HistGradientBoostingRegressor:
        X, y = check_X_y(X, y)
        edges = [self._bin_edges(X[:, j]) for j in range(X.shape[1])]
        binned = _binned(X, edges)
        n_bins = self.max_bins + 1
        init = float(y.mean())
        current = np.full(X.shape[0], init)
        trees: List[_HistTree] = []
        for _ in range(self.max_iter):
            grad = current - y  # d/dF of 0.5*(F - y)^2
            tree = _HistTree(
                self.max_leaf_nodes,
                self.min_samples_leaf,
                self.l2_regularization,
                self.max_depth,
            ).fit(binned, grad, n_bins)
            stage = _PackedTrees([tree]).route(binned)[0]
            current += self.learning_rate * stage
            trees.append(tree)
        self.bin_edges_ = edges
        self.init_ = init
        self.trees_ = trees
        self._pack(trees, X.shape[1])
        return self

    def _reduce(self, leaves: np.ndarray) -> np.ndarray:
        return _boosted_sum(self.init_, self.learning_rate, leaves)
