"""CART and the five ensemble regressors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    AdaBoostRegressor,
    BaggingRegressor,
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    HistGradientBoostingRegressor,
    LinearRegression,
    RandomForestRegressor,
    root_mean_squared_error,
)
from repro.ml.base import NotFittedError
from repro.ml.ensemble import _HistTree


def friedman_like(n=300, seed=0, noise=0.2):
    """Nonlinear benchmark where trees should beat a linear model."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 5))
    y = (
        10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20.0 * (X[:, 2] - 0.5) ** 2
        + 10.0 * X[:, 3]
        + 5.0 * X[:, 4]
        + rng.normal(scale=noise, size=n)
    )
    return X, y


class TestDecisionTree:
    def test_unbounded_tree_memorizes_training_data(self):
        X, y = friedman_like(80, noise=0.0)
        tree = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(tree.predict(X), y, atol=1e-10)

    def test_stump_has_two_leaves(self):
        X, y = friedman_like(100)
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert tree.depth_ == 1
        assert tree.n_leaves_ == 2

    def test_depth_zero_is_mean(self):
        X, y = friedman_like(50)
        tree = DecisionTreeRegressor(max_depth=0).fit(X, y)
        assert np.allclose(tree.predict(X), y.mean())

    def test_min_samples_leaf_respected(self):
        X, y = friedman_like(100)
        tree = DecisionTreeRegressor(min_samples_leaf=20).fit(X, y)
        # every leaf mean must come from >= 20 samples: the tree therefore
        # has at most 100/20 leaves
        assert tree.n_leaves_ <= 5

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        tree = DecisionTreeRegressor().fit(X, np.full(30, 3.3))
        assert tree.n_leaves_ == 1
        assert np.allclose(tree.predict(X), 3.3)

    def test_splits_on_informative_feature(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 3))
        y = np.where(X[:, 1] > 0.0, 10.0, -10.0)
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert tree.feature_[0] == 1
        assert abs(tree.threshold_[0]) < 0.2

    def test_sample_weight_changes_fit(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        w = np.array([100.0, 100.0, 1.0, 1.0])
        tree = DecisionTreeRegressor(max_depth=0)
        unweighted = tree.fit(X, y).predict([[1.5]])[0]
        weighted = DecisionTreeRegressor(max_depth=0).fit(X, y, sample_weight=w).predict([[1.5]])[0]
        assert unweighted == pytest.approx(5.0)
        assert weighted < 1.0

    def test_sample_weight_validation(self):
        X, y = friedman_like(10)
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(X, y, sample_weight=np.ones(3))
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(X, y, sample_weight=-np.ones(10))

    def test_max_features_validation(self):
        X, y = friedman_like(20)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features=0).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features=2.0).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features="cube").fit(X, y)

    def test_max_features_sqrt_runs(self):
        X, y = friedman_like(100)
        tree = DecisionTreeRegressor(max_features="sqrt", random_state=0).fit(X, y)
        assert np.isfinite(tree.predict(X)).all()

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_depth_never_exceeds_cap(self, cap):
        X, y = friedman_like(120, seed=7)
        tree = DecisionTreeRegressor(max_depth=cap).fit(X, y)
        assert tree.depth_ <= cap

    def test_deeper_fits_training_better(self):
        X, y = friedman_like(200, seed=3)
        errs = [
            root_mean_squared_error(
                y, DecisionTreeRegressor(max_depth=d).fit(X, y).predict(X)
            )
            for d in [1, 3, 6]
        ]
        assert errs[0] > errs[1] > errs[2]


class TestEnsemblesBeatBaselines:
    def test_forest_beats_single_tree_out_of_sample(self):
        Xtr, ytr = friedman_like(300, seed=0)
        Xte, yte = friedman_like(200, seed=99)
        tree_rmse = root_mean_squared_error(
            yte, DecisionTreeRegressor(random_state=0).fit(Xtr, ytr).predict(Xte)
        )
        rf_rmse = root_mean_squared_error(
            yte,
            RandomForestRegressor(n_estimators=30, random_state=0).fit(Xtr, ytr).predict(Xte),
        )
        assert rf_rmse < tree_rmse

    def test_gbr_beats_linear_on_nonlinear_data(self):
        Xtr, ytr = friedman_like(300, seed=1)
        Xte, yte = friedman_like(200, seed=98)
        lin = root_mean_squared_error(
            yte, LinearRegression().fit(Xtr, ytr).predict(Xte)
        )
        gbr = root_mean_squared_error(
            yte, GradientBoostingRegressor(random_state=0).fit(Xtr, ytr).predict(Xte)
        )
        assert gbr < lin

    def test_hgbr_close_to_gbr(self):
        Xtr, ytr = friedman_like(400, seed=2)
        Xte, yte = friedman_like(200, seed=97)
        gbr = root_mean_squared_error(
            yte, GradientBoostingRegressor(random_state=0).fit(Xtr, ytr).predict(Xte)
        )
        hgbr = root_mean_squared_error(
            yte, HistGradientBoostingRegressor().fit(Xtr, ytr).predict(Xte)
        )
        assert hgbr < 2.0 * gbr  # same ballpark

    def test_adaboost_beats_its_stump_base(self):
        Xtr, ytr = friedman_like(300, seed=4)
        Xte, yte = friedman_like(200, seed=96)
        base = root_mean_squared_error(
            yte, DecisionTreeRegressor(max_depth=3, random_state=0).fit(Xtr, ytr).predict(Xte)
        )
        boosted = root_mean_squared_error(
            yte, AdaBoostRegressor(random_state=0).fit(Xtr, ytr).predict(Xte)
        )
        assert boosted < base


class TestEnsembleMechanics:
    def test_bagging_reproducible(self):
        X, y = friedman_like(150)
        a = BaggingRegressor(random_state=5).fit(X, y).predict(X)
        b = BaggingRegressor(random_state=5).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_forest_reproducible(self):
        X, y = friedman_like(150)
        a = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_forest_different_seeds_differ(self):
        X, y = friedman_like(150)
        a = RandomForestRegressor(n_estimators=10, random_state=1).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=10, random_state=2).fit(X, y).predict(X)
        assert not np.array_equal(a, b)

    def test_n_estimators_honored(self):
        X, y = friedman_like(100)
        model = RandomForestRegressor(n_estimators=7, random_state=0).fit(X, y)
        assert len(model.estimators_) == 7

    def test_adaboost_weighted_median_between_members(self):
        X, y = friedman_like(100, seed=6)
        model = AdaBoostRegressor(n_estimators=10, random_state=0).fit(X, y)
        preds = np.stack([m.predict(X) for m in model.estimators_])
        combined = model.predict(X)
        assert np.all(combined >= preds.min(axis=0) - 1e-9)
        assert np.all(combined <= preds.max(axis=0) + 1e-9)

    def test_adaboost_loss_variants(self):
        X, y = friedman_like(80, seed=7)
        for loss in ("linear", "square", "exponential"):
            model = AdaBoostRegressor(loss=loss, n_estimators=5, random_state=0).fit(X, y)
            assert np.isfinite(model.predict(X)).all()
        with pytest.raises(ValueError):
            AdaBoostRegressor(loss="cubic")

    def test_gbr_training_loss_decreases(self):
        X, y = friedman_like(200, seed=8)
        model = GradientBoostingRegressor(n_estimators=50, random_state=0).fit(X, y)
        assert model.train_score_[-1] < model.train_score_[0]

    def test_gbr_subsample(self):
        X, y = friedman_like(200, seed=9)
        model = GradientBoostingRegressor(subsample=0.5, random_state=0).fit(X, y)
        assert np.isfinite(model.predict(X)).all()
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=0.0)

    def test_bagging_without_bootstrap(self):
        X, y = friedman_like(100)
        model = BaggingRegressor(bootstrap=False, max_samples=0.8, random_state=0).fit(X, y)
        assert np.isfinite(model.predict(X)).all()

    def test_hgbr_bins_capped(self):
        with pytest.raises(ValueError):
            HistGradientBoostingRegressor(max_bins=1000)

    def test_hgbr_min_samples_leaf(self):
        X, y = friedman_like(100)
        model = HistGradientBoostingRegressor(min_samples_leaf=40).fit(X, y)
        # with so few samples per leaf allowed, trees are tiny but valid
        assert np.isfinite(model.predict(X)).all()

    def test_hgbr_handles_discrete_features(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 3, size=(200, 2)).astype(float)
        y = X[:, 0] * 3.0 + X[:, 1]
        model = HistGradientBoostingRegressor(min_samples_leaf=5).fit(X, y)
        assert root_mean_squared_error(y, model.predict(X)) < 0.5

    def test_estimator_count_validation(self):
        for cls in (BaggingRegressor, RandomForestRegressor, AdaBoostRegressor,
                    GradientBoostingRegressor):
            with pytest.raises(ValueError):
                cls(n_estimators=0)
        with pytest.raises(ValueError):
            HistGradientBoostingRegressor(max_iter=0)


def _replayed_trees(forest, X, y):
    """``DecisionTreeRegressor.fit`` on the bootstrap rows the forest
    drew — the forest's RNG stream replayed from its seed."""
    rng = np.random.default_rng(forest.random_state)
    n = X.shape[0]
    trees = []
    for _ in range(forest.n_estimators):
        seed = int(rng.integers(0, 2**31 - 1))
        idx = rng.integers(0, n, size=n) if forest.bootstrap else np.arange(n)
        trees.append(
            DecisionTreeRegressor(
                max_depth=forest.max_depth,
                max_features=forest.max_features,
                random_state=seed,
            ).fit(X[idx], y[idx])
        )
    return trees


def _weighted_median(model, preds):
    order = np.argsort(preds, axis=0)
    cdf = np.cumsum(model.estimator_weights_[order], axis=0)
    median_pos = np.argmax(cdf >= 0.5 * cdf[-1, :], axis=0)
    cols = np.arange(preds.shape[1])
    return preds[order[median_pos, cols], cols]


def _staged_sum(model, preds):
    out = np.full(preds.shape[1], model.init_)
    for stage in preds:
        out += model.learning_rate * stage
    return out


#: ensemble -> (class, its reduction over the members' predictions)
MEMBER_REDUCTIONS = {
    "bagging": (BaggingRegressor, lambda model, preds: preds.mean(axis=0)),
    "adaboost": (AdaBoostRegressor, _weighted_median),
    "gb": (GradientBoostingRegressor, _staged_sum),
}


class TestPackedForest:
    """The forest predicts from one packed node table; the per-tree loop
    over ``estimators_`` (``DecisionTreeRegressor.predict``, untouched)
    is the reference, and the two must agree to the byte."""

    @given(
        rows=st.integers(1, 64),
        features=st.integers(1, 12),
        trees=st.integers(1, 40),
        max_features=st.sampled_from([1.0, "sqrt", 0.5, 1]),
        max_depth=st.sampled_from([None, 1, 3]),
        bootstrap=st.booleans(),
        target=st.sampled_from(["smooth", "tied", "constant"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_packed_predict_equals_per_tree_mean(
        self, rows, features, trees, max_features, max_depth, bootstrap,
        target, seed,
    ):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rows, features))
        X[:, 0] = np.round(X[:, 0])  # tied feature values
        if target == "constant":
            y = np.full(rows, 87.5)
        elif target == "tied":
            y = np.round(X[:, 0] + X[:, -1])
        else:
            y = np.sin(X[:, 0]) + X[:, -1] ** 2
        forest = RandomForestRegressor(
            n_estimators=trees,
            max_depth=max_depth,
            max_features=max_features,
            bootstrap=bootstrap,
            random_state=seed,
        ).fit(X, y)

        Z = np.concatenate([X, rng.normal(size=(rows, features))])
        for query in (Z, Z[:1]):
            reference = np.stack(
                [t.predict(query) for t in forest.estimators_]
            ).mean(axis=0)
            assert forest.predict(query).tobytes() == reference.tobytes()

        replayed = _replayed_trees(forest, X, y)
        assert len(forest.estimators_) == trees == len(replayed)
        for member, ref in zip(forest.estimators_, replayed):
            assert member.n_nodes_ == ref.n_nodes_
            assert member.depth_ == ref.depth_
            assert np.array_equal(member.feature_, ref.feature_)
            assert member.threshold_.tobytes() == ref.threshold_.tobytes()
            assert member.value_.tobytes() == ref.value_.tobytes()

    def test_refit_repacks(self):
        X, y = friedman_like(80)
        forest = RandomForestRegressor(n_estimators=5, random_state=0).fit(X, y)
        first = forest.predict(X)
        forest.fit(X[:, :3], -y)
        second = forest.predict(X[:, :3])
        fresh = RandomForestRegressor(n_estimators=5, random_state=0)
        assert np.array_equal(second, fresh.fit(X[:, :3], -y).predict(X[:, :3]))
        assert not np.array_equal(first, second)
        with pytest.raises(ValueError, match="expected 3 features, got 5"):
            forest.predict(X)

    @given(
        kind=st.sampled_from(sorted(MEMBER_REDUCTIONS)),
        rows=st.integers(1, 64),
        features=st.integers(1, 12),
        members=st.integers(1, 20),
        target=st.sampled_from(["smooth", "tied", "constant"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_packed_predict_equals_members_reduction(
        self, kind, rows, features, members, target, seed
    ):
        """Bagging, AdaBoost and GB share the forest's packed table; each
        must equal its own reduction over the members' ``predict``."""
        cls, reduce = MEMBER_REDUCTIONS[kind]
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rows, features))
        X[:, 0] = np.round(X[:, 0])  # tied feature values
        if target == "constant":
            y = np.full(rows, 87.5)
        elif target == "tied":
            y = np.round(X[:, 0] + X[:, -1])
        else:
            y = np.sin(X[:, 0]) + X[:, -1] ** 2
        model = cls(n_estimators=members, random_state=seed).fit(X, y)

        Z = np.concatenate([X, rng.normal(size=(rows, features))])
        for query in (Z, Z[:1]):
            preds = np.stack([m.predict(query) for m in model.estimators_])
            reference = reduce(model, preds)
            assert model.predict(query).tobytes() == reference.tobytes()


def small_noise():
    """40 x 10 pure-noise regression problem (deep, irregular trees)."""
    rng = np.random.default_rng(0)
    return rng.normal(size=(40, 10)), rng.normal(size=40)


class TestForestBoundaryChecks:
    """The forest validates once per call and its trees not at all, so
    these are the only checks on the path; types and texts are the ones
    the per-tree checks raised before."""

    @staticmethod
    def _forest():
        return RandomForestRegressor(n_estimators=3, random_state=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_rejects_non_finite(self, bad):
        X, y = small_noise()
        Xb, yb = X.copy(), y.copy()
        Xb[3, 2] = bad
        yb[0] = bad
        with pytest.raises(ValueError, match="^X contains NaN or infinity$"):
            self._forest().fit(Xb, y)
        with pytest.raises(ValueError, match="^y contains NaN or infinity$"):
            self._forest().fit(X, yb)

    def test_fit_rejects_empty_and_mismatched(self):
        X, y = small_noise()
        with pytest.raises(ValueError, match="^X has 0 samples$"):
            self._forest().fit(np.empty((0, 10)), np.empty(0))
        with pytest.raises(
            ValueError, match="^X has 40 samples but y has 39$"
        ):
            self._forest().fit(X, y[:-1])

    def test_failed_fit_leaves_forest_unfitted(self, monkeypatch):
        """A fit that raises assigns no fitted state, for all five
        ensembles: ``predict`` must not answer from a partial model."""
        X, y = small_noise()
        forest = self._forest().set_params(max_features=11)
        with pytest.raises(ValueError, match="max_features must be in"):
            forest.fit(X, y)
        with pytest.raises(NotFittedError):
            forest.predict(X)
        # used to leave estimators_ = [] behind and predict y.mean()
        boosted = GradientBoostingRegressor(min_samples_split=1)
        with pytest.raises(ValueError, match="min_samples_split must be"):
            boosted.fit(X, y)
        with pytest.raises(NotFittedError):
            boosted.predict(X)

        def second_stage_fails(grow):
            calls = []

            def failing(tree, *args):
                calls.append(None)
                if len(calls) == 2:
                    raise RuntimeError("stage 2 failed")
                return grow(tree, *args)

            return failing

        for model in (
            BaggingRegressor(n_estimators=3, random_state=0),
            RandomForestRegressor(n_estimators=3, random_state=0),
            AdaBoostRegressor(n_estimators=3, random_state=0),
            GradientBoostingRegressor(n_estimators=3, random_state=0),
            HistGradientBoostingRegressor(max_iter=3),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(
                    DecisionTreeRegressor, "_grow",
                    second_stage_fails(DecisionTreeRegressor._grow),
                )
                patch.setattr(
                    _HistTree, "fit", second_stage_fails(_HistTree.fit)
                )
                with pytest.raises(RuntimeError, match="stage 2 failed"):
                    model.fit(X, y)
            with pytest.raises(NotFittedError):
                model.predict(X)

    def test_predict_rejects_unfitted(self):
        X, _ = small_noise()
        with pytest.raises(
            NotFittedError,
            match=r"^RandomForestRegressor is not fitted yet; "
            r"call fit\(\) first$",
        ):
            self._forest().predict(X)

    def test_predict_rejects_bad_input(self):
        X, y = small_noise()
        forest = self._forest().fit(X, y)
        for bad in (np.nan, np.inf):
            Xb = X.copy()
            Xb[3, 2] = bad
            with pytest.raises(
                ValueError, match="^X contains NaN or infinity$"
            ):
                forest.predict(Xb)
        with pytest.raises(ValueError, match="^X has 0 samples$"):
            forest.predict(np.empty((0, 10)))
        with pytest.raises(ValueError, match="^expected 10 features, got 9$"):
            forest.predict(X[:, :9])
        with pytest.raises(ValueError, match="^expected 10 features, got 1$"):
            forest.predict(X[0])  # 1-D input is read as one column


class TestTreeRandomState:
    """A tree draws from its RNG only for per-node feature subsampling;
    the values below were captured before ``fit`` was split into
    validation + ``_grow`` and the RNG made lazy."""

    def test_generator_unconsumed_when_every_feature_is_a_candidate(self):
        X, y = small_noise()
        for max_features in (None, 1.0, 10):
            gen = np.random.default_rng(5)
            before = gen.bit_generator.state
            DecisionTreeRegressor(
                max_features=max_features, random_state=gen
            ).fit(X, y)
            assert gen.bit_generator.state == before

    @pytest.mark.parametrize(
        "params, nodes, next_draw",
        [
            ({"max_features": 3}, 79, 337712177),
            ({"max_features": "sqrt", "max_depth": 2}, 7, 97227738),
        ],
    )
    def test_generator_advances_exactly_as_before(
        self, params, nodes, next_draw
    ):
        X, y = small_noise()
        gen = np.random.default_rng(5)
        tree = DecisionTreeRegressor(random_state=gen, **params).fit(X, y)
        assert tree.n_nodes_ == nodes
        assert int(gen.integers(0, 2**31)) == next_draw
