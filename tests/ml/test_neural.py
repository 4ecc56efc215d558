"""MLPRegressor (future-work extension, Sec. VII)."""

import numpy as np
import pytest

from repro.ml import MLPRegressor, NotFittedError, make_regressor, root_mean_squared_error
from repro.ml.registry import REGRESSOR_SPECS, roster


def sine_data(n=300, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, 2))
    y = np.sin(X[:, 0]) + 0.5 * np.cos(2 * X[:, 1]) + rng.normal(scale=noise, size=n)
    return X, y


class TestMLP:
    def test_learns_nonlinear_function(self):
        X, y = sine_data()
        model = MLPRegressor(hidden_layer_sizes=(32, 32), max_iter=300,
                             random_state=0).fit(X, y)
        assert root_mean_squared_error(y, model.predict(X)) < 0.25

    def test_beats_constant_baseline_out_of_sample(self):
        Xtr, ytr = sine_data(seed=1)
        Xte, yte = sine_data(seed=2)
        model = MLPRegressor(hidden_layer_sizes=(32, 32), max_iter=400,
                             random_state=0).fit(Xtr, ytr)
        mlp_rmse = root_mean_squared_error(yte, model.predict(Xte))
        const_rmse = root_mean_squared_error(yte, np.full_like(yte, ytr.mean()))
        assert mlp_rmse < 0.5 * const_rmse

    def test_linear_data_with_identity_activation(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 1.0
        model = MLPRegressor(hidden_layer_sizes=(8,), activation="identity",
                             max_iter=400, random_state=0).fit(X, y)
        assert root_mean_squared_error(y, model.predict(X)) < 0.2

    def test_tanh_activation(self):
        X, y = sine_data(150)
        model = MLPRegressor(hidden_layer_sizes=(16,), activation="tanh",
                             max_iter=150, random_state=0).fit(X, y)
        assert np.isfinite(model.predict(X)).all()

    def test_reproducible_with_seed(self):
        X, y = sine_data(100)
        a = MLPRegressor(max_iter=20, random_state=7).fit(X, y).predict(X)
        b = MLPRegressor(max_iter=20, random_state=7).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_loss_curve_decreases(self):
        X, y = sine_data(200)
        model = MLPRegressor(max_iter=50, random_state=0).fit(X, y)
        assert model.loss_curve_[-1] < model.loss_curve_[0]

    def test_early_stopping_bounds_epochs(self):
        X = np.zeros((50, 2))
        y = np.zeros(50)
        model = MLPRegressor(max_iter=200, random_state=0).fit(X, y)
        assert model.n_iter_ < 200

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            MLPRegressor().predict([[0.0, 0.0]])

    def test_feature_mismatch(self):
        X, y = sine_data(50)
        model = MLPRegressor(max_iter=5, random_state=0).fit(X, y)
        with pytest.raises(ValueError):
            model.predict(np.zeros((3, 5)))

    def test_validation(self):
        with pytest.raises(ValueError):
            MLPRegressor(activation="gelu")
        with pytest.raises(ValueError):
            MLPRegressor(hidden_layer_sizes=(0,))
        with pytest.raises(ValueError):
            MLPRegressor(max_iter=0)

    def test_registered_as_extension_x1(self):
        assert "X1" in REGRESSOR_SPECS
        assert "X1" not in [spec.paper_id for spec in roster()]  # Fig. 6
        assert isinstance(make_regressor("X1"), MLPRegressor)
        assert isinstance(make_regressor("MLP"), MLPRegressor)

    def test_runs_through_hecate_pipeline(self):
        from repro.datasets import generate_uq_wireless
        from repro.hecate import evaluate_pipeline

        ds = generate_uq_wireless()
        result = evaluate_pipeline(
            ds.lte, MLPRegressor(hidden_layer_sizes=(16,), max_iter=60,
                                 random_state=0)
        )
        assert np.isfinite(result.rmse)
        # in the same league as the roster's models on the LTE path
        assert result.rmse < 3.0 * ds.lte.std()
