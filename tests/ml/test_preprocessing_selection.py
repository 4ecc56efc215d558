"""StandardScaler and lag-matrix windowing — the exact pipeline steps of
the paper's Sec. V.B protocol."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml import (
    LinearRegression,
    NotFittedError,
    StandardScaler,
    make_lag_matrix,
)


class TestStandardScaler:
    def test_train_stats_applied_to_test(self):
        train = np.array([[0.0], [10.0]])
        test = np.array([[5.0], [20.0]])
        scaler = StandardScaler().fit(train)
        out = scaler.transform(test)
        assert out[0, 0] == pytest.approx(0.0)  # 5 is the train mean
        assert out[1, 0] == pytest.approx(3.0)  # (20-5)/5

    def test_fit_transform_zero_mean_unit_var(self):
        rng = np.random.default_rng(1)
        X = rng.normal(5.0, 3.0, size=(200, 4))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_zero_variance_column_survives(self):
        X = np.array([[1.0, 5.0], [1.0, 7.0]])
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))
        assert np.allclose(Z[:, 0], 0.0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform([[1.0]])

    def test_feature_count_mismatch(self):
        scaler = StandardScaler().fit([[1.0, 2.0]] * 3)
        with pytest.raises(ValueError, match="features"):
            scaler.transform([[1.0]])

    def test_with_mean_false(self):
        X = np.array([[2.0], [4.0]])
        scaler = StandardScaler(with_mean=False).fit(X)
        assert scaler.mean_[0] == 0.0

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 40), st.integers(1, 5)),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    def test_inverse_transform_roundtrip(self, X):
        scaler = StandardScaler().fit(X)
        back = scaler.inverse_transform(scaler.transform(X))
        assert np.allclose(back, X, rtol=1e-9, atol=1e-6)


class TestMakeLagMatrix:
    def test_window_contents(self):
        s = np.arange(10.0)
        X, y = make_lag_matrix(s, n_lags=3, horizon=1)
        assert X.shape == (7, 3)
        assert np.array_equal(X[0], [0.0, 1.0, 2.0])
        assert y[0] == 3.0
        assert np.array_equal(X[-1], [6.0, 7.0, 8.0])
        assert y[-1] == 9.0

    def test_paper_defaults_ten_lags(self):
        s = np.arange(500.0)
        X, y = make_lag_matrix(s)  # n_lags=10, horizon=1
        assert X.shape == (490, 10)
        assert y[0] == 10.0

    def test_horizon_two(self):
        s = np.arange(10.0)
        X, y = make_lag_matrix(s, n_lags=3, horizon=2)
        assert y[0] == 4.0
        assert X.shape[0] == 6

    def test_too_short(self):
        with pytest.raises(ValueError):
            make_lag_matrix([1.0, 2.0], n_lags=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_lag_matrix(np.arange(10.0), n_lags=0)
        with pytest.raises(ValueError):
            make_lag_matrix(np.arange(10.0), horizon=0)

    def test_perfectly_learnable(self):
        # a linear AR(1) series must be exactly recoverable by OLS on lags
        s = np.linspace(0, 1, 50)
        X, y = make_lag_matrix(s, n_lags=2)
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.predict(X), y, atol=1e-10)

