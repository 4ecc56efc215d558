"""Estimator plumbing (params/clone/validation) and RMSE correctness."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml import (
    LinearRegression,
    NotFittedError,
    Ridge,
    clone,
    mean_squared_error,
    root_mean_squared_error,
)
from repro.ml.base import check_array, check_X_y


class TestEstimatorPlumbing:
    def test_get_params_reflects_init(self):
        assert Ridge(alpha=0.5).get_params() == {"alpha": 0.5, "fit_intercept": True}

    def test_set_params_roundtrip(self):
        model = Ridge().set_params(alpha=2.0)
        assert model.alpha == 2.0

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            Ridge().set_params(bogus=1)

    def test_clone_is_unfitted_copy(self):
        model = Ridge(alpha=3.0)
        model.fit([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])
        fresh = clone(model)
        assert fresh.alpha == 3.0
        assert fresh.coef_ is None

    def test_repr_contains_params(self):
        assert "alpha=0.5" in repr(Ridge(alpha=0.5))

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict([[1.0]])


class TestValidation:
    def test_check_array_promotes_1d(self):
        assert check_array([1.0, 2.0]).shape == (2, 1)

    def test_check_array_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_array([[np.nan]])

    def test_check_array_rejects_3d(self):
        with pytest.raises(ValueError, match="2-D"):
            check_array(np.zeros((2, 2, 2)))

    def test_check_array_rejects_empty(self):
        with pytest.raises(ValueError, match="0 samples"):
            check_array(np.zeros((0, 3)))

    def test_check_X_y_length_mismatch(self):
        with pytest.raises(ValueError, match="samples"):
            check_X_y([[1.0], [2.0]], [1.0])

    def test_check_X_y_rejects_inf_target(self):
        with pytest.raises(ValueError):
            check_X_y([[1.0]], [np.inf])


class TestMetricsKnownValues:
    y = np.array([1.0, 2.0, 3.0, 4.0])
    p = np.array([1.0, 2.0, 3.0, 0.0])

    def test_mse(self):
        assert mean_squared_error(self.y, self.p) == pytest.approx(4.0)

    def test_rmse(self):
        assert root_mean_squared_error(self.y, self.p) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_squared_error([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            mean_squared_error([], [])


finite_arrays = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=50),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestMetricProperties:
    @given(finite_arrays)
    def test_rmse_zero_iff_equal(self, y):
        assert root_mean_squared_error(y, y) == 0.0

    @given(finite_arrays, st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_mse_shift_equivariance(self, y, delta):
        # shifting predictions by delta gives MSE >= delta-free baseline 0
        assert mean_squared_error(y, y + delta) == pytest.approx(delta**2, rel=1e-6, abs=1e-9)

    @given(finite_arrays)
    def test_rmse_le_max_error(self, y):
        p = y + 1.0
        max_error = np.max(np.abs(y - p))
        assert root_mean_squared_error(y, p) <= max_error + 1e-12

    @given(finite_arrays)
    def test_mae_le_rmse(self, y):
        p = np.roll(y, 1)
        mae = np.mean(np.abs(y - p))
        assert mae <= root_mean_squared_error(y, p) + 1e-9
