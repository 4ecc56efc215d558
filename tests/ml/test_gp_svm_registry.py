"""Gaussian process, SVR and the R1..R18 registry."""

import numpy as np
import pytest

from repro.ml import (
    RBF,
    ConstantKernel,
    GaussianProcessRegressor,
    LinearSVR,
    REGRESSOR_SPECS,
    SVR,
    make_regressor,
    root_mean_squared_error,
    roster,
)


def smooth_1d(n=40, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(-3, 3, size=(n, 1)), axis=0)
    y = np.sin(X).ravel() + rng.normal(scale=noise, size=n)
    return X, y


class TestKernels:
    def test_rbf_unit_diagonal(self):
        X = np.random.default_rng(0).normal(size=(5, 2))
        K = RBF(1.0)(X)
        assert np.allclose(np.diag(K), 1.0)
        assert np.all((K >= 0) & (K <= 1))

    def test_rbf_symmetry(self):
        X = np.random.default_rng(1).normal(size=(6, 3))
        K = RBF(0.7)(X)
        assert np.allclose(K, K.T)

    def test_rbf_length_scale_effect(self):
        X = np.array([[0.0], [2.0]])
        near = RBF(10.0)(X)[0, 1]
        far = RBF(0.1)(X)[0, 1]
        assert near > 0.9 and far < 1e-10

    def test_kernel_algebra(self):
        X = np.random.default_rng(2).normal(size=(4, 2))
        k = ConstantKernel(2.0) * RBF(1.0) + ConstantKernel(0.5)
        K = k(X)
        assert np.allclose(np.diag(K), 2.0 + 0.5)
        assert np.allclose(K, 2.0 * RBF(1.0)(X) + 0.5)
        K_cross = k(X, X.copy())
        assert np.allclose(K_cross, K)

    def test_theta_roundtrip(self):
        k = ConstantKernel(2.0) * RBF(0.5)
        theta = k.theta
        k.theta = theta + np.log(2.0)
        assert k.k1.constant_value == pytest.approx(4.0)
        assert k.k2.length_scale == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RBF(0.0)
        with pytest.raises(ValueError):
            ConstantKernel(-1.0)


class TestGPR:
    def test_interpolates_training_points(self):
        X, y = smooth_1d(noise=0.0)
        gpr = GaussianProcessRegressor(kernel=RBF(1.0), alpha=1e-10).fit(X, y)
        assert np.allclose(gpr.predict(X), y, atol=1e-6)

    def test_reverts_to_prior_far_away(self):
        """The failure mode behind the paper's Fig. 8: off-support inputs
        get the prior mean (0 in scaled space)."""
        X, y = smooth_1d()
        gpr = GaussianProcessRegressor(kernel=RBF(1.0)).fit(X, y)
        assert gpr.predict(np.array([[100.0]]))[0] == pytest.approx(0.0, abs=1e-8)

    def test_std_small_at_train_large_far_away(self):
        X, y = smooth_1d()
        gpr = GaussianProcessRegressor(kernel=RBF(1.0), alpha=1e-10).fit(X, y)
        _, std_train = gpr.predict(X, return_std=True)
        _, std_far = gpr.predict(np.array([[50.0]]), return_std=True)
        assert std_train.max() < 0.1
        assert std_far[0] == pytest.approx(1.0, abs=1e-6)  # prior std

    def test_normalize_y_restores_scale(self):
        X, y = smooth_1d()
        y_shift = y + 500.0
        gpr = GaussianProcessRegressor(kernel=RBF(1.0), normalize_y=True).fit(X, y_shift)
        pred = gpr.predict(X)
        assert abs(pred.mean() - 500.0) < 5.0

    def test_optimizer_improves_lml(self):
        X, y = smooth_1d(noise=0.05)
        fixed = GaussianProcessRegressor(kernel=RBF(0.05), alpha=1e-4).fit(X, y)
        lml_fixed = fixed.log_marginal_likelihood()
        tuned = GaussianProcessRegressor(
            kernel=RBF(0.05), alpha=1e-4, optimizer="fmin_l_bfgs_b"
        ).fit(X, y)
        assert tuned.log_marginal_likelihood() >= lml_fixed - 1e-9

    def test_default_kernel_constant_times_rbf(self):
        X, y = smooth_1d()
        gpr = GaussianProcessRegressor().fit(X, y)
        assert gpr.kernel_ is not None
        assert gpr.kernel_.theta.shape == (2,)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor(alpha=-1.0)


class TestSVR:
    def test_linear_recovers_slope(self):
        x = np.linspace(0, 10, 60).reshape(-1, 1)
        y = 3.0 * x.ravel() + 1.0
        model = LinearSVR(C=100.0, epsilon=0.01).fit(x, y)
        pred = model.predict(x)
        assert root_mean_squared_error(y, pred) < 0.2

    def test_rbf_fits_sine(self):
        X, y = smooth_1d(n=80, noise=0.02)
        model = SVR(kernel="rbf", C=10.0, epsilon=0.01, gamma=1.0).fit(X, y)
        assert root_mean_squared_error(y, model.predict(X)) < 0.15

    def test_epsilon_tube_flattens_fit(self):
        X, y = smooth_1d(n=60)
        wide = SVR(kernel="rbf", epsilon=2.0, gamma=1.0).fit(X, y)
        # amplitude of sin is 1, tube of 2 swallows it -> near-constant fit
        assert wide.predict(X).std() < 0.3

    def test_gamma_scale_matches_manual(self):
        X, y = smooth_1d()
        model = SVR(gamma="scale").fit(X, y)
        assert model.gamma_ == pytest.approx(1.0 / (X.shape[1] * X.var()))

    def test_gamma_auto(self):
        X, y = smooth_1d()
        assert SVR(gamma="auto").fit(X, y).gamma_ == pytest.approx(1.0)

    def test_support_subset(self):
        X, y = smooth_1d(n=50)
        model = SVR(kernel="rbf", C=1.0, epsilon=0.2, gamma=1.0).fit(X, y)
        assert 0 < model.support_.shape[0] <= 50

    def test_validation(self):
        with pytest.raises(ValueError):
            SVR(kernel="poly")
        with pytest.raises(ValueError):
            SVR(C=0.0)
        with pytest.raises(ValueError):
            SVR(epsilon=-0.1)
        with pytest.raises(ValueError):
            SVR(gamma=-1.0).fit([[1.0], [2.0]], [1.0, 2.0])

    def test_feature_mismatch(self):
        X, y = smooth_1d()
        model = SVR().fit(X, y)
        with pytest.raises(ValueError):
            model.predict(np.zeros((3, 2)))


class TestRegistry:
    def test_full_roster(self):
        specs = roster()
        assert len(specs) == 18
        assert [s.paper_id for s in specs] == [f"R{i}" for i in range(1, 19)]

    def test_labels_match_paper(self):
        expected = {
            "R1": "AdaBoostR", "R2": "ARDR", "R3": "Bagging", "R4": "DTR",
            "R5": "ElasticNet", "R6": "GBR", "R7": "GPR", "R8": "HGBR",
            "R9": "HuberR", "R10": "Lasso", "R11": "LR", "R12": "RANSACR",
            "R13": "RFR", "R14": "Ridge", "R15": "SGDR", "R16": "SVM_Linear",
            "R17": "SVM_RBF", "R18": "TheilSenR",
        }
        for pid, label in expected.items():
            assert REGRESSOR_SPECS[pid].label == label

    def test_factories_produce_fresh_instances(self):
        a = make_regressor("R13")
        b = make_regressor("R13")
        assert a is not b

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="R99"):
            make_regressor("R99")

    def test_all_entrants_fit_and_predict(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = X @ np.array([1.0, 2.0, -1.0]) + rng.normal(scale=0.1, size=60)
        for spec in roster():
            model = spec.factory()
            pred = model.fit(X, y).predict(X)
            assert pred.shape == (60,), spec.paper_id
            assert np.isfinite(pred).all(), spec.paper_id
