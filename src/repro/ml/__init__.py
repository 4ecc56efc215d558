"""repro.ml — a from-scratch regression suite (mini-sklearn).

scikit-learn is not available in this environment, so the paper's entire
ML layer is reimplemented on numpy/scipy behind the familiar
``fit``/``predict``/``get_params`` API: all eighteen tournament regressors
(Sec. V.A.2), ``StandardScaler``, train/test splitting, lag-matrix
windowing and the RMSE-family metrics.

Use :func:`repro.ml.registry.make_regressor` / ``roster()`` to obtain the
paper's entrants by their R1..R18 identifiers (or labels, e.g. ``"RFR"``).
"""

from .base import BaseEstimator, NotFittedError, RegressorMixin, clone
from .ensemble import (
    AdaBoostRegressor,
    BaggingRegressor,
    GradientBoostingRegressor,
    HistGradientBoostingRegressor,
    RandomForestRegressor,
)
from .gaussian_process import (
    RBF,
    ConstantKernel,
    GaussianProcessRegressor,
    Kernel,
    Product,
    Sum,
    WhiteKernel,
)
from .linear_model import (
    ARDRegression,
    ElasticNet,
    HuberRegressor,
    Lasso,
    LinearRegression,
    RANSACRegressor,
    Ridge,
    SGDRegressor,
    TheilSenRegressor,
)
from .metrics import (
    explained_variance_score,
    max_error,
    mean_absolute_error,
    mean_absolute_percentage_error,
    mean_squared_error,
    median_absolute_error,
    r2_score,
    root_mean_squared_error,
)
from .model_selection import (
    KFold,
    TimeSeriesSplit,
    cross_val_score,
    make_lag_matrix,
    train_test_split,
)
from .neural import MLPRegressor
from .pipeline import Pipeline, make_pipeline
from .preprocessing import MinMaxScaler, StandardScaler
from .registry import (
    REGRESSOR_SPECS,
    RegressorSpec,
    make_regressor,
    regressor_spec,
    roster,
)
from .svm import SVR, LinearSVR
from .tree import DecisionTreeRegressor

__all__ = [
    # base
    "BaseEstimator", "RegressorMixin", "NotFittedError", "clone",
    # linear
    "LinearRegression", "Ridge", "Lasso", "ElasticNet", "SGDRegressor",
    "HuberRegressor", "ARDRegression", "RANSACRegressor", "TheilSenRegressor",
    # tree/ensemble
    "DecisionTreeRegressor", "RandomForestRegressor", "BaggingRegressor",
    "AdaBoostRegressor", "GradientBoostingRegressor",
    "HistGradientBoostingRegressor",
    # gp
    "GaussianProcessRegressor", "Kernel", "RBF", "ConstantKernel",
    "WhiteKernel", "Sum", "Product",
    # svm
    "SVR", "LinearSVR",
    # metrics
    "mean_squared_error", "root_mean_squared_error", "mean_absolute_error",
    "median_absolute_error", "max_error", "r2_score",
    "explained_variance_score", "mean_absolute_percentage_error",
    # selection / preprocessing
    "train_test_split", "make_lag_matrix", "KFold", "TimeSeriesSplit",
    "cross_val_score", "StandardScaler", "MinMaxScaler",
    # registry
    "REGRESSOR_SPECS", "RegressorSpec", "regressor_spec", "make_regressor",
    "roster",
    # extensions
    "MLPRegressor", "Pipeline", "make_pipeline",
]
