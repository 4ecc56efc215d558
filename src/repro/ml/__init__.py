"""repro.ml — the paper's regression suite, reimplemented on numpy/scipy.

scikit-learn is not available in this environment, so the paper's ML
layer is rebuilt behind sklearn's ``fit``/``predict``/``get_params``
names, and holds only what the paper's protocol runs: ``StandardScaler``,
the 10-lag window (:func:`make_lag_matrix`), the eighteen tournament
regressors of Sec. V.A.2 plus the MLP extension, and RMSE.

The tree models share one core: CART (:mod:`repro.ml.tree`) grows every
tree, and the five ensembles of :mod:`repro.ml.ensemble` predict through
one packed node table each.

Use :func:`repro.ml.registry.make_regressor` / ``roster()`` to obtain the
paper's entrants by their R1..R18 identifiers (or labels, e.g. ``"RFR"``).
"""

from .base import BaseEstimator, NotFittedError, clone
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
from .metrics import mean_squared_error, root_mean_squared_error
from .model_selection import make_lag_matrix
from .neural import MLPRegressor
from .preprocessing import StandardScaler
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
    "BaseEstimator", "NotFittedError", "clone",
    # linear
    "LinearRegression", "Ridge", "Lasso", "ElasticNet", "SGDRegressor",
    "HuberRegressor", "ARDRegression", "RANSACRegressor", "TheilSenRegressor",
    # tree/ensemble
    "DecisionTreeRegressor", "RandomForestRegressor", "BaggingRegressor",
    "AdaBoostRegressor", "GradientBoostingRegressor",
    "HistGradientBoostingRegressor",
    # gp
    "GaussianProcessRegressor", "Kernel", "RBF", "ConstantKernel",
    "Sum", "Product",
    # svm
    "SVR", "LinearSVR",
    # protocol: scaling, windowing, scoring
    "StandardScaler", "make_lag_matrix",
    "mean_squared_error", "root_mean_squared_error",
    # registry
    "REGRESSOR_SPECS", "RegressorSpec", "regressor_spec", "make_regressor",
    "roster",
    # extensions
    "MLPRegressor",
]
