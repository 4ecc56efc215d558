"""The paper's eighteen-regressor roster (Sec. V.A.2), R1..R18, plus
the post-paper extension entrant X1.

``REGRESSOR_SPECS`` maps each identifier to a factory that builds the
model with the paper's configuration ("executed with the default
hyperparameters").  The tournament (Fig. 6), ``PolicySpec.model`` (via
:func:`repro.hecate.service.resolve_model`) and the benchmarks all
instantiate models through this registry so the roster is defined in
exactly one place; :func:`regressor_spec` looks an entrant up by paper
id or by label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from .ensemble import (
    AdaBoostRegressor,
    BaggingRegressor,
    GradientBoostingRegressor,
    HistGradientBoostingRegressor,
    RandomForestRegressor,
)
from .gaussian_process import GaussianProcessRegressor
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
from .neural import MLPRegressor
from .svm import SVR, LinearSVR
from .tree import DecisionTreeRegressor

__all__ = [
    "RegressorSpec", "REGRESSOR_SPECS", "regressor_names", "regressor_spec",
    "make_regressor", "roster",
]

_SEED = 42  # pinned so stochastic entrants are reproducible across runs


@dataclass(frozen=True)
class RegressorSpec:
    """One tournament entrant: paper id, short label, factory."""

    paper_id: str  # e.g. "R13"
    label: str  # e.g. "RFR"
    full_name: str
    factory: Callable[[], object]
    stochastic: bool = False


REGRESSOR_SPECS: Dict[str, RegressorSpec] = {
    spec.paper_id: spec
    for spec in [
        RegressorSpec(
            "R1", "AdaBoostR", "Ada Boost Regressor",
            lambda: AdaBoostRegressor(random_state=_SEED), stochastic=True,
        ),
        RegressorSpec("R2", "ARDR", "ARD Regression", ARDRegression),
        RegressorSpec(
            "R3", "Bagging", "Bagging Regressor",
            lambda: BaggingRegressor(random_state=_SEED), stochastic=True,
        ),
        RegressorSpec(
            "R4", "DTR", "Decision Tree Regressor",
            lambda: DecisionTreeRegressor(random_state=_SEED),
        ),
        RegressorSpec("R5", "ElasticNet", "Elastic Net", ElasticNet),
        RegressorSpec(
            "R6", "GBR", "Gradient Boosting Regressor",
            lambda: GradientBoostingRegressor(random_state=_SEED), stochastic=True,
        ),
        RegressorSpec(
            "R7", "GPR", "Gaussian Process Regressor", GaussianProcessRegressor,
        ),
        RegressorSpec(
            "R8", "HGBR", "Histogram-based Gradient Boosting Regression",
            HistGradientBoostingRegressor,
        ),
        RegressorSpec("R9", "HuberR", "Huber Regressor", HuberRegressor),
        RegressorSpec("R10", "Lasso", "Lasso", Lasso),
        RegressorSpec("R11", "LR", "Linear Regression", LinearRegression),
        RegressorSpec(
            "R12", "RANSACR", "RANdom SAmple Consensus Regressor",
            lambda: RANSACRegressor(random_state=_SEED), stochastic=True,
        ),
        RegressorSpec(
            "R13", "RFR", "Random Forest Regressor",
            lambda: RandomForestRegressor(random_state=_SEED), stochastic=True,
        ),
        RegressorSpec("R14", "Ridge", "Ridge", Ridge),
        RegressorSpec(
            "R15", "SGDR", "Stochastic Gradient Descent Regressor",
            lambda: SGDRegressor(random_state=_SEED), stochastic=True,
        ),
        RegressorSpec(
            "R16", "SVM_Linear", "Support Vector Machine/Linear Kernel", LinearSVR,
        ),
        RegressorSpec(
            "R17", "SVM_RBF", "Support Vector Machine/RBF Kernel",
            lambda: SVR(kernel="rbf"),
        ),
        RegressorSpec(
            "R18", "TheilSenR", "Theil-Sen Regressor",
            lambda: TheilSenRegressor(random_state=_SEED), stochastic=True,
        ),
        # post-paper extension (Sec. VII future work): in the table, so
        # every by-name lookup finds it, but not in the Fig. 6 roster()
        RegressorSpec(
            "X1", "MLP",
            "Multi-Layer Perceptron (future work: neural networks)",
            lambda: MLPRegressor(random_state=_SEED), stochastic=True,
        ),
    ]
}


def regressor_names() -> List[str]:
    """``"R13 (RFR)"`` for every entrant, as error messages list them."""
    return [f"{s.paper_id} ({s.label})" for s in REGRESSOR_SPECS.values()]


def regressor_spec(name: str) -> RegressorSpec:
    """Entrant by paper id (``"R13"``, ``"X1"``) or label (``"RFR"``)."""
    for spec in REGRESSOR_SPECS.values():
        if name in (spec.paper_id, spec.label):
            return spec
    raise KeyError(
        f"unknown regressor {name!r}; valid ids (labels): "
        f"{', '.join(regressor_names())}"
    )


def make_regressor(name: str):
    """Instantiate one entrant; ``name`` as for :func:`regressor_spec`."""
    return regressor_spec(name).factory()


def roster() -> List[RegressorSpec]:
    """All entrants in paper order (R1..R18)."""
    return [REGRESSOR_SPECS[f"R{i}"] for i in range(1, 19)]
