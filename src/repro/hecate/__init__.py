"""repro.hecate — the AI/ML traffic-engineering optimizer.

Reimplements the Hecate side of the paper's integration: the QoS
prediction pipeline (StandardScaler + 10-lag window + regressor,
Sec. V.B), the Fig. 6 regressor tournament, path-selection objectives,
and the Sec. III LP/convex formulations — exposed directly and as a
message-bus service answering ``askHecatePath`` (Fig. 4).
"""

from .lp import FlowSplit, solve_min_cost, solve_min_delay, solve_min_max_utilization
from .objectives import (
    AssignmentResult,
    PathForecast,
    assign_flows,
    choose_max_bandwidth,
    choose_min_latency,
    choose_min_max_utilization,
)
from .predictor import EvaluationResult, QoSPredictor, evaluate_pipeline
from .service import (
    ASK_PATH_BATCH_TOPIC,
    ASK_PATH_TOPIC,
    HecateService,
    default_model_factory,
    resolve_model,
)
from .tournament import (
    PAPER_FIG6_RMSE,
    TournamentEntry,
    TournamentResult,
    run_tournament,
)

__all__ = [
    "QoSPredictor", "EvaluationResult", "evaluate_pipeline",
    "TournamentEntry", "TournamentResult", "run_tournament", "PAPER_FIG6_RMSE",
    "PathForecast",
    "choose_max_bandwidth", "choose_min_latency", "choose_min_max_utilization",
    "FlowSplit", "solve_min_cost", "solve_min_max_utilization", "solve_min_delay",
    "HecateService", "ASK_PATH_TOPIC", "ASK_PATH_BATCH_TOPIC",
    "default_model_factory", "resolve_model",
    "assign_flows", "AssignmentResult",
]
