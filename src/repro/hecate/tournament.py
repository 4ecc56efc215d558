"""The 18-regressor tournament of Fig. 6.

Each entrant predicts both paths' bandwidth through the paper's pipeline;
the scatter coordinates are (RMSE on WiFi/Path 1, RMSE on LTE/Path 2) and
the integrated model is the one closest to the origin.  GPR is evaluated
in "paper mode": the published GPR numbers (WiFi 34.75, LTE 52.43 —
roughly the RMS of the raw test series) match a pipeline in which the GPR
saw raw-scale data and reverted to its zero prior, so the tournament
reproduces that quirk for R7 (see EXPERIMENTS.md); everything else runs
through the standard scaled pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets import WirelessDataset
from repro.ml.registry import regressor_spec, roster
from repro.net.qoe import rate_to_mos

from .predictor import evaluate_pipeline

__all__ = [
    "TournamentEntry",
    "TournamentResult",
    "run_tournament",
    "PAPER_FIG6_RMSE",
]

#: RMSE coordinates (WiFi, LTE) reported in the paper's Fig. 6 legend,
#: plus the GPR values quoted in the text (excluded from the scatter).
PAPER_FIG6_RMSE: Dict[str, Tuple[float, float]] = {
    "R1": (19.29, 6.60),
    "R2": (18.28, 6.62),
    "R3": (18.30, 6.37),
    "R4": (17.54, 8.25),
    "R5": (22.39, 6.60),
    "R6": (13.96, 6.96),
    "R7": (34.75, 52.43),
    "R8": (15.75, 7.32),
    "R9": (19.00, 6.35),
    "R10": (23.46, 7.36),
    "R11": (18.36, 6.50),
    "R12": (19.57, 6.78),
    "R13": (14.23, 6.73),
    "R14": (18.23, 6.49),
    "R15": (17.51, 6.29),
    "R16": (18.82, 6.36),
    "R17": (18.95, 6.36),
    "R18": (16.97, 6.45),
}

#: Fig. 6 drops an entrant from the scatter when its RMSE on either path
#: exceeds this multiple of that path's median RMSE (the paper excludes
#: GPR "due to the high RMSE values").
FIG6_EXCLUSION_FACTOR = 2.2


@dataclass(frozen=True)
class TournamentEntry:
    """One entrant's scores on both paths."""

    paper_id: str
    label: str
    rmse_wifi: float
    rmse_lte: float

    @property
    def distance_to_origin(self) -> float:
        """The Fig. 6 selection criterion (closest to the lower-left)."""
        return float(np.hypot(self.rmse_wifi, self.rmse_lte))


@dataclass
class TournamentResult:
    entries: List[TournamentEntry]
    excluded: List[str]  # off-scale entrants left out of the scatter

    def ranked(self) -> List[TournamentEntry]:
        return sorted(self.entries, key=lambda e: e.distance_to_origin)

    def best(self) -> TournamentEntry:
        candidates = [e for e in self.entries if e.paper_id not in self.excluded]
        return min(candidates, key=lambda e: e.distance_to_origin)

    def entry(self, paper_id: str) -> TournamentEntry:
        for e in self.entries:
            if e.paper_id == paper_id:
                return e
        raise KeyError(f"no entry {paper_id!r}")

    def scatter_points(self) -> List[Tuple[str, float, float]]:
        """(label, x=WiFi RMSE, y=LTE RMSE) for non-excluded entrants."""
        return [
            (e.label, e.rmse_wifi, e.rmse_lte)
            for e in self.entries
            if e.paper_id not in self.excluded
        ]


def _target_series(
    series: np.ndarray, target: str, app_class: str
) -> np.ndarray:
    """The series an entrant must predict for this target.

    ``bandwidth`` is the paper's raw Mbps trace, returned untouched so
    the default tournament stays byte-identical; ``mos`` maps every
    sample through the ``app_class`` rate-to-QoE curve (see
    :mod:`repro.net.qoe`), turning the tournament into a predicted-MOS
    contest on the same wireless data.
    """
    if target == "bandwidth":
        return series
    if target == "mos":
        rates = np.asarray(series, dtype=np.float64).ravel()
        return np.asarray(
            rate_to_mos(app_class, rates.tolist()), dtype=np.float64
        )
    raise ValueError(
        f"unknown tournament target {target!r} "
        "(expected 'bandwidth' or 'mos')"
    )


def run_tournament(
    dataset: WirelessDataset,
    n_lags: int = 10,
    test_size: float = 0.25,
    entrants: Optional[Sequence[str]] = None,
    gpr_paper_mode: bool = True,
    target: str = "bandwidth",
    app_class: str = "video",
) -> TournamentResult:
    """Evaluate the roster on both paths and apply the Fig. 6 exclusion
    (:data:`FIG6_EXCLUSION_FACTOR`).

    Parameters
    ----------
    entrants:
        Paper ids or labels to run (default: all eighteen); an unknown
        name raises the registry's ``KeyError``, which lists the roster.
    gpr_paper_mode:
        Evaluate R7 on the raw (unscaled) pipeline, reproducing the
        published off-scale GPR numbers; set False to run GPR through the
        same scaled pipeline as everyone else.
    target:
        ``"bandwidth"`` (the paper's Fig. 6 contest, the default) or
        ``"mos"`` — predict the per-second MOS the ``app_class`` QoE
        model assigns to each bandwidth sample instead of the bandwidth
        itself.  MOS RMSEs live on the 1-5 scale, so they are not
        comparable with :data:`PAPER_FIG6_RMSE`.
    app_class:
        QoE model used when ``target="mos"`` (default ``"video"``, the
        most rate-sensitive ladder).
    """
    specs = (
        [regressor_spec(name) for name in entrants]
        if entrants is not None
        else roster()
    )
    entries: List[TournamentEntry] = []
    for spec in specs:
        scale = not (gpr_paper_mode and spec.paper_id == "R7")
        wifi = evaluate_pipeline(
            _target_series(dataset.path(1), target, app_class),
            spec.factory(), n_lags=n_lags,
            test_size=test_size, scale=scale,
        )
        lte = evaluate_pipeline(
            _target_series(dataset.path(2), target, app_class),
            spec.factory(), n_lags=n_lags,
            test_size=test_size, scale=scale,
        )
        entries.append(
            TournamentEntry(
                paper_id=spec.paper_id,
                label=spec.label,
                rmse_wifi=wifi.rmse,
                rmse_lte=lte.rmse,
            )
        )
    wifi_median = float(np.median([e.rmse_wifi for e in entries]))
    lte_median = float(np.median([e.rmse_lte for e in entries]))
    excluded = [
        e.paper_id
        for e in entries
        if e.rmse_wifi > FIG6_EXCLUSION_FACTOR * wifi_median
        or e.rmse_lte > FIG6_EXCLUSION_FACTOR * lte_median
    ]
    return TournamentResult(entries=entries, excluded=excluded)
