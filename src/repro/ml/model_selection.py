"""Time-series windowing for the paper's evaluation protocol (Sec. V.B).

:func:`repro.hecate.predictor.evaluate_pipeline` splits each bandwidth
trace 75/25 in time order, then turns each split into a lag matrix — the
10 most recent measurements ``t_i .. t_{i-9}`` predict ``t_{i+1}``
(:func:`make_lag_matrix`) — fits on the train matrix and reports RMSE on
the test matrix.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["make_lag_matrix"]


def make_lag_matrix(
    series, n_lags: int = 10, horizon: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Sliding-window design matrix for one-series-ahead regression.

    Row ``i`` of ``X`` is ``[s[i], s[i+1], ..., s[i+n_lags-1]]`` (oldest to
    newest) and the target is ``s[i + n_lags + horizon - 1]`` — with the
    paper's defaults (``n_lags=10, horizon=1``), ten historical values
    ``t_{i-9}..t_i`` predict ``t_{i+1}``.
    """
    s = np.asarray(series, dtype=np.float64).ravel()
    if n_lags < 1:
        raise ValueError("n_lags must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n_rows = s.size - n_lags - horizon + 1
    if n_rows < 1:
        raise ValueError(
            f"series of length {s.size} too short for n_lags={n_lags}, horizon={horizon}"
        )
    # stride trick view, then copy once into a contiguous matrix
    idx = np.arange(n_lags)[None, :] + np.arange(n_rows)[:, None]
    X = s[idx]
    y = s[n_lags + horizon - 1 :][:n_rows]
    return X, y.copy()
