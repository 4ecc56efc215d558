"""Hecate as a framework service ("askHecatePath" in Fig. 4).

Answers path recommendations over the message bus: reads each candidate
path's telemetry history out of the time-series DB, fits the configured
regressor pipeline, forecasts the next ``horizon`` samples and applies
the requested objective.  Falls back to the latest raw measurements when
there is not yet enough history to train on — the behaviour a freshly
booted controller needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bus import Message, MessageBus
from repro.ml import LinearRegression, RandomForestRegressor
from repro.ml.registry import regressor_names, regressor_spec
from repro.net.telemetry import TimeSeriesDB

from .objectives import PathForecast, get_objective, objective_names
from .predictor import QoSPredictor

__all__ = [
    "HecateService",
    "ASK_PATH_TOPIC",
    "ASK_PATH_BATCH_TOPIC",
    "default_model_factory",
    "resolve_model",
]

ASK_PATH_TOPIC = "hecate.ask_path"
ASK_PATH_BATCH_TOPIC = "hecate.ask_path_batch"


def default_model_factory():
    """The paper integrates RFR; 30 trees keep control-loop latency low
    while preserving forest behaviour (the full default is 100)."""
    return RandomForestRegressor(n_estimators=30, random_state=42)


#: control-loop aliases beside the roster; ``rfr`` (30 trees, what the
#: RFR pin and the perf ledger run) is *not* ``RFR``/``R13`` (100)
_LOOP_MODELS: Dict[str, Callable[[], object]] = {
    "linear": LinearRegression,
    "rfr": default_model_factory,
}


def resolve_model(name: str) -> Callable[[], object]:
    """``PolicySpec.model`` -> regressor factory: a control-loop alias
    (``linear``, ``rfr``), else an entrant of :mod:`repro.ml.registry`
    by paper id (``R1``..``R18``, ``X1``) or label (``GBR``)."""
    if name in _LOOP_MODELS:
        return _LOOP_MODELS[name]
    try:
        return regressor_spec(name).factory
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; choose from "
            f"{', '.join([*_LOOP_MODELS, *regressor_names()])}"
        ) from None


def _horizon(payload: Dict) -> int:
    """A request's ``horizon``: forecast steps, an integer >= 1."""
    value = payload.get("horizon", 10)
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"horizon must be an integer >= 1, got {value!r}")
    return int(value)


@dataclass
class Recommendation:
    """One answer to askHecatePath."""

    path: str
    objective: str
    forecasts: Dict[str, List[float]]
    trained: bool  # False -> fallback on raw telemetry

    def as_payload(self) -> Dict:
        return {
            "path": self.path,
            "objective": self.objective,
            "forecasts": self.forecasts,
            "trained": self.trained,
        }


class HecateService:
    """The Optimizer of Fig. 3, listening on ``hecate.ask_path``.

    Request payload::

        {"paths": ["T1", "T2", ...],      # telemetry path names
         "objective": "max_bandwidth",    # any registered objective
         "horizon": 10,                   # forecast steps >= 1 (default 10)
         "app_class": "voip"}             # scored by app-aware objectives

    Replies with ``Recommendation.as_payload()``.
    """

    MIN_TRAIN_SAMPLES = 30

    def __init__(
        self,
        db: TimeSeriesDB,
        bus: Optional[MessageBus] = None,
        model_factory: Callable[[], object] = default_model_factory,
        n_lags: int = 10,
    ):
        self.db = db
        self.model_factory = model_factory
        self.n_lags = n_lags
        self.asked: int = 0
        self.fits: int = 0  # regressor fits actually performed
        self.forecast_cache_hits: int = 0  # asks served without refit
        #: (path, horizon) -> (store cursor at fit time, forecast): a
        #: path whose telemetry has not advanced since the cached fit is
        #: served from here — e.g. the placement storm at a scenario's
        #: start asks about the same tunnels many times within one
        #: sampling interval, and must pay for one fit, not hundreds.
        #: Keyed per horizon so alternating horizons don't evict each
        #: other; entries are invalidated by the cursor moving.
        self._forecast_cache: Dict[Tuple[str, int], Tuple[int, PathForecast]] = {}
        if bus is not None:
            bus.subscribe(ASK_PATH_TOPIC, self._on_ask)
            bus.subscribe(ASK_PATH_BATCH_TOPIC, self._on_ask_batch)

    @property
    def train_floor(self) -> int:
        """Samples a path needs before its regressor is fitted; below
        it the forecast repeats the latest observation."""
        return max(self.MIN_TRAIN_SAMPLES, self.n_lags + 2)

    # ------------------------------------------------------------ queries

    def _history(self, path: str, metric: str) -> np.ndarray:
        _, values = self.db.series(f"path:{path}:{metric}")
        return values

    def forecast_path(self, path: str, horizon: int = 10) -> PathForecast:
        """Forecast one path's available bandwidth + latest latency/util.

        Cached on the telemetry store's cursor: if the path's series has
        not grown since the last call with the same horizon, the cached
        forecast is returned and no regressor is refit (the pipeline is
        deterministic, so identical history means an identical
        forecast).  One new sample invalidates the entry.
        """
        cursor = self.db.count(f"path:{path}:available_mbps")
        if cursor == 0:
            raise KeyError(f"no telemetry recorded for path {path!r}")
        cached = self._forecast_cache.get((path, horizon))
        if cached is not None and cached[0] == cursor:
            self.forecast_cache_hits += 1
            return cached[1]
        history = self._history(path, "available_mbps")
        if history.size >= self.train_floor:
            predictor = QoSPredictor(self.model_factory(), n_lags=self.n_lags)
            predictor.fit(history)
            self.fits += 1
            forecast = predictor.forecast(history, steps=horizon)
            forecast = np.clip(forecast, 0.0, None)
        else:
            # cold start: repeat the most recent observation
            forecast = np.full(horizon, float(history[-1]))
        result = PathForecast(
            name=path,
            available_mbps=forecast,
            latency_ms=self.db.latest(f"path:{path}:latency_ms", 0.0),
            bottleneck_utilization=self.db.latest(f"path:{path}:util", 0.0),
            jitter_ms=self.db.latest(f"path:{path}:jitter_ms", 0.0),
            loss_rate=self.db.latest(f"path:{path}:loss", 0.0),
        )
        self._forecast_cache[(path, horizon)] = (cursor, result)
        return result

    def recommend(
        self,
        paths: Sequence[str],
        objective: str = "max_bandwidth",
        horizon: int = 10,
        app_class: str = "generic",
    ) -> Recommendation:
        return self._recommend(
            paths, objective, horizon, memo={}, app_class=app_class
        )

    def _recommend(
        self,
        paths: Sequence[str],
        objective: str,
        horizon: int,
        memo: Dict[str, PathForecast],
        app_class: str = "generic",
    ) -> Recommendation:
        try:
            chooser = get_objective(objective).chooser
        except KeyError:
            raise ValueError(
                f"unknown objective {objective!r}; "
                f"choose from {list(objective_names())}"
            ) from None
        if not paths:
            raise ValueError("no candidate paths")
        forecasts = []
        for path in paths:
            if path not in memo:
                memo[path] = self.forecast_path(path, horizon=horizon)
            forecasts.append(memo[path])
        chosen = chooser(forecasts, app_class)
        trained = (
            self.db.count(f"path:{chosen.name}:available_mbps")
            >= self.train_floor
        )
        self.asked += 1
        return Recommendation(
            path=chosen.name,
            objective=objective,
            forecasts={
                f.name: [float(v) for v in f.available_mbps] for f in forecasts
            },
            trained=trained,
        )

    def _on_ask(self, message: Message) -> Dict:
        payload = message.payload
        try:
            rec = self.recommend(
                paths=payload["paths"],
                objective=payload.get("objective", "max_bandwidth"),
                horizon=_horizon(payload),
                app_class=payload.get("app_class", "generic"),
            )
        except (KeyError, ValueError) as exc:
            return {"ok": False, "error": str(exc)}
        out = rec.as_payload()
        out["ok"] = True
        return out

    def _on_ask_batch(self, message: Message) -> Dict:
        """Batched askHecatePath: ``{"groups": [{"paths", "objective"}]}``
        in, one entry per group out (single bus round-trip).

        Failures are isolated **per group** — a tunnel with no telemetry
        yet must not void the other groups' recommendations — so each
        entry carries its own ``ok`` flag: ``Recommendation.as_payload()``
        plus ``ok: True``, or ``{"ok": False, "error": ...}``.  The
        forecast memo still spans the whole batch."""
        payload = message.payload
        groups = payload.get("groups")
        if not groups:
            return {"ok": False, "error": "no groups to recommend for"}
        try:
            horizon = _horizon(payload)
        except ValueError as exc:
            return {"ok": False, "error": str(exc)}
        memo: Dict[str, PathForecast] = {}
        entries: List[Dict] = []
        for group in groups:
            try:
                rec = self._recommend(
                    group["paths"],
                    group.get("objective", "max_bandwidth"),
                    horizon,
                    memo,
                    app_class=group.get("app_class", "generic"),
                )
            except (KeyError, ValueError) as exc:
                entries.append({"ok": False, "error": str(exc)})
                continue
            entry = rec.as_payload()
            entry["ok"] = True
            entries.append(entry)
        return {"ok": True, "recommendations": entries}
