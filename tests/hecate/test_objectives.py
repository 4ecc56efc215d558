"""The pluggable objective registry and the app-aware chooser."""

import numpy as np
import pytest

from repro.hecate.objectives import (
    ObjectiveSpec,
    PathForecast,
    _REGISTRY,
    choose_max_qoe,
    get_objective,
    list_objectives,
    objective_names,
    register_objective,
)

BUILTINS = (
    "max_bandwidth", "max_qoe", "min_latency", "min_max_utilization",
)


def _forecast(name, mbps, latency_ms=0.0, jitter_ms=0.0, loss_rate=0.0):
    return PathForecast(
        name=name,
        available_mbps=np.full(4, float(mbps)),
        latency_ms=latency_ms,
        jitter_ms=jitter_ms,
        loss_rate=loss_rate,
    )


class TestRegistry:
    def test_builtins_are_registered_sorted(self):
        assert objective_names() == BUILTINS
        assert [s.name for s in list_objectives()] == list(BUILTINS)

    def test_lookup_returns_the_named_chooser(self):
        fat = _forecast("fat", 50.0)
        thin = _forecast("thin", 5.0)
        assert get_objective("max_bandwidth").chooser([thin, fat]) is fat
        assert len(objective_names()) == len(BUILTINS)
        with pytest.raises(KeyError):
            get_objective("no_such_objective")

    def test_only_max_qoe_is_app_aware(self):
        aware = [s.name for s in list_objectives() if s.app_aware]
        assert aware == ["max_qoe"]

    def test_duplicate_registration_is_an_error(self):
        spec = get_objective("max_bandwidth")
        with pytest.raises(ValueError, match="already registered"):
            register_objective(spec)

    def test_get_objective_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="max_bandwidth"):
            get_objective("fastest")

    def test_plugin_objective_round_trips(self):
        spec = ObjectiveSpec(
            name="test_first_path",
            description="always the first candidate (test plugin)",
            chooser=lambda forecasts, app_class="generic": forecasts[0],
        )
        register_objective(spec)
        try:
            assert "test_first_path" in objective_names()
            first = _forecast("a", 1.0)
            chooser = get_objective("test_first_path").chooser
            assert chooser([first]) is first
        finally:
            del _REGISTRY["test_first_path"]
        assert "test_first_path" not in objective_names()


class TestChooseMaxQoe:
    def test_voip_prefers_the_low_latency_path(self):
        far = _forecast("far", 50.0, latency_ms=300.0)
        near = _forecast("near", 1.0, latency_ms=2.0)
        assert choose_max_qoe([far, near], "voip") is near
        # bandwidth-first objectives disagree on the same forecasts
        max_bandwidth = get_objective("max_bandwidth").chooser
        assert max_bandwidth([far, near], "voip") is far

    def test_video_prefers_the_fat_path(self):
        far = _forecast("far", 50.0, latency_ms=300.0)
        near = _forecast("near", 1.0, latency_ms=2.0)
        assert choose_max_qoe([far, near], "video") is far

    def test_generic_degrades_to_max_bandwidth(self):
        far = _forecast("far", 50.0, latency_ms=300.0)
        near = _forecast("near", 1.0, latency_ms=2.0)
        assert choose_max_qoe([far, near]) is far
        assert choose_max_qoe([far, near], "generic") is far

    def test_loss_and_jitter_forecasts_matter(self):
        lossy = _forecast("lossy", 10.0, latency_ms=2.0, loss_rate=0.2)
        clean = _forecast("clean", 10.0, latency_ms=2.0)
        assert choose_max_qoe([lossy, clean], "voip") is clean
        jittery = _forecast("jittery", 10.0, jitter_ms=120.0)
        assert choose_max_qoe([jittery, clean], "voip") is clean

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError, match="no candidate paths"):
            choose_max_qoe([], "voip")


class TestPathForecastFields:
    def test_jitter_and_loss_default_to_zero(self):
        forecast = PathForecast("p", np.ones(3), 1.0, 0.5)
        assert forecast.jitter_ms == 0.0
        assert forecast.loss_rate == 0.0
        assert forecast.mean_available == 1.0
