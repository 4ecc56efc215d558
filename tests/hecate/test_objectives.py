"""The pluggable objective registry and the app-aware chooser."""

import dataclasses

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
from repro.scenarios import ScenarioRunner, get_scenario

BUILTINS = (
    "max_bandwidth", "max_qoe", "min_latency", "min_max_utilization",
)
NON_PACKET_BACKENDS = ("fluid", "emulation-mock")


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

    def test_only_the_throughput_objectives_are_solved_jointly(self):
        joint = [s.name for s in list_objectives() if s.joint]
        assert joint == ["max_bandwidth", "min_max_utilization"]

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


def _fig11(objective, backend):
    scenario = get_scenario("fig11-latency-migration").quick(6.0, 2.0)
    scenario = scenario.with_overrides(
        policy=dataclasses.replace(scenario.policy, objective=objective)
    )
    return ScenarioRunner(scenario, backend=backend).run()


@pytest.mark.parametrize("backend", NON_PACKET_BACKENDS)
class TestObjectivesOffThePacketLevel:
    """The fluid and emulation-mock backends resolve the policy
    objective through the registry, as the packet level does."""

    def test_plugin_objective_is_honoured(self, backend):
        """docs/QOE.md's ``min_loss`` plugin on Fig. 11's two tunnels
        (T1 far, the default; T2 near).  Off the packet level every
        candidate's loss is 0, so its latency tie-break decides: T2,
        where the joint max-bandwidth assignment stays on T1."""
        seen = []

        def min_loss(forecasts, app_class="generic"):
            seen.append(forecasts)
            return min(forecasts, key=lambda f: (f.loss_rate, f.latency_ms))

        register_objective(ObjectiveSpec(
            name="min_loss",
            description="lowest forecast loss rate",
            chooser=min_loss,
        ))
        try:
            plugin = _fig11("min_loss", backend)
        finally:
            del _REGISTRY["min_loss"]
        near = _fig11("min_latency", backend)
        far = _fig11("max_bandwidth", backend)
        assert plugin.mean_latency_ms == near.mean_latency_ms
        assert plugin.mean_latency_ms < far.mean_latency_ms
        # the static-forecast contract: candidate order, one-sample
        # rate, propagation delay, everything else zero
        (forecasts,) = seen
        assert [f.name for f in forecasts] == ["T1", "T2"]
        assert [f.latency_ms for f in forecasts] == [22.0, 2.0]
        for forecast in forecasts:
            assert forecast.available_mbps.shape == (1,)
            assert forecast.mean_available > 0.0
            assert forecast.bottleneck_utilization == 0.0
            assert forecast.jitter_ms == forecast.loss_rate == 0.0

    def test_unknown_objective_raises_naming_the_registry(self, backend):
        with pytest.raises(KeyError, match="unknown objective") as excinfo:
            _fig11("no_such_objective", backend)
        for name in BUILTINS:
            assert name in str(excinfo.value)
